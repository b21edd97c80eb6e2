//! The `missions` phase: the five applications at their
//! `MissionConfig::new(app)` defaults (32×24 depth frames, 0.5 m map, the
//! paper's environments), round-robin on one thread on the scratch path.
//!
//! Every round runs the same fixed list of episodes — [`MISSION_SEEDS`] for
//! each application — so the per-application figures compare like with
//! like from run to run; the workload seed only sets the order in which a
//! round visits them. Each round runs on the next CPU the thread may use,
//! in turn (see [`crate::affinity`]), so every CPU's speed is sampled.
//!
//! An application's gated `mission_ms_min` is each episode's smallest host
//! time across its visits, averaged over the application's episodes: the time
//! the episode takes outside the CPUs' slow stretches, which is what a
//! change to the program moves. Its `mission_ms_p50`, the per-episode
//! median averaged the same way, follows how much of the run fell into slow
//! stretches and is reported without a bound. A mean over the episodes,
//! not a median, because a median over five distinct episodes would jump
//! between neighbours whose times lie close together. Each episode must
//! reproduce its report exactly every time it comes round.

use crate::affinity::CpuSet;
use crate::metrics::Outcome;
use crate::stats::{fastest, median};
use crate::{permutation, splitmix64, timed, Scale};
use mav_compute::ApplicationId;
use mav_core::{run_mission_with_scratch, EpisodeScratch, MissionConfig, MissionReport};
use mav_types::{sha256_hex, ToJson};
use std::time::{Duration, Instant};

/// The episode seeds every application runs.
pub const MISSION_SEEDS: [u64; 5] = [42, 43, 44, 45, 46];

/// Set-ups timed before the first slice; [`Timed::set_up_again`] adds more.
const SETUPS: usize = 3;

/// The five applications with their metric-name suffixes and how often a
/// round visits each of their episodes. The short ones (about 5 and
/// 0.25 ms an episode, against 16 to 46 ms for the others on a 2-vCPU
/// host) come round more often: a visit costs them little, and more
/// visits spread over the run make their minimum steadier.
pub const APPS: [(ApplicationId, &str, usize); 5] = [
    (ApplicationId::Scanning, "scanning", 2),
    (ApplicationId::AerialPhotography, "aerial_photography", 8),
    (ApplicationId::PackageDelivery, "package_delivery", 1),
    (ApplicationId::Mapping3D, "mapping_3d", 1),
    (ApplicationId::SearchAndRescue, "search_rescue", 1),
];

/// The fixed episode list: `(app index, config)` for every application and
/// seed. `Smoke` keeps one seed per application.
pub fn episodes(scale: Scale) -> Vec<(usize, MissionConfig)> {
    let seeds = match scale {
        Scale::Full => &MISSION_SEEDS[..],
        Scale::Smoke => &MISSION_SEEDS[..1],
    };
    APPS.iter()
        .enumerate()
        .flat_map(|(index, &(app, _, _))| {
            seeds
                .iter()
                .map(move |&seed| (index, MissionConfig::new(app).with_seed(seed)))
        })
        .collect()
}

/// The digest of one mission report: SHA-256 of its compact JSON.
pub fn report_digest(report: &MissionReport) -> String {
    sha256_hex(report.to_json().to_string_compact().as_bytes())
}

/// The timed missions phase, driven slice by slice: a cursor walks the
/// rounds, each round a fresh seeded order of the visits.
pub struct Timed {
    seed: u64,
    list: Vec<(usize, MissionConfig)>,
    /// One round: indices into `list`, each episode as often as its
    /// application's visit count.
    visits: Vec<usize>,
    scratch: EpisodeScratch,
    round: u64,
    order: Vec<usize>,
    cursor: usize,
    samples: Vec<Vec<f64>>,
    digests: Vec<Option<String>>,
    /// The thread's own CPU set, restored after every slice; `None` where
    /// the kernel does not report it, and the phase then never pins.
    allowed: Option<CpuSet>,
    /// The CPU the thread is pinned to, if any.
    pinned: Option<usize>,
    /// Seconds of every set-up timed so far.
    setups: Vec<f64>,
    out: Outcome,
}

impl Timed {
    /// The phase, set up [`SETUPS`] times.
    pub fn setup(seed: u64, scale: Scale) -> Timed {
        let list = episodes(scale);
        let visits: Vec<usize> = list
            .iter()
            .enumerate()
            .flat_map(|(index, (app, _))| std::iter::repeat_n(index, APPS[*app].2))
            .collect();
        let mut phase = Timed {
            seed,
            order: permutation(visits.len(), splitmix64(seed)),
            visits,
            samples: vec![Vec::new(); list.len()],
            digests: vec![None; list.len()],
            list,
            scratch: EpisodeScratch::new(),
            round: 0,
            cursor: 0,
            allowed: CpuSet::current(),
            pinned: None,
            setups: Vec::new(),
            out: Outcome::default(),
        };
        for _ in 0..SETUPS {
            phase.set_up_again();
        }
        phase
    }

    /// Times one more set-up — a fresh scratch warmed by one Scanning
    /// episode, on the next CPU in turn — and keeps its scratch.
    pub fn set_up_again(&mut self) {
        let warmup = MissionConfig::new(ApplicationId::Scanning).with_seed(MISSION_SEEDS[0]);
        self.pin(self.setups.len() as u64);
        let (scratch, elapsed) = timed(|| {
            let mut scratch = EpisodeScratch::new();
            run_mission_with_scratch(warmup, &mut scratch);
            scratch
        });
        self.unpin();
        self.scratch = scratch;
        self.setups.push(elapsed.as_secs_f64());
    }

    /// The fastest set-up in seconds, and how many were timed.
    pub fn setup_secs(&self) -> (f64, usize) {
        (fastest(&self.setups), self.setups.len())
    }

    /// The digest over every episode's report.
    pub fn digest(&self) -> String {
        let joined: String = self.digests.iter().flatten().cloned().collect();
        sha256_hex(joined.as_bytes())
    }

    /// Pins the thread to CPU number `turn` (modulo the CPUs it may use),
    /// unless it is there already.
    fn pin(&mut self, turn: u64) {
        let Some(allowed) = self.allowed else { return };
        let cpus = allowed.cpus();
        let cpu = cpus[(turn % cpus.len() as u64) as usize];
        if self.pinned != Some(cpu) && CpuSet::single(cpu).apply() {
            self.pinned = Some(cpu);
        }
    }

    /// Lets the thread run on all its CPUs again.
    fn unpin(&mut self) {
        if let (Some(allowed), Some(_)) = (self.allowed, self.pinned) {
            allowed.apply();
            self.pinned = None;
        }
    }

    fn step(&mut self) {
        self.pin(self.round);
        let index = self.visits[self.order[self.cursor]];
        let (app, config) = &self.list[index];
        let (report, elapsed) =
            timed(|| run_mission_with_scratch(config.clone(), &mut self.scratch));
        self.samples[index].push(elapsed.as_secs_f64() * 1e3);
        let digest = report_digest(&report);
        self.out.attempted += 1;
        match &self.digests[index] {
            Some(first) if *first != digest => self.out.fail(format!(
                "{} seed {} changed its report between rounds",
                APPS[*app].1, config.seed
            )),
            Some(_) => {}
            None => self.digests[index] = Some(digest),
        }
        self.cursor += 1;
        if self.cursor == self.order.len() {
            self.round += 1;
            self.cursor = 0;
            self.order = permutation(self.visits.len(), splitmix64(self.seed ^ self.round));
        }
    }

    /// Episodes from the cursor until the slice is used up, at least one.
    pub fn slice(&mut self, budget: Duration) {
        let start = Instant::now();
        loop {
            self.step();
            if start.elapsed() >= budget {
                break;
            }
        }
        self.unpin();
    }

    /// Completes the first round if slices ended inside it, so every
    /// episode has a sample, then reports.
    pub fn finish(&mut self) -> Outcome {
        while self.round == 0 {
            self.step();
        }
        self.unpin();
        let mut out = std::mem::take(&mut self.out);
        for (app, (_, name, _)) in APPS.iter().enumerate() {
            let per_episode: Vec<&Vec<f64>> = self
                .list
                .iter()
                .zip(&self.samples)
                .filter(|((a, _), _)| *a == app)
                .map(|(_, times)| times)
                .collect();
            let mean = |stat: fn(&[f64]) -> f64| {
                per_episode.iter().map(|t| stat(t)).sum::<f64>() / per_episode.len() as f64
            };
            let min = mean(fastest);
            let p50 = mean(median);
            let visits = per_episode.iter().map(|t| t.len()).min().unwrap_or(0);
            out.set(&format!("mission_ms_min.{name}"), min);
            out.set(&format!("mission_ms_p50.{name}"), p50);
            out.note(format!(
                "missions: {name} min {min:.3} ms, p50 {p50:.3} ms: means over {} episodes of their minimum and median over >= {visits} visits",
                per_episode.len()
            ));
        }
        out.note(format!(
            "missions: rounds alternate over CPUs {}",
            self.allowed.map_or_else(
                || "(affinity unavailable: not pinned)".to_string(),
                |a| format!("{:?}", a.cpus())
            )
        ));
        out
    }
}
