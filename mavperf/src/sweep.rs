//! The `sweep` phase: Package Delivery Monte-Carlo episodes on the sharded
//! reliability-sweep engine, a closed batch on `nproc` worker threads.
//!
//! Batch `b` draws its episodes from `ScenarioGenerator::new(PackageDelivery,
//! s_b)` with the default scenario space, where `s_b` is derived from the
//! workload seed. Batches cycle through [`CYCLE`] distinct generator seeds;
//! a batch that comes round again must reproduce its aggregate exactly.

use crate::metrics::Outcome;
use crate::stats::{fastest, median, ratio};
use crate::{host_threads, splitmix64, timed, Scale};
use mav_compute::ApplicationId;
use mav_core::reliability::{
    reliability_sweep_classified_observed, ClassStats, ReliabilityStats, DEFAULT_SHARD_SIZE,
};
use mav_core::{ScenarioGenerator, SweepRunner};
use mav_types::{sha256_hex, Json, ToJson};
use std::collections::{BTreeMap, HashMap};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Distinct batches before the cycle repeats.
pub const CYCLE: u64 = 8;

/// Fixed seed of the set-up batch, so set-up time does not depend on the
/// workload seed.
const WARMUP_SEED: u64 = 0x5E70B;

/// Set-ups timed before the first slice; [`Timed::set_up_again`] adds more.
const SETUPS: usize = 3;

/// Episodes per batch: whole shards of the production shard size, two per
/// worker thread.
pub fn batch_episodes(threads: usize, scale: Scale) -> u64 {
    match scale {
        Scale::Full => 2 * DEFAULT_SHARD_SIZE * threads as u64,
        Scale::Smoke => threads as u64,
    }
}

/// The scenario generator of batch `batch`.
pub fn generator(seed: u64, batch: u64) -> ScenarioGenerator {
    ScenarioGenerator::new(
        ApplicationId::PackageDelivery,
        splitmix64(seed ^ splitmix64(batch % CYCLE)),
    )
}

/// The canonical compact JSON of a sweep's aggregate and class breakdown:
/// what the sweep digest hashes.
pub fn aggregate_json(stats: &ReliabilityStats, classes: &BTreeMap<String, ClassStats>) -> String {
    let classes_json = classes.iter().fold(Json::object(), |json, (name, class)| {
        json.field(name, class.to_json())
    });
    Json::object()
        .field("stats", stats.to_json())
        .field("classes", classes_json)
        .to_string_compact()
}

/// Runs one batch and returns its aggregate JSON.
pub fn run_batch(runner: &SweepRunner, generator: &ScenarioGenerator, episodes: u64) -> String {
    let (stats, classes) = reliability_sweep_classified_observed(
        runner,
        generator,
        episodes,
        DEFAULT_SHARD_SIZE,
        &|_| {},
    );
    aggregate_json(&stats, &classes)
}

/// The timed sweep phase, driven slice by slice.
pub struct Timed {
    seed: u64,
    runner: SweepRunner,
    episodes: u64,
    batch: u64,
    rates: Vec<f64>,
    seen: BTreeMap<u64, String>,
    /// Seconds of every set-up timed so far.
    setups: Vec<f64>,
    out: Outcome,
}

impl Timed {
    /// The phase, set up [`SETUPS`] times.
    pub fn setup(seed: u64, scale: Scale) -> Timed {
        let threads = host_threads();
        let mut phase = Timed {
            seed,
            runner: SweepRunner::new().with_threads(threads),
            episodes: batch_episodes(threads, scale),
            batch: 0,
            rates: Vec::new(),
            seen: BTreeMap::new(),
            setups: Vec::new(),
            out: Outcome::default(),
        };
        for _ in 0..SETUPS {
            phase.set_up_again();
        }
        phase
    }

    /// Times one more set-up — building the pool and warming each worker's
    /// scratch with one episode per thread (the engine spawns its workers
    /// per call) — and keeps its pool.
    pub fn set_up_again(&mut self) {
        let threads = host_threads();
        let warmup = ScenarioGenerator::new(ApplicationId::PackageDelivery, WARMUP_SEED);
        let (runner, elapsed) = timed(|| {
            let runner = SweepRunner::new().with_threads(threads);
            run_batch(&runner, &warmup, threads as u64);
            runner
        });
        self.runner = runner;
        self.setups.push(elapsed.as_secs_f64());
    }

    /// The fastest set-up in seconds, and how many were timed.
    pub fn setup_secs(&self) -> (f64, usize) {
        (fastest(&self.setups), self.setups.len())
    }

    /// The digest of batch 0's aggregate.
    pub fn digest(&self) -> String {
        sha256_hex(self.seen.get(&0).map_or("", String::as_str).as_bytes())
    }

    /// Whole batches until the slice is used up, at least one.
    pub fn slice(&mut self, budget: Duration) {
        let start = Instant::now();
        loop {
            let generator = generator(self.seed, self.batch);
            let (aggregate, elapsed) = timed(|| run_batch(&self.runner, &generator, self.episodes));
            self.rates
                .push(self.episodes as f64 / elapsed.as_secs_f64());
            self.out.attempted += self.episodes;
            let key = self.batch % CYCLE;
            match self.seen.get(&key) {
                Some(first) if *first != aggregate => {
                    self.out
                        .fail(format!("sweep batch {key} changed between repeats"));
                }
                Some(_) => {}
                None => {
                    if !aggregate.contains(&format!("\"episodes\":{},", self.episodes)) {
                        self.out
                            .fail(format!("sweep batch {key} lost episodes: {aggregate}"));
                    }
                    self.seen.insert(key, aggregate);
                }
            }
            self.batch += 1;
            if start.elapsed() >= budget {
                break;
            }
        }
    }

    /// The phase's outcome: the median batch rate, so a burst of host
    /// noise moves one batch.
    pub fn finish(&mut self) -> Outcome {
        let mut out = std::mem::take(&mut self.out);
        let rate = median(&self.rates);
        out.set("episodes_per_s", rate);
        let rates: Vec<String> = self.rates.iter().map(|r| format!("{r:.0}")).collect();
        out.note(format!(
            "sweep: {} batches of {} episodes on {} threads, {rate:.1} episodes/s; batch rates {}",
            self.batch,
            self.episodes,
            self.runner.threads(),
            rates.join(" ")
        ));
        out
    }
}

/// The traced sweep pass over batch 0: per-thread completion times from the
/// observer callback give worker busy share and shard tail, and a 1-thread
/// rerun of the same episodes must reproduce the aggregate digest.
pub fn traced_pass(seed: u64, scale: Scale) -> (Outcome, String) {
    let mut out = Outcome::default();
    let threads = host_threads();
    let episodes = batch_episodes(threads, scale);
    let generator = generator(seed, 0);
    let runner = SweepRunner::new().with_threads(threads);
    // Warm the allocator and caches the way the timed phase's set-up does.
    run_batch(&runner, &generator, threads as u64);

    // Order-free: only the sum, minimum and maximum are read.
    let completions: Mutex<HashMap<std::thread::ThreadId, Instant>> = Mutex::new(HashMap::new());
    let start = Instant::now();
    let (stats, classes) = reliability_sweep_classified_observed(
        &runner,
        &generator,
        episodes,
        DEFAULT_SHARD_SIZE,
        &|_| {
            let now = Instant::now();
            completions
                .lock()
                .expect("completion map lock")
                .insert(std::thread::current().id(), now);
        },
    );
    let wall = start.elapsed().as_secs_f64();
    let parallel = aggregate_json(&stats, &classes);
    let ends: Vec<f64> = completions
        .into_inner()
        .expect("completion map lock")
        .values()
        .map(|t| t.duration_since(start).as_secs_f64())
        .collect();
    let busy: f64 = ends.iter().sum();
    out.set(
        "sweep.worker_busy_share",
        ratio(busy, wall * threads as f64),
    );
    let first_idle = ends.iter().copied().fold(f64::INFINITY, f64::min);
    let last_idle = ends.iter().copied().fold(0.0, f64::max);
    out.set(
        "sweep.shard_tail_ms",
        if ends.is_empty() {
            0.0
        } else {
            (last_idle - first_idle) * 1e3
        },
    );

    let serial = run_batch(&SweepRunner::new().with_threads(1), &generator, episodes);
    let digest = sha256_hex(parallel.as_bytes());
    out.check(serial == parallel, || {
        format!("sweep digest at {threads} threads differs from the 1-thread rerun")
    });
    (out, digest)
}
