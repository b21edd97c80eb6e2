//! The traced run: per-layer host time from outside the simulator.
//!
//! For a sample of the workload's episodes the trace
//!
//! 1. times the untraced episode on the scratch path (the timed phases'
//!    path) and keeps its report, whose kernel-timer invocation counts say
//!    how often each layer ran;
//! 2. rebuilds the episode with `MissionContext::new` and walks it along
//!    the application's route through the public entry points — depth
//!    capture, point-cloud conversion, OctoMap insertion, collision checks,
//!    planning, smoothing, frontier extraction, detection, tracking and
//!    `MissionContext::advance` — timing each call;
//! 3. attributes episode time to layers as µs per call × that episode's
//!    call count, and reports what is left as `unattributed_share`.
//!
//! The walk runs twice, once without timers, and the difference is the
//! tracing overhead.

use crate::alloc::AllocSnapshot;
use crate::metrics::Outcome;
use crate::missions::report_digest;
use crate::stats::{median, ratio};
use crate::{host_threads, micros, service, sweep, timed, Scale, Workload};
use mav_compute::{ApplicationId, KernelId};
use mav_core::apps::package_delivery::pick_destination;
use mav_core::{
    run_mission, run_mission_with_scratch, EpisodeScratch, MissionConfig, MissionContext,
    MissionReport,
};
use mav_perception::{
    DetectorConfig, DownsampleScratch, ObjectDetector, OctoMap, OctoMapConfig, PointCloud,
    TargetTracker, TrackerConfig,
};
use mav_planning::{FrontierConfig, FrontierExplorer, PathSmoother, PlannerKind, SmootherConfig};
use mav_runtime::{Executor, Node, NodeOutput, SimClock};
use mav_server::JobSpec;
use mav_types::{sha256_hex, SimDuration, SimTime, ToJson, Vec3};
use std::collections::BTreeMap;

/// Simulated seconds each walk step advances the vehicle: about one
/// executor round, so consecutive frames overlap as they do in flight and
/// map insertion meets mostly known voxels, as it does in an episode.
const ADVANCE_S: f64 = 0.1;

/// The walk plans, extracts frontiers and detects on every this many steps,
/// as an episode replans far less often than it captures frames.
const PLAN_EVERY: usize = 4;

/// Nodes in the flight graph `MissionContext::fly_trajectory` assembles
/// (energy, camera, OctoMap, tracker, collision monitor, planner).
const FLIGHT_NODES: usize = 6;

/// Times layer calls when on; runs them bare when off.
#[derive(Default)]
struct Probe {
    on: bool,
    samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Probe {
    fn time<R>(&mut self, layer: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let (out, us) = micros(f);
        self.samples.entry(layer).or_default().push(us);
        out
    }

    fn median(&self, layer: &str) -> f64 {
        self.samples.get(layer).map_or(0.0, |v| median(v))
    }

    fn total(&self, layer: &str) -> f64 {
        self.samples.get(layer).map_or(0.0, |v| v.iter().sum())
    }

    /// Every sample of `probes` in one probe.
    fn merged(probes: &[Probe]) -> Probe {
        let mut all = Probe::default();
        for probe in probes {
            for (layer, samples) in &probe.samples {
                all.samples.entry(layer).or_default().extend(samples);
            }
        }
        all
    }

    /// µs per call of `layer` on this walk, or on `all` where this walk
    /// made no such call.
    fn per_call(&self, layer: &str, all: &Probe) -> f64 {
        match self.samples.get(layer) {
            Some(samples) => median(samples),
            None => all.median(layer),
        }
    }
}

/// Host µs one episode's layer calls account for: µs per call on the
/// episode's own walk × the episode's call counts, plus physics per
/// simulated second × its mission time and one world generation.
fn layer_us(report: &MissionReport, own: &Probe, all: &Probe, round_us: f64) -> f64 {
    let us = |layer: &str| own.per_call(layer, all);
    let count = |kernels: &[KernelId]| invocations(report, kernels);
    let frames = count(&[KernelId::PointCloudGeneration]);
    let advance_calls = own.samples.get("context.advance").map_or(0, Vec::len) as f64;
    let advance_per_sim_s = ratio(own.total("context.advance"), advance_calls * ADVANCE_S);
    (us("camera.capture") + us("pointcloud.fill") + us("pointcloud.downsample")) * frames
        + us("octomap.insert") * count(&[KernelId::OctomapGeneration])
        + us("collision.check") * count(&[KernelId::CollisionCheck])
        + (us("planner.plan") + us("planner.shortcut")) * count(&[KernelId::MotionPlanning])
        + us("smoother.smooth") * count(&[KernelId::PathSmoothing])
        + us("frontier.find") * count(&[KernelId::FrontierExploration])
        + us("detection.detect") * count(&[KernelId::ObjectDetection])
        + us("tracking.update") * count(&[KernelId::TrackingRealTime, KernelId::TrackingBuffered])
        + round_us * count(&[KernelId::PathTracking])
        + advance_per_sim_s * report.mission_time_secs
        + us("env.generate")
}

/// Counts gathered along the walks.
#[derive(Default)]
struct Tally {
    raw_points: usize,
    kept_points: usize,
    checks: u64,
    free: u64,
    plans: u64,
    plans_ok: u64,
    frontier_calls: u64,
    frontiers: usize,
    advance_secs: f64,
    advance_bytes: u64,
    known_voxels: Vec<f64>,
}

/// The sample of episodes the trace rebuilds for `workload`.
fn sample_configs(workload: Workload, seed: u64, scale: Scale) -> Vec<MissionConfig> {
    let smoke = scale == Scale::Smoke;
    match workload {
        Workload::Sweep => {
            let generator = sweep::generator(seed, 0);
            (0..if smoke { 1 } else { 8 })
                .map(|i| generator.episode(i))
                .collect()
        }
        Workload::Missions => crate::missions::episodes(scale)
            .into_iter()
            .map(|(_, config)| config)
            .collect(),
        Workload::Service => service_indices(scale)
            .filter_map(
                |i| match mav_server::parse_spec(service::cold_spec(seed, i).as_bytes()) {
                    Ok(JobSpec::Mission { config }) => Some(*config),
                    _ => None,
                },
            )
            .collect(),
    }
}

/// Job indices the traced service pass submits for the `service` workload.
fn service_indices(scale: Scale) -> std::ops::Range<u64> {
    0..if scale == Scale::Smoke { 6 } else { 12 }
}

/// Where the walk flies: Package Delivery's own destination, otherwise a
/// point half the world extent out along +x.
fn route_goal(ctx: &MissionContext) -> Vec3 {
    let altitude = ctx.config.quadrotor.cruise_altitude;
    let fallback = Vec3::new(ctx.config.environment.extent * 0.5, 0.0, altitude);
    match ctx.config.application {
        ApplicationId::PackageDelivery => pick_destination(ctx, 0.55).unwrap_or(fallback),
        _ => fallback,
    }
}

/// Walks one episode along its route through the layers' entry points.
fn walk(config: &MissionConfig, steps: usize, probe: &mut Probe, tally: &mut Tally) {
    probe.time("env.generate", || config.environment.generate());
    let Ok(mut ctx) = MissionContext::new(config.clone()) else {
        return;
    };
    let threads = host_threads();
    let checker = ctx.collision_checker();
    let planner = ctx.shortest_path_planner(PlannerKind::Rrt);
    let explorer = FrontierExplorer::new(FrontierConfig {
        min_altitude: 0.5,
        max_altitude: (config.environment.height - 1.0).min(10.0),
        ..FrontierConfig::default()
    });
    let mut detector = ObjectDetector::new(DetectorConfig {
        seed: config.seed,
        ..Default::default()
    });
    let mut tracker = TargetTracker::new(TrackerConfig::default());
    let smoother = PathSmoother::new(SmootherConfig::new(
        ctx.velocity_cap().max(0.5),
        config.quadrotor.max_acceleration,
    ));
    let goal = route_goal(&ctx);
    let resolution = ctx.current_resolution();
    let half_extent = config.environment.extent.max(config.environment.height) + 5.0;
    let mut serial = OctoMap::new(OctoMapConfig::with_resolution(resolution), half_extent);
    let mut parallel = OctoMap::new(OctoMapConfig::with_resolution(resolution), half_extent);
    let mut raw = PointCloud::default();
    let mut cells = DownsampleScratch::default();
    let mut kept = PointCloud::default();

    let mut heading = goal - ctx.pose().position;
    for step in 0..steps {
        let frame = probe.time("camera.capture", || ctx.capture_depth());
        probe.time("pointcloud.fill", || raw.fill_from_depth_image(&frame));
        probe.time("pointcloud.downsample", || {
            raw.downsample_into(resolution, &mut cells, &mut kept)
        });
        tally.raw_points += raw.len();
        tally.kept_points += kept.len();
        probe.time("octomap.insert", || serial.insert_point_cloud(&kept));
        probe.time("octomap.insert_parallel", || {
            parallel.insert_point_cloud_parallel(&kept, threads)
        });
        probe.time("context.update_map", || ctx.update_map(&frame));

        let pose = ctx.pose();
        let here = pose.position;
        let free = probe.time("collision.check", || {
            checker.segment_free(&ctx.map, &here, &goal)
        });
        tally.checks += 1;
        tally.free += u64::from(free);
        if step % PLAN_EVERY == 0 {
            heading = goal - here;
            let plan = probe.time("planner.plan", || {
                planner.plan(&ctx.map, &checker, here, goal)
            });
            tally.plans += 1;
            if let Ok(path) = plan {
                tally.plans_ok += 1;
                let short = probe.time("planner.shortcut", || path.shortcut(&ctx.map, &checker));
                let now = ctx.clock.now();
                let smoothed =
                    probe.time("smoother.smooth", || smoother.smooth(&short.waypoints, now));
                if let Ok(trajectory) = smoothed {
                    let free = probe.time("collision.check", || {
                        checker.trajectory_free(&ctx.map, &trajectory)
                    });
                    tally.checks += 1;
                    tally.free += u64::from(free);
                }
                if let Some(next) = short.waypoints.get(1) {
                    heading = *next - here;
                }
            }
            let frontiers = probe.time("frontier.find", || explorer.find_frontiers(&ctx.map));
            tally.frontier_calls += 1;
            tally.frontiers += frontiers.len();
            let detections = probe.time("detection.detect", || detector.detect(&ctx.world, &pose));
            probe.time("tracking.update", || {
                tracker.update(detections.first(), SimDuration::from_millis(100.0))
            });
        }

        let velocity = if heading.norm() > 1e-6 {
            heading.normalized() * 2.0
        } else {
            Vec3::ZERO
        };
        let before = AllocSnapshot::now();
        probe.time("context.advance", || {
            ctx.advance(velocity, SimDuration::from_secs(ADVANCE_S))
        });
        tally.advance_bytes += AllocSnapshot::now().since(before).bytes;
        tally.advance_secs += ADVANCE_S;
        if ctx.budget_failure().is_some() {
            break;
        }
    }
    tally.known_voxels.push(ctx.map.known_voxel_count() as f64);
}

struct Noop(&'static str);

impl Node<SimClock> for Noop {
    fn name(&self) -> &str {
        self.0
    }

    fn period(&self) -> SimDuration {
        SimDuration::from_millis(50.0)
    }

    fn tick(&mut self, _ctx: &mut SimClock, _now: SimTime) -> mav_types::Result<NodeOutput> {
        Ok(NodeOutput::idle())
    }
}

/// `Executor::step` on a graph of no-op nodes the size of the flight graph:
/// median µs per round over blocks of 1000 rounds.
fn executor_round_us(scale: Scale) -> f64 {
    const NAMES: [&str; FLIGHT_NODES] = [
        "energy", "camera", "octomap", "tracker", "monitor", "planner",
    ];
    let mut exec: Executor<SimClock> = Executor::new();
    for name in NAMES {
        exec.add_node(Noop(name));
    }
    let mut clock = SimClock::new();
    let blocks = if scale == Scale::Smoke { 2 } else { 20 };
    let per_block: Vec<f64> = (0..blocks)
        .map(|_| {
            micros(|| {
                for _ in 0..1000 {
                    let _ = std::hint::black_box(exec.step(&mut clock));
                }
            })
            .1 / 1000.0
        })
        .collect();
    median(&per_block)
}

/// One sampled episode's untraced time, report and allocation counts.
struct Episode {
    host_us: f64,
    report: MissionReport,
    allocs: AllocSnapshot,
}

/// A tiny episode run between measured ones so the scratch's world cache
/// misses, as it does when episodes vary.
fn flush_config() -> MissionConfig {
    let mut config = MissionConfig::fast_test(ApplicationId::Scanning).with_seed(1);
    config.environment.extent = 10.0;
    config
}

fn measure_episode(config: &MissionConfig, scratch: &mut EpisodeScratch) -> Episode {
    let mut times = Vec::with_capacity(3);
    let mut report = None;
    for _ in 0..3 {
        run_mission_with_scratch(flush_config(), scratch);
        let (r, us) = micros(|| run_mission_with_scratch(config.clone(), scratch));
        times.push(us);
        report = Some(r);
    }
    run_mission_with_scratch(flush_config(), scratch);
    let before = AllocSnapshot::now();
    run_mission_with_scratch(config.clone(), scratch);
    let allocs = AllocSnapshot::now().since(before);
    Episode {
        host_us: median(&times),
        report: report.expect("three runs"),
        allocs,
    }
}

fn invocations(report: &MissionReport, kernels: &[KernelId]) -> f64 {
    kernels
        .iter()
        .map(|&k| report.kernel_timer.invocations(k) as f64)
        .sum()
}

/// The simulation layers of the traced run. Returns the outcome and the
/// digest over the sample's reports.
fn simulation_layers(workload: Workload, seed: u64, scale: Scale) -> (Outcome, String) {
    let mut out = Outcome::default();
    let configs = sample_configs(workload, seed, scale);
    let steps = if scale == Scale::Smoke { 1 } else { 16 };
    let mut scratch = EpisodeScratch::new();
    let episodes: Vec<Episode> = configs
        .iter()
        .map(|config| measure_episode(config, &mut scratch))
        .collect();

    // The fresh path must reproduce the scratch path's reports.
    let compared = if workload == Workload::Missions {
        configs.len()
    } else {
        2
    };
    for (config, episode) in configs.iter().zip(&episodes).take(compared) {
        let fresh = run_mission(config.clone());
        out.check(fresh == episode.report, || {
            format!(
                "{:?} seed {}: fresh and scratch reports differ",
                config.application, config.seed
            )
        });
    }

    // Walk untimed, then timed; the difference is the tracing overhead.
    let mut tally = Tally::default();
    let (_, bare_wall) = timed(|| {
        for config in &configs {
            walk(config, steps, &mut Probe::default(), &mut Tally::default());
        }
    });
    let mut probes = Vec::with_capacity(configs.len());
    let (_, traced_wall) = timed(|| {
        for config in &configs {
            let mut probe = Probe {
                on: true,
                ..Probe::default()
            };
            walk(config, steps, &mut probe, &mut tally);
            probes.push(probe);
        }
    });
    let probe = Probe::merged(&probes);
    out.set(
        "trace_overhead_share",
        ratio(
            traced_wall.as_secs_f64() - bare_wall.as_secs_f64(),
            bare_wall.as_secs_f64(),
        ),
    );

    let capture_us = probe.median("camera.capture");
    let convert_us = probe.median("pointcloud.fill") + probe.median("pointcloud.downsample");
    let advance_us_per_sim_s = ratio(probe.total("context.advance"), tally.advance_secs);
    let round_us = executor_round_us(scale);

    let n = episodes.len() as f64;
    let per_episode = |kernels: &[KernelId]| {
        ratio(
            episodes
                .iter()
                .map(|e| invocations(&e.report, kernels))
                .sum(),
            n,
        )
    };
    let frames = per_episode(&[KernelId::PointCloudGeneration]);
    let inserts = per_episode(&[KernelId::OctomapGeneration]);
    let checks = per_episode(&[KernelId::CollisionCheck]);
    let frontier_calls = per_episode(&[KernelId::FrontierExploration]);
    let rounds = per_episode(&[KernelId::PathTracking]);
    let steps_per_episode = ratio(
        episodes
            .iter()
            .map(|e| (e.report.mission_time_secs / configs[0].physics_dt).round())
            .sum(),
        n,
    );

    let host_total: f64 = episodes.iter().map(|e| e.host_us).sum();
    let layer_total: f64 = episodes
        .iter()
        .zip(&probes)
        .map(|(episode, own)| layer_us(&episode.report, own, &probe, round_us))
        .sum();
    if workload != Workload::Service {
        out.set(
            "unattributed_share",
            ratio(host_total - layer_total, host_total),
        );
    }

    out.set("camera.capture_us", capture_us);
    out.set("camera.frames_per_episode", frames);
    out.set("pointcloud.convert_us", convert_us);
    out.set(
        "pointcloud.kept_ratio",
        ratio(tally.kept_points as f64, tally.raw_points as f64),
    );
    out.set("octomap.insert_us", probe.median("octomap.insert"));
    out.set(
        "octomap.insert_ns_per_point",
        ratio(
            probe.total("octomap.insert") * 1e3,
            tally.kept_points as f64,
        ),
    );
    out.set("octomap.inserts_per_episode", inserts);
    out.set("octomap.known_voxels", median(&tally.known_voxels));
    out.set(
        "octomap.parallel_speedup",
        ratio(
            probe.total("octomap.insert"),
            probe.total("octomap.insert_parallel"),
        ),
    );
    out.set("collision.check_us", probe.median("collision.check"));
    out.set("collision.checks_per_episode", checks);
    out.set(
        "collision.free_ratio",
        ratio(tally.free as f64, tally.checks as f64),
    );
    out.set("planner.plan_us", probe.median("planner.plan"));
    out.set(
        "planner.success_ratio",
        ratio(tally.plans_ok as f64, tally.plans as f64),
    );
    out.set("planner.shortcut_us", probe.median("planner.shortcut"));
    out.set("smoother.smooth_us", probe.median("smoother.smooth"));
    out.set("frontier.find_us", probe.median("frontier.find"));
    out.set("frontier.calls_per_episode", frontier_calls);
    out.set(
        "frontier.frontiers_per_call",
        ratio(tally.frontiers as f64, tally.frontier_calls as f64),
    );
    out.set("detection.detect_us", probe.median("detection.detect"));
    out.set("tracking.update_us", probe.median("tracking.update"));
    out.set("executor.round_us", round_us);
    out.set("executor.rounds_per_episode", rounds);
    out.set("context.advance_us_per_sim_s", advance_us_per_sim_s);
    out.set("context.physics_steps_per_episode", steps_per_episode);
    out.set(
        "context.alloc_bytes_per_sim_s",
        ratio(tally.advance_bytes as f64, tally.advance_secs),
    );
    out.set("env.generate_us", probe.median("env.generate"));
    out.set(
        "scratch.allocs_per_episode",
        ratio(episodes.iter().map(|e| e.allocs.allocs as f64).sum(), n),
    );
    out.set(
        "scratch.alloc_bytes_per_episode",
        ratio(episodes.iter().map(|e| e.allocs.bytes as f64).sum(), n),
    );

    let reports: Vec<&MissionReport> = episodes.iter().map(|e| &e.report).collect();
    out.set(
        "sim.success_rate",
        ratio(reports.iter().filter(|r| r.success()).count() as f64, n),
    );
    out.set(
        "sim.collision_rate",
        ratio(
            reports
                .iter()
                .filter(|r| matches!(r.failure, Some(mav_core::MissionFailure::Collision)))
                .count() as f64,
            n,
        ),
    );
    let times: Vec<f64> = reports.iter().map(|r| r.mission_time_secs).collect();
    let energies: Vec<f64> = reports.iter().map(|r| r.energy_kj()).collect();
    out.set("sim.mission_s_p50", median(&times));
    out.set("sim.energy_kj_p50", median(&energies));
    out.note(format!(
        "trace: {} episodes of {}, host {:.3} ms total, layers {:.3} ms",
        episodes.len(),
        workload.name(),
        host_total / 1e3,
        layer_total / 1e3
    ));
    let joined: String = reports.iter().map(|r| report_digest(r)).collect();
    (out, sha256_hex(joined.as_bytes()))
}

/// Job documents the traced service pass submits: the workload's own jobs
/// for `service`, otherwise the sampled episodes as mission jobs.
fn service_specs(workload: Workload, seed: u64, scale: Scale) -> Vec<(String, String)> {
    match workload {
        Workload::Service => service_indices(scale)
            .map(|i| (service::cold_spec(seed, i), service::warm_spec(seed, i)))
            .collect(),
        _ => sample_configs(workload, seed, scale)
            .into_iter()
            .map(|config| {
                let body = JobSpec::Mission {
                    config: Box::new(config),
                }
                .to_json()
                .to_string_compact();
                (body.clone(), body)
            })
            .collect(),
    }
}

/// The traced run of `workload`: every per-layer metric.
pub fn run(workload: Workload, seed: u64, scale: Scale) -> Outcome {
    let (mut out, sim_digest) = simulation_layers(workload, seed, scale);
    let (sweep_out, sweep_digest) = sweep::traced_pass(seed, scale);
    out.absorb(sweep_out);
    // The service workload's attribution is its warm job path; the others'
    // is the simulation walk.
    out.absorb(service::traced_pass(
        &service_specs(workload, seed, scale),
        workload == Workload::Service,
    ));
    out.note(format!("sim_digest {sim_digest}"));
    out.note(format!("sweep_digest {sweep_digest}"));
    out
}
