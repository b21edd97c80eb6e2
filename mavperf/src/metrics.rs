//! The declared metrics and the result line.
//!
//! [`END_TO_END`] and [`PER_LAYER`] are the benchmark's metric set; the
//! tests check that `BENCHMARK.json` declares exactly these, with the same
//! units, and that every run emits all of them.

use mav_types::Json;
use std::collections::BTreeMap;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The spelling used in `BENCHMARK.json`.
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One declared metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Metric name, `[A-Za-z0-9_.-]+`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Which way it improves.
    pub better: Better,
}

const fn m(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better }
}

use Better::{Higher, Lower};

/// The end-to-end metrics every timed run reports in its result line, each
/// with a regression bound in `BENCHMARK.json` (host time unless noted).
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s", Lower),
    m("peak_rss_mb", "MB", Lower),
    m("episodes_per_s", "1/s", Higher),
    m("mission_ms_min.scanning", "ms", Lower),
    m("mission_ms_min.aerial_photography", "ms", Lower),
    m("mission_ms_min.package_delivery", "ms", Lower),
    m("mission_ms_min.mapping_3d", "ms", Lower),
    m("mission_ms_min.search_rescue", "ms", Lower),
    m("job_ms_p50.cold", "ms", Lower),
];

/// End-to-end metrics every timed run prints on a `#` line but does not
/// gate. Each service job is a chain of thread hand-offs, so the service's
/// throughput, warm latency and tail latency follow how often the host
/// deschedules the guest: across runs of the same code on one shared
/// 2-vCPU host, with CPU steal between 1% and 19%, they moved by up to 2x
/// (throughput), 1.4x (warm p50) and 7x (p99), beyond any bound the result
/// line may carry. The per-application median mission times follow how
/// much of a run falls into a CPU's slow stretches: their middle half over
/// ten runs of the same code spread by 25% to 30% of the median; the
/// gated `mission_ms_min.*` measure the same episodes.
pub const REPORTED: &[MetricDef] = &[
    m("mission_ms_p50.scanning", "ms", Lower),
    m("mission_ms_p50.aerial_photography", "ms", Lower),
    m("mission_ms_p50.package_delivery", "ms", Lower),
    m("mission_ms_p50.mapping_3d", "ms", Lower),
    m("mission_ms_p50.search_rescue", "ms", Lower),
    m("jobs_per_s.cold", "1/s", Higher),
    m("jobs_per_s.warm", "1/s", Higher),
    m("job_ms_p99.cold", "ms", Lower),
    m("job_ms_p50.warm", "ms", Lower),
    m("job_ms_p99.warm", "ms", Lower),
];

/// The per-layer metrics every traced run prints.
pub const PER_LAYER: &[MetricDef] = &[
    m("octomap.insert_us", "us", Lower),
    m("octomap.insert_ns_per_point", "ns", Lower),
    m("octomap.inserts_per_episode", "count", Lower),
    m("octomap.known_voxels", "count", Lower),
    m("octomap.parallel_speedup", "ratio", Higher),
    m("pointcloud.convert_us", "us", Lower),
    m("pointcloud.kept_ratio", "ratio", Lower),
    m("camera.capture_us", "us", Lower),
    m("camera.frames_per_episode", "count", Lower),
    m("collision.check_us", "us", Lower),
    m("collision.checks_per_episode", "count", Lower),
    m("collision.free_ratio", "ratio", Higher),
    m("planner.plan_us", "us", Lower),
    m("planner.success_ratio", "ratio", Higher),
    m("planner.shortcut_us", "us", Lower),
    m("smoother.smooth_us", "us", Lower),
    m("frontier.find_us", "us", Lower),
    m("frontier.calls_per_episode", "count", Lower),
    m("frontier.frontiers_per_call", "count", Higher),
    m("detection.detect_us", "us", Lower),
    m("tracking.update_us", "us", Lower),
    m("executor.round_us", "us", Lower),
    m("executor.rounds_per_episode", "count", Lower),
    m("context.advance_us_per_sim_s", "us/sim_s", Lower),
    m("context.physics_steps_per_episode", "count", Lower),
    m("context.alloc_bytes_per_sim_s", "B/sim_s", Lower),
    m("env.generate_us", "us", Lower),
    m("scratch.allocs_per_episode", "count", Lower),
    m("scratch.alloc_bytes_per_episode", "B", Lower),
    m("sweep.worker_busy_share", "ratio", Higher),
    m("sweep.shard_tail_ms", "ms", Lower),
    m("spec.parse_us", "us", Lower),
    m("spec.cache_key_us", "us", Lower),
    m("json.parse_us_per_kb", "us/KiB", Lower),
    m("json.serialize_us_per_kb", "us/KiB", Lower),
    m("http.overhead_us", "us", Lower),
    m("service.handle_us", "us", Lower),
    m("service.cache_hit_ratio.cold", "ratio", Lower),
    m("service.cache_hit_ratio.warm", "ratio", Higher),
    m("service.queue_wait_ms_p50", "ms", Lower),
    m("service.rejected_429", "count", Lower),
    m("unattributed_share", "ratio", Lower),
    m("trace_overhead_share", "ratio", Lower),
    m("sim.success_rate", "ratio", Higher),
    m("sim.collision_rate", "ratio", Lower),
    m("sim.mission_s_p50", "sim_s", Lower),
    m("sim.energy_kj_p50", "kJ", Lower),
];

/// What one run produced: operation counts, check failures and metrics.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (episodes, jobs, checks).
    pub attempted: u64,
    /// Operations that failed or whose output did not check out.
    pub failed: u64,
    /// Why each failed operation failed (first few kept).
    pub failures: Vec<String>,
    /// Metric values by name.
    pub values: BTreeMap<String, f64>,
    /// Human-readable lines printed before the result line.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records a metric value.
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    /// Counts one attempted operation that succeeded (`ok`) or failed
    /// for `reason`.
    pub fn check(&mut self, ok: bool, reason: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(reason());
        }
    }

    /// Counts an already-attempted operation as failed.
    pub fn fail(&mut self, reason: String) {
        self.failed += 1;
        if self.failures.len() < 20 {
            self.failures.push(reason);
        }
    }

    /// Adds a human-readable note line.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Folds another phase's outcome into this one.
    pub fn absorb(&mut self, other: Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for reason in other.failures {
            if self.failures.len() < 20 {
                self.failures.push(reason);
            }
        }
        self.values.extend(other.values);
        self.notes.extend(other.notes);
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and every metric of `defs` with its unit. A declared metric
    /// the run did not produce, or a non-finite value, makes the run
    /// incorrect.
    pub fn result_line(&self, defs: &[MetricDef]) -> String {
        let mut metrics = Json::object();
        let mut complete = true;
        for def in defs {
            let value = match self.values.get(def.name) {
                Some(v) if v.is_finite() => *v,
                _ => {
                    complete = false;
                    0.0
                }
            };
            metrics = metrics.field(
                def.name,
                Json::object().field("value", value).field("unit", def.unit),
            );
        }
        Json::object()
            .field(
                "correct",
                complete && self.failed == 0 && self.attempted > 0,
            )
            .field("attempted", self.attempted.max(1))
            .field("failed", self.failed)
            .field("metrics", metrics)
            .to_string_compact()
    }
}
