//! `mavperf` — the MAVBench-RS benchmark.
//!
//! One command runs three phases — a Monte-Carlo reliability `sweep`, the
//! five applications as single `missions`, and the `service` job API — and
//! prints every end-to-end metric by name and unit, with the number of
//! operations attempted and failed. The selected workload's phase gets a
//! double share of the measured time; the other two run at their single
//! share so that every run reports the full metric set. A separate traced run (`--trace 1`,
//! its own binary with a counting allocator) times calls into each layer's
//! public entry points and reports the per-layer metrics.
//!
//! The benchmark sits outside the simulator: it only calls public functions
//! of the workspace crates and never changes their code.

// The benchmark's job is reading the host clock around calls into the
// simulator; no wall time flows into any simulated input or result (the
// digests and sim.* metrics are checked to repeat exactly).
#![allow(clippy::disallowed_methods)]

pub mod affinity;
pub mod alloc;
pub mod client;
pub mod metrics;
pub mod missions;
pub mod service;
pub mod stats;
pub mod suite;
pub mod sweep;
pub mod trace;

use std::time::{Duration, Instant};

/// The three workloads. Each names the phase whose share of the run is doubled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Package Delivery Monte-Carlo episodes on the sharded sweep engine.
    Sweep,
    /// The five applications at their paper defaults, round-robin, one thread.
    Missions,
    /// Closed-loop clients driving a fresh in-process job server.
    Service,
}

impl Workload {
    /// Every workload, in run order.
    pub const ALL: [Workload; 3] = [Workload::Sweep, Workload::Missions, Workload::Service];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Sweep => "sweep",
            Workload::Missions => "missions",
            Workload::Service => "service",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How large a run is. `Full` is the benchmark; `Smoke` shrinks every
/// phase so the benchmark's own tests can run all of it in seconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The benchmark at its full size.
    Full,
    /// Minimal sizes for the smoke test.
    Smoke,
}

/// Worker threads of the host: the sweep pool size and the client count.
pub fn host_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// SplitMix64: derives independent input seeds from the workload seed.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A deterministic permutation of `0..n` drawn from `seed`.
pub fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    let mut state = seed;
    for i in (1..n).rev() {
        state = splitmix64(state);
        order.swap(i, (state % (i as u64 + 1)) as usize);
    }
    order
}

/// Runs `f` and returns its result with the elapsed host time.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// Host time of `f` in microseconds.
pub fn micros<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let (out, elapsed) = timed(f);
    (out, elapsed.as_secs_f64() * 1e6)
}
