//! The five MAVBench benchmark applications.
//!
//! Each application composes the perception / planning / control kernels into
//! the end-to-end closed-loop dataflow of the paper's Fig. 7 and runs it on
//! the [`crate::MissionContext`] engine, producing a [`crate::MissionReport`].

pub mod aerial_photography;
pub mod mapping;
pub mod package_delivery;
pub mod scanning;
pub mod search_rescue;

use crate::config::MissionConfig;
use crate::context::MissionContext;
use crate::qof::{MissionFailure, MissionReport};
use crate::scratch::EpisodeScratch;
use mav_compute::ApplicationId;
use std::cell::RefCell;
use std::rc::Rc;

/// Runs the benchmark application selected by `config.application` and returns
/// its mission report.
///
/// This is the single entry point used by the examples, the integration tests
/// and every experiment harness.
///
/// # Example
///
/// ```no_run
/// use mav_compute::ApplicationId;
/// use mav_core::{run_mission, MissionConfig};
///
/// let report = run_mission(MissionConfig::fast_test(ApplicationId::Scanning));
/// println!("{report}");
/// ```
pub fn run_mission(config: MissionConfig) -> MissionReport {
    run_mission_with_scratch(config, &mut EpisodeScratch::new())
}

/// [`run_mission`] with cross-episode scratch reuse: the occupancy map, the
/// point-cloud buffers and (for a repeated environment configuration) the
/// generated world are recycled from `scratch` instead of reallocated, and
/// deposited back when the mission finishes. A warm scratch is
/// bit-identical to a cold one — reuse recycles allocations, never state —
/// which the tests pin with full-report equality.
///
/// This is the per-episode engine of the Monte-Carlo reliability sweep: each
/// sweep worker holds one `EpisodeScratch` and folds its shard of episodes
/// through it.
pub fn run_mission_with_scratch(
    config: MissionConfig,
    scratch: &mut EpisodeScratch,
) -> MissionReport {
    let slot = Rc::new(RefCell::new(std::mem::take(scratch)));
    let application = config.application;
    let report = match MissionContext::with_scratch_slot(config, Rc::clone(&slot)) {
        Ok(ctx) => match application {
            ApplicationId::Scanning => scanning::run(ctx),
            ApplicationId::AerialPhotography => aerial_photography::run(ctx),
            ApplicationId::PackageDelivery => package_delivery::run(ctx),
            ApplicationId::Mapping3D => mapping::run(ctx),
            ApplicationId::SearchAndRescue => search_rescue::run(ctx),
        },
        Err(reason) => invalid_config_report(application, reason),
    };
    if let Ok(cell) = Rc::try_unwrap(slot) {
        *scratch = cell.into_inner();
    }
    report
}

fn invalid_config_report(application: ApplicationId, reason: String) -> MissionReport {
    use mav_compute::OperatingPoint;
    use mav_energy::EnergyAccount;
    use mav_runtime::KernelTimer;
    use mav_types::SimDuration;
    MissionReport::from_counters(
        application,
        OperatingPoint::reference(),
        Some(MissionFailure::Other(format!(
            "invalid configuration: {reason}"
        ))),
        SimDuration::ZERO,
        SimDuration::ZERO,
        0.0,
        0.0,
        &EnergyAccount::new(),
        100.0,
        0,
        0,
        0.0,
        0.0,
        KernelTimer::new(),
        None,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::quick_config;

    #[test]
    fn scratch_reuse_reproduces_fresh_missions_bit_for_bit() {
        // One scratch carried across every application and two different
        // world shapes: the map is reshaped, the world cache misses and
        // re-fills, the cloud buffers are reused — and every report must
        // equal the cold-scratch run_mission's, field for field.
        let mut scratch = EpisodeScratch::new();
        for &app in ApplicationId::all() {
            for (seed, extent) in [(3u64, 18.0), (5u64, 24.0)] {
                let mut cfg = quick_config(MissionConfig::fast_test(app)).with_seed(seed);
                cfg.environment.extent = extent;
                let fresh = run_mission(cfg.clone());
                let reused = run_mission_with_scratch(cfg, &mut scratch);
                assert_eq!(fresh, reused, "{app:?} seed {seed} extent {extent}");
            }
        }
    }

    #[test]
    fn repeated_config_hits_the_world_cache_and_still_matches() {
        let mut scratch = EpisodeScratch::new();
        let cfg = quick_config(MissionConfig::fast_test(ApplicationId::Scanning)).with_seed(9);
        let first = run_mission_with_scratch(cfg.clone(), &mut scratch);
        // Second run with the identical config: the cached world is cloned
        // instead of regenerated.
        let second = run_mission_with_scratch(cfg.clone(), &mut scratch);
        assert_eq!(first, second);
        assert_eq!(first, run_mission(cfg));
    }

    #[test]
    fn invalid_configuration_yields_a_failed_report() {
        let mut cfg = MissionConfig::fast_test(ApplicationId::Scanning);
        cfg.physics_dt = -1.0;
        let report = run_mission(cfg);
        assert!(!report.success());
        assert_eq!(report.application, ApplicationId::Scanning);
    }
}
