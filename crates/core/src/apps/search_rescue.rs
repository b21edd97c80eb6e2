//! The Search and Rescue application.
//!
//! The MAV explores an unknown disaster area exactly like 3D Mapping, but the
//! perception stage additionally runs an object-detection kernel every
//! iteration; the mission ends successfully as soon as a person has been
//! found (or unsuccessfully when exploration is exhausted without a find).
//! The flight episodes ride on the shared [`explore`] loop, so the PR 3
//! replanning modes (hover-to-plan vs plan-in-motion over the latched plan
//! topic) apply here unchanged.

use crate::apps::mapping::{explore, MappingGoal};
use crate::context::MissionContext;
use crate::qof::{MissionFailure, MissionReport};
use mav_compute::KernelId;
use mav_env::ObstacleClass;
use mav_perception::{DetectorConfig, MultiTargetTracker, ObjectDetector};

/// Sentinel used to break out of the exploration loop when a person is found.
/// Exploration's hook reports "failures" to stop; a successful find is mapped
/// back to success by [`run`].
const FOUND_SENTINEL: &str = "__person_found__";

/// Runs the Search and Rescue mission.
pub fn run(mut ctx: MissionContext) -> MissionReport {
    let mut detector = ObjectDetector::new(DetectorConfig {
        seed: ctx.config.seed,
        ..Default::default()
    });
    let mut tracker = MultiTargetTracker::default();
    let goal = MappingGoal {
        target_volume: f64::INFINITY,
        max_iterations: 16,
    };
    let failure = explore(&mut ctx, goal, |ctx| {
        // Perception hook: charge and run object detection on this iteration's
        // viewpoint; a positive person detection ends the mission. All person
        // detections of the frame feed the multi-target tracker (real
        // disaster sites hold more than one person), but the mission-ending
        // decision stays "any person seen this frame" — identical to the
        // historical single-detection path, which drew the same detector RNG.
        let op = ctx.node_op_for_kernel(KernelId::ObjectDetection);
        let latency = ctx.charge_kernel(KernelId::ObjectDetection, op);
        ctx.hover(latency);
        let pose = ctx.pose();
        let people: Vec<_> = detector
            .detect(&ctx.world, &pose)
            .into_iter()
            .filter(|d| d.class == ObstacleClass::Person)
            .collect();
        tracker.update(&people, latency);
        if !people.is_empty() {
            ctx.note_detection();
            return Some(MissionFailure::Other(FOUND_SENTINEL.to_string()));
        }
        None
    });
    let failure = match failure {
        Some(MissionFailure::Other(s)) if s == FOUND_SENTINEL => None,
        Some(other) => Some(other),
        // Exploration exhausted without finding anyone.
        None => Some(MissionFailure::Other(
            "search exhausted without finding a person".to_string(),
        )),
    };
    ctx.finish(failure)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MissionConfig;
    use mav_compute::ApplicationId;

    #[test]
    fn search_and_rescue_runs_detection_and_exploration() {
        let mut cfg = MissionConfig::fast_test(ApplicationId::SearchAndRescue).with_seed(6);
        cfg.environment.extent = 25.0;
        cfg.environment.people = 6; // plenty of targets in a small area
        let report = crate::apps::run_mission(cfg);
        // The mission must exercise both detection and frontier exploration.
        assert!(report.kernel_timer.invocations(KernelId::ObjectDetection) >= 1);
        assert!(report.kernel_timer.invocations(KernelId::OctomapGeneration) >= 1);
        // With six people scattered in a 50 m square the search normally
        // succeeds; if it does not, the failure must be the explicit
        // "exhausted" outcome rather than a crash/collision.
        if !report.success() {
            match report.failure.as_ref().unwrap() {
                MissionFailure::Other(msg) => assert!(msg.contains("exhausted")),
                MissionFailure::Timeout | MissionFailure::BatteryExhausted => {}
                other => panic!("unexpected failure {other:?}"),
            }
        } else {
            assert!(report.detections >= 1);
        }
    }
}
