//! The 3D Mapping application.
//!
//! The MAV explores an unknown polygonal environment by repeatedly sampling
//! its occupancy map for frontiers (free voxels bordering unknown space),
//! flying to the most promising one, and integrating new depth frames until
//! either the exploration target is met or no frontiers remain.

use crate::context::{FlightOutcome, MissionContext};
use crate::qof::{MissionFailure, MissionReport};
use mav_compute::KernelId;
use mav_planning::{FrontierConfig, FrontierExplorer, PathSmoother, PlannerKind, SmootherConfig};

/// Parameters of one exploration run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MappingGoal {
    /// Stop once this many cubic metres of space have been mapped.
    pub target_volume: f64,
    /// Hard cap on exploration iterations (frontier selections).
    pub max_iterations: u32,
}

impl Default for MappingGoal {
    fn default() -> Self {
        MappingGoal {
            target_volume: 3000.0,
            max_iterations: 14,
        }
    }
}

/// Runs one exploration mission with an explicit goal. Shared by 3D Mapping
/// and (with a detection hook) Search and Rescue.
pub fn explore(
    ctx: &mut MissionContext,
    goal: MappingGoal,
    mut per_iteration: impl FnMut(&mut MissionContext) -> Option<MissionFailure>,
) -> Option<MissionFailure> {
    let checker = ctx.collision_checker();
    let planner = ctx.shortest_path_planner(PlannerKind::Rrt);
    let explorer = FrontierExplorer::new(FrontierConfig {
        min_altitude: 0.5,
        max_altitude: (ctx.config.environment.height - 1.0).min(10.0),
        ..FrontierConfig::default()
    });
    let mut consecutive_failures = 0u32;
    for _iteration in 0..goal.max_iterations {
        if let Some(failure) = ctx.budget_failure() {
            return Some(failure);
        }
        // Perception: integrate a fresh frame.
        let frame = ctx.capture_depth();
        let latency = ctx.update_map(&frame).iter().map(|&(_, l)| l).sum();
        ctx.hover(latency);

        // Application-specific hook (e.g. object detection for SAR). A
        // returned value stops exploration and is propagated to the caller;
        // `None` continues exploring.
        if let Some(outcome) = per_iteration(ctx) {
            return Some(outcome);
        }

        if ctx.map.mapped_volume() >= goal.target_volume {
            return None;
        }

        // Planning: pick the next frontier and plan to it while hovering.
        ctx.hover_while_running(&[KernelId::FrontierExploration, KernelId::PathSmoothing]);
        let position = ctx.pose().position;
        let plan = match explorer.plan_exploration(&ctx.map, &checker, &planner, position) {
            Ok((_frontier, path)) => path.shortcut(&ctx.map, &checker),
            Err(_) => {
                // No reachable frontier: either the map is complete or the
                // explorer is boxed in. A couple of retries with fresh frames
                // distinguishes the two.
                consecutive_failures += 1;
                if consecutive_failures >= 3 {
                    return None; // treat as exploration complete
                }
                continue;
            }
        };
        consecutive_failures = 0;
        let cap = ctx.velocity_cap();
        let smoother = PathSmoother::new(SmootherConfig::new(
            cap.max(0.5),
            ctx.config.quadrotor.max_acceleration,
        ));
        let trajectory = match smoother.smooth(&plan.waypoints, ctx.clock.now()) {
            Ok(t) => t,
            Err(e) => return Some(MissionFailure::PlanningFailed(e.to_string())),
        };

        // Control: fly towards the frontier; a re-plan request simply moves on
        // to the next iteration (the map has changed anyway). Under
        // ReplanMode::PlanInMotion the episode replans towards the frontier
        // in-flight over the plan topic and only surfaces NeedsReplan as a
        // fallback when no in-flight plan could be found.
        match ctx.fly_trajectory(&trajectory) {
            FlightOutcome::Completed => {}
            FlightOutcome::NeedsReplan => ctx.note_replan(),
            FlightOutcome::Aborted => {
                return Some(ctx.budget_failure().unwrap_or(MissionFailure::Other(
                    "exploration flight aborted".to_string(),
                )));
            }
        }
    }
    None
}

/// Runs the 3D Mapping mission.
pub fn run(mut ctx: MissionContext) -> MissionReport {
    let goal = MappingGoal::default();
    let failure = explore(&mut ctx, goal, |_| None);
    ctx.finish(failure)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MissionConfig;
    use mav_compute::ApplicationId;

    #[test]
    fn mapping_mission_maps_a_nontrivial_volume() {
        let mut cfg = MissionConfig::fast_test(ApplicationId::Mapping3D).with_seed(4);
        cfg.environment.extent = 25.0;
        let report = crate::apps::run_mission(cfg);
        assert!(report.success(), "mapping failed: {:?}", report.failure);
        assert!(
            report.mapped_volume > 50.0,
            "mapped only {} m3",
            report.mapped_volume
        );
        assert!(
            report
                .kernel_timer
                .invocations(KernelId::FrontierExploration)
                >= 1
        );
        assert!(report.kernel_timer.invocations(KernelId::OctomapGeneration) >= 2);
        assert!(report.hover_time_secs > 1.0);
    }

    #[test]
    fn exploration_stops_at_the_volume_target() {
        let mut cfg = MissionConfig::fast_test(ApplicationId::Mapping3D).with_seed(4);
        cfg.environment.extent = 25.0;
        let mut ctx = crate::context::MissionContext::new(cfg).unwrap();
        let tiny_goal = MappingGoal {
            target_volume: 10.0,
            max_iterations: 10,
        };
        let failure = explore(&mut ctx, tiny_goal, |_| None);
        assert!(failure.is_none());
        assert!(ctx.map.mapped_volume() >= 10.0);
    }
}
