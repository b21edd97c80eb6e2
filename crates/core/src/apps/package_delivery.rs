//! The Package Delivery application.
//!
//! The MAV builds an occupancy map of its surroundings, plans a collision-free
//! path to an arbitrary delivery point, smooths it, follows it while
//! continuously updating the map and re-planning whenever new obstacles
//! obstruct the trajectory, delivers, and flies back to its origin.

use crate::context::{FlightOutcome, MissionContext};
use crate::qof::{MissionFailure, MissionReport};
use mav_compute::KernelId;
use mav_planning::{PathSmoother, PlannerKind, SmootherConfig};
use mav_types::Vec3;
use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Maximum re-planning episodes per leg before the mission is declared failed.
const MAX_REPLANS_PER_LEG: u32 = 12;

/// Picks a delivery destination: a collision-free point roughly
/// `fraction × extent` away from the origin.
pub fn pick_destination(ctx: &MissionContext, fraction: f64) -> Option<Vec3> {
    let mut rng = ChaCha8Rng::seed_from_u64(ctx.config.seed ^ 0xDE57);
    let extent = ctx.config.environment.extent;
    let radius = ctx.config.quadrotor.radius + 0.3;
    let altitude = ctx.config.quadrotor.cruise_altitude;
    for _ in 0..400 {
        let angle: f64 = rng.gen_range(0.0..std::f64::consts::TAU);
        let dist = extent * fraction * rng.gen_range(0.85..1.0);
        let candidate = Vec3::new(angle.cos() * dist, angle.sin() * dist, altitude);
        if !ctx.world.collides_sphere(&candidate, radius * 2.0) {
            return Some(candidate);
        }
    }
    None
}

/// Flies one leg (current position → `goal`), re-planning as needed.
/// Returns `Ok(())` on arrival or the mission-ending failure.
///
/// Under [`crate::config::ReplanMode::HoverToPlan`] (default) every
/// collision alert surfaces here as [`FlightOutcome::NeedsReplan`] and this
/// loop re-plans while the vehicle hovers. Under
/// [`crate::config::ReplanMode::PlanInMotion`] the episode's planner node
/// answers alerts in-flight through the plan topic (counting its own
/// replans), so this loop only sees `NeedsReplan` as the fallback when no
/// in-flight plan could be found.
pub fn fly_leg(ctx: &mut MissionContext, goal: Vec3) -> Result<(), MissionFailure> {
    let checker = ctx.collision_checker();
    let planner = ctx.shortest_path_planner(PlannerKind::Rrt);
    let mut replans_this_leg = 0u32;
    loop {
        if let Some(failure) = ctx.budget_failure() {
            return Err(failure);
        }
        // Perception: refresh the map before planning.
        let frame = ctx.capture_depth();
        let perception_latency = ctx.update_map(&frame).iter().map(|&(_, l)| l).sum();
        ctx.hover(perception_latency);

        // Planning: shortest path + smoothing while hovering.
        ctx.hover_while_running(&[KernelId::MotionPlanning, KernelId::PathSmoothing]);
        let start = ctx.pose().position;
        let path = match planner.plan(&ctx.map, &checker, start, goal) {
            Ok(p) => p.shortcut(&ctx.map, &checker),
            Err(e) => {
                replans_this_leg += 1;
                if replans_this_leg > MAX_REPLANS_PER_LEG {
                    return Err(MissionFailure::PlanningFailed(e.to_string()));
                }
                ctx.note_replan();
                continue;
            }
        };
        let cap = ctx.velocity_cap();
        let smoother = PathSmoother::new(SmootherConfig::new(
            cap.max(0.5),
            ctx.config.quadrotor.max_acceleration,
        ));
        let trajectory = match smoother.smooth(&path.waypoints, ctx.clock.now()) {
            Ok(t) => t,
            Err(e) => return Err(MissionFailure::PlanningFailed(e.to_string())),
        };

        // Control: follow the plan with continuous perception.
        match ctx.fly_trajectory(&trajectory) {
            FlightOutcome::Completed => {
                if ctx.pose().position.distance(&goal) < 3.0 {
                    return Ok(());
                }
                // Finished the plan but not at the goal (e.g. truncated plan):
                // plan again from where we are.
                replans_this_leg += 1;
                if replans_this_leg > MAX_REPLANS_PER_LEG {
                    return Err(MissionFailure::PlanningFailed(
                        "could not converge on the goal".to_string(),
                    ));
                }
                ctx.note_replan();
            }
            FlightOutcome::NeedsReplan => {
                replans_this_leg += 1;
                if replans_this_leg > MAX_REPLANS_PER_LEG {
                    return Err(MissionFailure::PlanningFailed(
                        "exceeded the re-planning budget".to_string(),
                    ));
                }
                ctx.note_replan();
            }
            FlightOutcome::Aborted => {
                return Err(ctx
                    .budget_failure()
                    .unwrap_or(MissionFailure::Other("flight episode aborted".to_string())));
            }
        }
    }
}

/// Runs the Package Delivery mission: origin → destination → origin.
pub fn run(mut ctx: MissionContext) -> MissionReport {
    let origin = ctx.pose().position;
    let Some(destination) = pick_destination(&ctx, 0.55) else {
        return ctx.finish(Some(MissionFailure::PlanningFailed(
            "no collision-free delivery destination found".to_string(),
        )));
    };
    // Outbound leg, package drop (hover briefly), then the return leg.
    if let Err(failure) = fly_leg(&mut ctx, destination) {
        return ctx.finish(Some(failure));
    }
    ctx.hover(mav_types::SimDuration::from_secs(2.0));
    if let Err(failure) = fly_leg(&mut ctx, origin) {
        return ctx.finish(Some(failure));
    }
    ctx.finish(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MissionConfig;
    use crate::context::MissionContext;
    use mav_compute::ApplicationId;

    fn fast_ctx(seed: u64) -> MissionContext {
        let mut cfg = MissionConfig::fast_test(ApplicationId::PackageDelivery).with_seed(seed);
        cfg.environment.extent = 30.0;
        cfg.environment.obstacle_density = 1.0;
        MissionContext::new(cfg).unwrap()
    }

    #[test]
    fn destination_is_free_and_far_from_origin() {
        let ctx = fast_ctx(5);
        let d = pick_destination(&ctx, 0.5).unwrap();
        assert!(!ctx.world.collides_sphere(&d, ctx.config.quadrotor.radius));
        assert!(d.norm_xy() > 10.0);
    }

    #[test]
    fn delivery_mission_completes_round_trip() {
        let mut cfg = MissionConfig::fast_test(ApplicationId::PackageDelivery).with_seed(9);
        cfg.environment.extent = 30.0;
        cfg.environment.obstacle_density = 1.0;
        let report = crate::apps::run_mission(cfg);
        assert!(report.success(), "delivery failed: {:?}", report.failure);
        // A round trip at >10 m each way.
        assert!(report.distance_m > 20.0);
        assert!(report.kernel_timer.invocations(KernelId::MotionPlanning) >= 2);
        assert!(report.kernel_timer.invocations(KernelId::OctomapGeneration) >= 2);
        assert!(report.hover_time_secs > 0.0);
    }
}
