//! Property-based tests for the environment substrate.

use mav_env::{EnvironmentConfig, Obstacle, ObstacleClass, ObstacleId, RayHit, World};
use mav_types::{Aabb, Vec3};
use proptest::prelude::*;

fn arb_point(extent: f64, height: f64) -> impl Strategy<Value = Vec3> {
    (-extent..extent, -extent..extent, 0.0..height).prop_map(|(x, y, z)| Vec3::new(x, y, z))
}

/// The linear scan `World::raycast` ran before depth frames were culled:
/// every obstacle slab-tested in world order, then the world boundary.
fn linear_raycast(world: &World, origin: &Vec3, dir: &Vec3, max_range: f64) -> Option<RayHit> {
    let d = dir.normalized();
    if d == Vec3::ZERO || max_range <= 0.0 {
        return None;
    }
    let mut best: Option<RayHit> = None;
    for o in world.obstacles() {
        if let Some(t) = o.bounds.ray_intersection(origin, &d) {
            if t <= max_range && best.is_none_or(|b| t < b.distance) {
                best = Some(RayHit {
                    distance: t,
                    point: *origin + d * t,
                    obstacle: Some(o.id),
                });
            }
        }
    }
    if best.is_none() {
        if let Some(t_exit) = linear_exit_distance(world.bounds(), origin, &d) {
            if t_exit <= max_range {
                return Some(RayHit {
                    distance: t_exit,
                    point: *origin + d * t_exit,
                    obstacle: None,
                });
            }
        }
    }
    best
}

/// The boundary exit distance of the linear scan above.
fn linear_exit_distance(bounds: &Aabb, origin: &Vec3, dir: &Vec3) -> Option<f64> {
    if !bounds.contains(origin) {
        return None;
    }
    let mut t_exit = f64::INFINITY;
    for axis in 0..3 {
        let d = dir[axis];
        if d.abs() < 1e-12 {
            continue;
        }
        let boundary = if d > 0.0 {
            bounds.max[axis]
        } else {
            bounds.min[axis]
        };
        let t = (boundary - origin[axis]) / d;
        if t >= 0.0 {
            t_exit = t_exit.min(t);
        }
    }
    t_exit.is_finite().then_some(t_exit)
}

/// One ray the way a depth frame casts it: cull once, then cast among the
/// candidates.
fn culled_raycast(world: &World, origin: &Vec3, dir: &Vec3, max_range: f64) -> Option<RayHit> {
    let mut candidates = Vec::new();
    world.obstacles_within(origin, max_range, &mut candidates);
    world.raycast_among(candidates.iter().copied(), origin, dir, max_range)
}

/// Hit equality down to the bits of every float.
fn hit_bits(hit: Option<RayHit>) -> Option<(u64, [u64; 3], Option<ObstacleId>)> {
    hit.map(|h| {
        (
            h.distance.to_bits(),
            [
                h.point.x.to_bits(),
                h.point.y.to_bits(),
                h.point.z.to_bits(),
            ],
            h.obstacle,
        )
    })
}

/// A box `(centre, size)`: centres reach past the `[-20, 20]² × [0, 20]`
/// world so some boxes cross its bounds.
fn arb_box() -> impl Strategy<Value = (Vec3, Vec3)> {
    (
        (-26.0..26.0, -26.0..26.0, -3.0..23.0),
        (0.1..12.0, 0.1..12.0, 0.1..12.0),
    )
        .prop_map(|((x, y, z), (w, d, h))| (Vec3::new(x, y, z), Vec3::new(w, d, h)))
}

/// A box `(centre, size)` and its horizontal velocity `(vx, vy)`.
type Mover = ((Vec3, Vec3), (f64, f64));

/// A world of static boxes, one box repeated verbatim (same bounds, later
/// id) so equal hit distances exercise the tie-break, and moving boxes
/// stepped `steps` times.
fn random_world(
    statics: &[(Vec3, Vec3)],
    duplicate: usize,
    movers: &[Mover],
    steps: usize,
) -> World {
    let mut world = World::empty(Aabb::new(
        Vec3::new(-20.0, -20.0, 0.0),
        Vec3::new(20.0, 20.0, 20.0),
    ));
    for &(centre, size) in statics {
        world.add_box(
            Aabb::from_center_size(centre, size),
            ObstacleClass::Structure,
        );
    }
    let (centre, size) = statics[duplicate % statics.len()];
    world.add_box(Aabb::from_center_size(centre, size), ObstacleClass::Generic);
    for (i, &((centre, size), (vx, vy))) in movers.iter().enumerate() {
        world.add_obstacle(Obstacle::moving(
            ObstacleId(1000 + i as u32),
            Aabb::from_center_size(centre, size),
            Vec3::new(vx, vy, 0.0),
            ObstacleClass::Person,
        ));
    }
    for _ in 0..steps {
        world.step_dynamics(0.5);
    }
    world
}

fn small_world(seed: u64) -> World {
    EnvironmentConfig::urban_outdoor()
        .with_seed(seed)
        .generate()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Culling by `obstacles_within` and casting with `raycast_among` gives
    /// the linear scan's hit bit for bit: over random boxes (some crossing
    /// the world bounds, one duplicated), moved dynamic obstacles, origins
    /// in the open, outside the world and inside boxes, axis-aligned and
    /// random rays, and ranges one ulp either side of each hit distance.
    #[test]
    fn culled_raycast_matches_the_linear_scan(
        statics in proptest::collection::vec(arb_box(), 1..24),
        duplicate in 0usize..64,
        movers in proptest::collection::vec((arb_box(), (-4.0..4.0, -4.0..4.0)), 0..6),
        steps in 0usize..30,
        point in arb_point(24.0, 22.0),
        inside in 0u32..4,
        which in 0usize..64,
        rays in proptest::collection::vec((0.0..std::f64::consts::TAU, -1.5f64..1.5, 0.5f64..60.0), 8..24),
    ) {
        let world = random_world(&statics, duplicate, &movers, steps);
        let obstacles = world.obstacles();
        let origin = if inside == 0 {
            obstacles[which % obstacles.len()].center()
        } else {
            point
        };
        let axes = [
            Vec3::UNIT_X,
            -Vec3::UNIT_X,
            Vec3::UNIT_Y,
            -Vec3::UNIT_Y,
            Vec3::UNIT_Z,
            -Vec3::UNIT_Z,
        ];
        let mut cases: Vec<(Vec3, f64)> = axes.iter().map(|&d| (d, 30.0)).collect();
        for &(yaw, pitch, range) in &rays {
            let dir = Vec3::new(pitch.cos() * yaw.cos(), pitch.cos() * yaw.sin(), pitch.sin());
            cases.push((dir, range));
            cases.push((dir, f64::INFINITY));
        }
        for (dir, range) in cases {
            let mut ranges = vec![range];
            // Ranges straddling the hit: the hit itself, one ulp short of it
            // (the cull's boundary case) and one ulp past it.
            if let Some(hit) = linear_raycast(&world, &origin, &dir, range) {
                let t = hit.distance;
                ranges.extend([t, t.next_down(), t.next_up(), t * (1.0 - 1e-12), t * (1.0 + 1e-12)]);
            }
            for r in ranges {
                prop_assert_eq!(
                    hit_bits(culled_raycast(&world, &origin, &dir, r)),
                    hit_bits(linear_raycast(&world, &origin, &dir, r)),
                    "origin {} dir {} range {}", origin, dir, r
                );
                prop_assert_eq!(
                    hit_bits(world.raycast(&origin, &dir, r)),
                    hit_bits(linear_raycast(&world, &origin, &dir, r))
                );
            }
        }
    }

    /// The cull keeps every obstacle within range and only those (up to its
    /// 1e-9 relative slack), in world order.
    #[test]
    fn obstacles_within_keeps_world_order(
        statics in proptest::collection::vec(arb_box(), 1..24),
        origin in arb_point(24.0, 22.0),
        range in 0.0f64..40.0,
    ) {
        let world = random_world(&statics, 0, &[], 0);
        let stale = Obstacle::fixed(ObstacleId(99), Aabb::new(Vec3::ZERO, Vec3::ZERO), ObstacleClass::Generic);
        let mut kept = vec![&stale];
        world.obstacles_within(&origin, range, &mut kept);
        let expected: Vec<&Obstacle> = world
            .obstacles()
            .iter()
            .filter(|o| o.bounds.distance_to_point(&origin) <= range * (1.0 + 1e-9))
            .collect();
        prop_assert_eq!(kept, expected);
    }

    /// A point inside any obstacle must be reported as occupied, and an
    /// occupied point must have zero clearance.
    #[test]
    fn occupied_points_have_zero_clearance(seed in 0u64..32, idx in 0usize..64) {
        let world = small_world(seed);
        let obstacles = world.obstacles();
        prop_assume!(!obstacles.is_empty());
        let o = &obstacles[idx % obstacles.len()];
        let c = o.center();
        prop_assert!(world.is_occupied(&c));
        prop_assert_eq!(world.clearance(&c), 0.0);
    }

    /// Ray casting never reports a hit farther than the requested range and
    /// never reports a hit behind the origin.
    #[test]
    fn raycast_respects_range(seed in 0u64..16, p in arb_point(70.0, 25.0), yaw in 0.0..std::f64::consts::TAU, range in 1.0f64..80.0) {
        let world = small_world(seed);
        prop_assume!(world.in_bounds(&p));
        let dir = Vec3::new(yaw.cos(), yaw.sin(), 0.0);
        if let Some(hit) = world.raycast(&p, &dir, range) {
            prop_assert!(hit.distance >= 0.0);
            prop_assert!(hit.distance <= range + 1e-9);
            // The reported point is consistent with origin + dir * distance.
            let expected = p + dir * hit.distance;
            prop_assert!(expected.distance(&hit.point) < 1e-6);
        }
    }

    /// A segment reported free never passes through an obstacle centre cell.
    #[test]
    fn free_segments_avoid_obstacle_centres(seed in 0u64..16, a in arb_point(60.0, 20.0), b in arb_point(60.0, 20.0)) {
        let world = small_world(seed);
        prop_assume!(world.in_bounds(&a) && world.in_bounds(&b));
        if world.segment_free(&a, &b, 0.3) {
            // Sample the segment densely: none of the samples may be occupied.
            for i in 0..=50 {
                let t = i as f64 / 50.0;
                let p = a.lerp(&b, t);
                prop_assert!(!world.is_occupied(&p), "free segment passes through an obstacle at {p}");
            }
        }
    }

    /// Obstacle density is always within [0, 1] and monotone in the sense that
    /// a probe entirely inside an obstacle reports a strictly positive value.
    #[test]
    fn density_probe_is_bounded(seed in 0u64..16, p in arb_point(60.0, 20.0), radius in 0.5f64..10.0) {
        let world = small_world(seed);
        let d = world.obstacle_density_near(&p, radius);
        prop_assert!((0.0..=1.0).contains(&d));
    }

    /// Stepping dynamics never moves obstacles outside the world bounds.
    #[test]
    fn dynamics_stay_in_bounds(seed in 0u64..16, steps in 1usize..60) {
        let mut world = EnvironmentConfig::default()
            .with_dynamic_obstacles(5, 3.0)
            .with_seed(seed)
            .generate();
        let bounds: Aabb = *world.bounds();
        for _ in 0..steps {
            world.step_dynamics(0.5);
        }
        for o in world.obstacles() {
            if o.is_dynamic() {
                prop_assert!(o.bounds.min.x >= bounds.min.x - 1e-6);
                prop_assert!(o.bounds.max.x <= bounds.max.x + 1e-6);
                prop_assert!(o.bounds.min.y >= bounds.min.y - 1e-6);
                prop_assert!(o.bounds.max.y <= bounds.max.y + 1e-6);
            }
        }
    }
}
