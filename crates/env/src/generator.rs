//! Procedural environment generation.
//!
//! The paper varies environments through Unreal maps plus knobs for static
//! obstacle density and dynamic obstacle speed. This module provides the same
//! knobs procedurally and deterministically (seeded), plus presets mirroring
//! the scenarios the five workloads run in: open farmland for Scanning, an
//! urban outdoor map for Package Delivery, an indoor space with door-width
//! openings for the OctoMap-resolution case study, a collapsed-building-like
//! rubble field for Search and Rescue, and a park with a moving subject for
//! Aerial Photography.

use crate::obstacle::{Obstacle, ObstacleClass, ObstacleId};
use crate::world::World;
use mav_types::{Aabb, Vec3};
use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// Knobs controlling procedural world generation.
///
/// # Example
///
/// ```
/// use mav_env::EnvironmentConfig;
/// let world = EnvironmentConfig::urban_outdoor().with_seed(7).generate();
/// assert!(world.obstacle_count() > 10);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EnvironmentConfig {
    /// Descriptive name copied into the generated [`World`].
    pub name: String,
    /// Horizontal half-extent of the world in metres (the world spans
    /// `[-extent, extent]` in x and y).
    pub extent: f64,
    /// Height of the world in metres (z spans `[0, height]`).
    pub height: f64,
    /// Number of static obstacles per 1000 m² of ground area.
    pub obstacle_density: f64,
    /// Static obstacle footprint range `[min, max]` in metres.
    pub obstacle_size: (f64, f64),
    /// Static obstacle height range `[min, max]` in metres.
    pub obstacle_height: (f64, f64),
    /// Number of dynamic obstacles.
    pub dynamic_obstacles: usize,
    /// Speed of dynamic obstacles, metres per second.
    pub dynamic_speed: f64,
    /// Number of person-class obstacles scattered in the world (targets for
    /// search-and-rescue).
    pub people: usize,
    /// When `true`, an indoor structure (rooms with door-width openings) is
    /// built around the world origin. Door width follows the paper's 0.82 m
    /// average door.
    pub indoor_structure: bool,
    /// Width of indoor door openings in metres.
    pub door_width: f64,
    /// Whether to include a dynamic photography subject.
    pub photography_subject: bool,
    /// RNG seed for reproducible generation.
    pub seed: u64,
    /// Radius around the origin kept free of obstacles so the drone always has
    /// a valid spawn location, metres.
    pub spawn_clearance: f64,
}

impl Default for EnvironmentConfig {
    fn default() -> Self {
        EnvironmentConfig {
            name: "default".to_string(),
            extent: 60.0,
            height: 25.0,
            obstacle_density: 2.0,
            obstacle_size: (1.0, 6.0),
            obstacle_height: (2.0, 12.0),
            dynamic_obstacles: 0,
            dynamic_speed: 1.0,
            people: 0,
            indoor_structure: false,
            door_width: 0.82,
            photography_subject: false,
            seed: 42,
            spawn_clearance: 6.0,
        }
    }
}

impl mav_types::ToJson for EnvironmentConfig {
    fn to_json(&self) -> mav_types::Json {
        mav_types::Json::object()
            .field("name", self.name.as_str())
            .field("extent", self.extent)
            .field("height", self.height)
            .field("obstacle_density", self.obstacle_density)
            .field("obstacle_size", self.obstacle_size)
            .field("obstacle_height", self.obstacle_height)
            .field("dynamic_obstacles", self.dynamic_obstacles)
            .field("dynamic_speed", self.dynamic_speed)
            .field("people", self.people)
            .field("indoor_structure", self.indoor_structure)
            .field("door_width", self.door_width)
            .field("photography_subject", self.photography_subject)
            .field("seed", self.seed)
            .field("spawn_clearance", self.spawn_clearance)
    }
}

impl mav_types::FromJson for EnvironmentConfig {
    /// Reads an environment description; omitted fields keep the
    /// [`Default`] values, so sparse wire specs only name what they change.
    fn from_json(json: &mav_types::Json) -> Result<Self, String> {
        json.check_fields(&[
            "name",
            "extent",
            "height",
            "obstacle_density",
            "obstacle_size",
            "obstacle_height",
            "dynamic_obstacles",
            "dynamic_speed",
            "people",
            "indoor_structure",
            "door_width",
            "photography_subject",
            "seed",
            "spawn_clearance",
        ])?;
        let base = EnvironmentConfig::default();
        Ok(EnvironmentConfig {
            name: json.parse_field_or("name", base.name)?,
            extent: json.parse_field_or("extent", base.extent)?,
            height: json.parse_field_or("height", base.height)?,
            obstacle_density: json.parse_field_or("obstacle_density", base.obstacle_density)?,
            obstacle_size: json.parse_field_or("obstacle_size", base.obstacle_size)?,
            obstacle_height: json.parse_field_or("obstacle_height", base.obstacle_height)?,
            dynamic_obstacles: json.parse_field_or("dynamic_obstacles", base.dynamic_obstacles)?,
            dynamic_speed: json.parse_field_or("dynamic_speed", base.dynamic_speed)?,
            people: json.parse_field_or("people", base.people)?,
            indoor_structure: json.parse_field_or("indoor_structure", base.indoor_structure)?,
            door_width: json.parse_field_or("door_width", base.door_width)?,
            photography_subject: json
                .parse_field_or("photography_subject", base.photography_subject)?,
            seed: json.parse_field_or("seed", base.seed)?,
            spawn_clearance: json.parse_field_or("spawn_clearance", base.spawn_clearance)?,
        })
    }
}

impl EnvironmentConfig {
    /// Open farmland: essentially obstacle-free, large area. Used by the
    /// Scanning workload.
    pub fn open_field() -> Self {
        EnvironmentConfig {
            name: "open-field".to_string(),
            extent: 120.0,
            height: 40.0,
            obstacle_density: 0.05,
            obstacle_size: (1.0, 3.0),
            obstacle_height: (1.0, 4.0),
            ..Default::default()
        }
    }

    /// Urban outdoor map with buildings: the Package Delivery environment.
    pub fn urban_outdoor() -> Self {
        EnvironmentConfig {
            name: "urban-outdoor".to_string(),
            extent: 80.0,
            height: 30.0,
            obstacle_density: 3.0,
            obstacle_size: (3.0, 10.0),
            obstacle_height: (5.0, 20.0),
            ..Default::default()
        }
    }

    /// Mixed indoor/outdoor map with door-width openings: the 3D Mapping and
    /// OctoMap-resolution case-study environment.
    pub fn indoor_outdoor() -> Self {
        EnvironmentConfig {
            name: "indoor-outdoor".to_string(),
            extent: 50.0,
            height: 15.0,
            obstacle_density: 1.5,
            obstacle_size: (2.0, 6.0),
            obstacle_height: (2.0, 6.0),
            indoor_structure: true,
            ..Default::default()
        }
    }

    /// Rubble-strewn disaster area with people to find: Search and Rescue.
    pub fn disaster_site() -> Self {
        EnvironmentConfig {
            name: "disaster-site".to_string(),
            extent: 60.0,
            height: 20.0,
            obstacle_density: 4.0,
            obstacle_size: (1.0, 5.0),
            obstacle_height: (1.0, 6.0),
            people: 3,
            indoor_structure: true,
            ..Default::default()
        }
    }

    /// Park with a moving subject: Aerial Photography.
    pub fn park_with_subject() -> Self {
        EnvironmentConfig {
            name: "park".to_string(),
            extent: 70.0,
            height: 25.0,
            obstacle_density: 0.8,
            obstacle_size: (1.0, 4.0),
            obstacle_height: (2.0, 8.0),
            photography_subject: true,
            dynamic_speed: 2.0,
            ..Default::default()
        }
    }

    /// Sets the RNG seed (builder style).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the static obstacle density in obstacles per 1000 m² (builder
    /// style).
    pub fn with_obstacle_density(mut self, density: f64) -> Self {
        self.obstacle_density = density.max(0.0);
        self
    }

    /// Sets the number and speed of dynamic obstacles (builder style).
    pub fn with_dynamic_obstacles(mut self, count: usize, speed: f64) -> Self {
        self.dynamic_obstacles = count;
        self.dynamic_speed = speed.max(0.0);
        self
    }

    /// Validates the world dimensions: `extent` and `height` must be finite
    /// and positive, and so must both bounds of the `obstacle_size` and
    /// `obstacle_height` ranges, with `min <= max` (the generator samples
    /// them as inclusive ranges, so `min == max` is a fixed size). The world
    /// may hold at most [`Self::MAX_OBSTACLES`] obstacles, counting the
    /// density's static clutter, people, dynamic obstacles, the indoor walls
    /// and the photography subject.
    ///
    /// # Errors
    ///
    /// Returns a descriptive message for the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        for (name, value) in [("extent", self.extent), ("height", self.height)] {
            if !(value.is_finite() && value > 0.0) {
                return Err(format!(
                    "environment.{name} must be finite and positive, got {value}"
                ));
            }
        }
        for (name, (min, max)) in [
            ("obstacle_size", self.obstacle_size),
            ("obstacle_height", self.obstacle_height),
        ] {
            if !(min.is_finite() && max.is_finite() && min > 0.0 && min <= max) {
                return Err(format!(
                    "environment.{name} must be a finite, positive [min, max] range \
                     with min <= max, got [{min}, {max}]"
                ));
            }
        }
        let fixed = INDOOR_WALLS * usize::from(self.indoor_structure)
            + usize::from(self.photography_subject);
        let total = self.static_obstacle_count()
            + self.people as f64
            + self.dynamic_obstacles as f64
            + fixed as f64;
        if total.is_nan() || total > Self::MAX_OBSTACLES as f64 {
            return Err(format!(
                "environment holds {total} obstacles, more than the cap of {}: \
                 obstacle_density per 1000 m² over the (2·extent)² ground, plus \
                 people, dynamic_obstacles, the indoor walls and the subject",
                Self::MAX_OBSTACLES
            ));
        }
        Ok(())
    }

    /// Most obstacles a valid configuration may place. World memory, every
    /// collision query and every depth-frame cull grow with the count; the
    /// presets stay far below it (urban_outdoor places 77).
    pub const MAX_OBSTACLES: usize = 10_000;

    /// Number of static clutter obstacles `generate` aims to place:
    /// `obstacle_density` per 1000 m² of the `(2·extent)²` ground area,
    /// rounded.
    fn static_obstacle_count(&self) -> f64 {
        let ground_area = (2.0 * self.extent) * (2.0 * self.extent);
        ((ground_area / 1000.0) * self.obstacle_density).round()
    }

    /// Generates the world described by this configuration.
    pub fn generate(&self) -> World {
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed);
        let bounds = Aabb::new(
            Vec3::new(-self.extent, -self.extent, 0.0),
            Vec3::new(self.extent, self.extent, self.height),
        );
        let mut obstacles = Vec::new();
        let mut next_id = 0u32;
        let push = |obstacles: &mut Vec<Obstacle>, o: Obstacle| {
            obstacles.push(o);
        };

        // Static clutter driven by the density knob.
        let count = self.static_obstacle_count() as usize;
        let mut placed = 0usize;
        let mut attempts = 0usize;
        while placed < count && attempts < count * 20 + 100 {
            attempts += 1;
            let x = rng.gen_range(-self.extent..self.extent);
            let y = rng.gen_range(-self.extent..self.extent);
            if (x * x + y * y).sqrt() < self.spawn_clearance {
                continue;
            }
            let w = rng.gen_range(self.obstacle_size.0..=self.obstacle_size.1);
            let d = rng.gen_range(self.obstacle_size.0..=self.obstacle_size.1);
            let h = rng.gen_range(self.obstacle_height.0..=self.obstacle_height.1);
            let center = Vec3::new(x, y, h / 2.0);
            let class = if rng.gen_bool(0.3) {
                ObstacleClass::Vegetation
            } else {
                ObstacleClass::Structure
            };
            push(
                &mut obstacles,
                Obstacle::fixed(
                    ObstacleId(next_id),
                    Aabb::from_center_size(center, Vec3::new(w, d, h)),
                    class,
                ),
            );
            next_id += 1;
            placed += 1;
        }

        // Indoor structure: two rooms connected by a door-width opening,
        // placed away from the spawn point.
        if self.indoor_structure {
            let ox = self.extent * 0.35;
            let oy = 0.0;
            let room = 12.0;
            let wall_t = 0.4;
            let wall_h = 3.0;
            let door = self.door_width;
            // Outer walls of a room spanning [ox, ox+2*room] x [-room, room].
            let walls = indoor_walls(ox, oy, room, wall_t, wall_h, door);
            for w in walls {
                push(
                    &mut obstacles,
                    Obstacle::fixed(ObstacleId(next_id), w, ObstacleClass::Structure),
                );
                next_id += 1;
            }
        }

        // People (static, person-class) for search and rescue.
        for _ in 0..self.people {
            let x = rng.gen_range(-self.extent * 0.8..self.extent * 0.8);
            let y = rng.gen_range(-self.extent * 0.8..self.extent * 0.8);
            push(
                &mut obstacles,
                Obstacle::fixed(
                    ObstacleId(next_id),
                    Aabb::from_center_size(Vec3::new(x, y, 0.9), Vec3::new(0.6, 0.6, 1.8)),
                    ObstacleClass::Person,
                ),
            );
            next_id += 1;
        }

        // Dynamic obstacles.
        for _ in 0..self.dynamic_obstacles {
            let x = rng.gen_range(-self.extent * 0.5..self.extent * 0.5);
            let y = rng.gen_range(-self.extent * 0.5..self.extent * 0.5);
            let heading: f64 = rng.gen_range(0.0..std::f64::consts::TAU);
            let vel = Vec3::new(heading.cos(), heading.sin(), 0.0) * self.dynamic_speed;
            push(
                &mut obstacles,
                Obstacle::moving(
                    ObstacleId(next_id),
                    Aabb::from_center_size(Vec3::new(x, y, 1.0), Vec3::new(1.0, 1.0, 2.0)),
                    vel,
                    ObstacleClass::Generic,
                ),
            );
            next_id += 1;
        }

        // Photography subject: a dynamic person-sized obstacle that wanders.
        if self.photography_subject {
            let vel = Vec3::new(self.dynamic_speed, 0.3 * self.dynamic_speed, 0.0);
            push(
                &mut obstacles,
                Obstacle::moving(
                    ObstacleId(next_id),
                    Aabb::from_center_size(Vec3::new(10.0, 0.0, 0.9), Vec3::new(0.6, 0.6, 1.8)),
                    vel,
                    ObstacleClass::PhotographySubject,
                ),
            );
        }

        World::new(self.name.clone(), bounds, obstacles)
    }
}

/// Number of boxes [`indoor_walls`] builds.
const INDOOR_WALLS: usize = 7;

/// Builds the wall boxes of a simple two-room indoor structure with a single
/// door-width opening between the rooms and one opening to the outside.
fn indoor_walls(ox: f64, oy: f64, room: f64, wall_t: f64, wall_h: f64, door: f64) -> Vec<Aabb> {
    let mut walls = Vec::new();
    let z = wall_h / 2.0;
    let x0 = ox;
    let x1 = ox + 2.0 * room;
    let y0 = oy - room;
    let y1 = oy + room;
    // North and south outer walls (full length).
    walls.push(Aabb::from_center_size(
        Vec3::new((x0 + x1) / 2.0, y1, z),
        Vec3::new(x1 - x0 + wall_t, wall_t, wall_h),
    ));
    walls.push(Aabb::from_center_size(
        Vec3::new((x0 + x1) / 2.0, y0, z),
        Vec3::new(x1 - x0 + wall_t, wall_t, wall_h),
    ));
    // East outer wall (full length).
    walls.push(Aabb::from_center_size(
        Vec3::new(x1, oy, z),
        Vec3::new(wall_t, y1 - y0 + wall_t, wall_h),
    ));
    // West outer wall with a door opening centred at oy.
    let seg = (y1 - y0 - door) / 2.0;
    walls.push(Aabb::from_center_size(
        Vec3::new(x0, y0 + seg / 2.0, z),
        Vec3::new(wall_t, seg, wall_h),
    ));
    walls.push(Aabb::from_center_size(
        Vec3::new(x0, y1 - seg / 2.0, z),
        Vec3::new(wall_t, seg, wall_h),
    ));
    // Interior dividing wall with a door opening centred at oy.
    let xm = ox + room;
    walls.push(Aabb::from_center_size(
        Vec3::new(xm, y0 + seg / 2.0, z),
        Vec3::new(wall_t, seg, wall_h),
    ));
    walls.push(Aabb::from_center_size(
        Vec3::new(xm, y1 - seg / 2.0, z),
        Vec3::new(wall_t, seg, wall_h),
    ));
    walls
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = EnvironmentConfig::urban_outdoor().with_seed(3).generate();
        let b = EnvironmentConfig::urban_outdoor().with_seed(3).generate();
        assert_eq!(a, b);
        let c = EnvironmentConfig::urban_outdoor().with_seed(4).generate();
        assert_ne!(a, c);
    }

    #[test]
    fn density_knob_scales_obstacle_count() {
        let sparse = EnvironmentConfig::default()
            .with_obstacle_density(0.5)
            .generate();
        let dense = EnvironmentConfig::default()
            .with_obstacle_density(5.0)
            .generate();
        assert!(dense.obstacle_count() > sparse.obstacle_count() * 3);
    }

    #[test]
    fn spawn_area_is_clear() {
        let world = EnvironmentConfig::urban_outdoor().with_seed(11).generate();
        assert!(!world.collides_sphere(&Vec3::new(0.0, 0.0, 1.0), 0.5));
    }

    #[test]
    fn presets_have_expected_features() {
        let field = EnvironmentConfig::open_field().generate();
        let urban = EnvironmentConfig::urban_outdoor().generate();
        assert!(field.obstacle_count() < urban.obstacle_count());

        let sar = EnvironmentConfig::disaster_site().generate();
        assert_eq!(sar.obstacles_of_class(ObstacleClass::Person).len(), 3);

        let park = EnvironmentConfig::park_with_subject().generate();
        assert!(park
            .dynamic_obstacle_of_class(ObstacleClass::PhotographySubject)
            .is_some());
    }

    #[test]
    fn indoor_structure_has_a_door_opening() {
        let world = EnvironmentConfig::indoor_outdoor().with_seed(5).generate();
        // The west wall of the indoor structure sits at x = 0.35 * extent;
        // a ray fired through the door centre (y = 0) at door height must pass
        // deeper into the room than the wall plane, while a ray at y offset
        // half a room hits the wall.
        let ox = 50.0 * 0.35;
        let through_door = world.raycast(&Vec3::new(ox - 5.0, 0.0, 1.0), &Vec3::UNIT_X, 50.0);
        let into_wall = world.raycast(&Vec3::new(ox - 5.0, 6.0, 1.0), &Vec3::UNIT_X, 50.0);
        let wall_dist = into_wall.map(|h| h.distance).unwrap_or(f64::INFINITY);
        let door_dist = through_door.map(|h| h.distance).unwrap_or(f64::INFINITY);
        assert!(
            door_dist > wall_dist + 1.0,
            "expected the door ray to travel farther ({door_dist:.2}) than the wall ray ({wall_dist:.2})"
        );
    }

    #[test]
    fn dynamic_obstacles_requested_count() {
        let world = EnvironmentConfig::default()
            .with_dynamic_obstacles(4, 2.0)
            .with_seed(9)
            .generate();
        let dynamic = world.obstacles().iter().filter(|o| o.is_dynamic()).count();
        assert_eq!(dynamic, 4);
    }

    #[test]
    fn world_bounds_match_config() {
        let cfg = EnvironmentConfig::open_field();
        let world = cfg.generate();
        assert_eq!(world.bounds().max.z, cfg.height);
        assert_eq!(world.bounds().max.x, cfg.extent);
        assert_eq!(world.name(), "open-field");
    }

    #[test]
    fn validate_caps_the_obstacle_count() {
        let walls = indoor_walls(0.0, 0.0, 12.0, 0.4, 3.0, 0.82);
        assert_eq!(walls.len(), INDOOR_WALLS);
        // Exactly at the cap: 100 static + 9_899 people + 1 subject.
        let at_cap = EnvironmentConfig {
            extent: 50.0,
            obstacle_density: 10.0,
            people: 9_899,
            photography_subject: true,
            ..EnvironmentConfig::default()
        };
        assert_eq!(at_cap.static_obstacle_count(), 100.0);
        assert_eq!(at_cap.validate(), Ok(()));
        assert_eq!(
            at_cap.generate().obstacle_count(),
            EnvironmentConfig::MAX_OBSTACLES
        );
        for over in [
            EnvironmentConfig {
                people: 9_900,
                ..at_cap.clone()
            },
            EnvironmentConfig {
                indoor_structure: true,
                ..at_cap.clone()
            },
            EnvironmentConfig {
                dynamic_obstacles: 1,
                ..at_cap.clone()
            },
            EnvironmentConfig {
                people: 1_000_000_000_000,
                ..EnvironmentConfig::default()
            },
            EnvironmentConfig::default().with_obstacle_density(1e6),
            EnvironmentConfig::default().with_obstacle_density(f64::INFINITY),
            EnvironmentConfig {
                obstacle_density: f64::NAN,
                ..EnvironmentConfig::default()
            },
            EnvironmentConfig {
                extent: 1e9,
                ..EnvironmentConfig::default()
            },
        ] {
            let error = over.validate().unwrap_err();
            assert!(error.contains("cap of 10000"), "{error}");
        }
    }

    #[test]
    fn validate_rejects_ranges_the_generator_cannot_sample() {
        for cfg in [
            EnvironmentConfig::default(),
            EnvironmentConfig::open_field(),
            EnvironmentConfig::urban_outdoor(),
            EnvironmentConfig::indoor_outdoor(),
            EnvironmentConfig::disaster_site(),
            EnvironmentConfig::park_with_subject(),
        ] {
            assert_eq!(cfg.validate(), Ok(()));
        }
        // Inclusive ranges: a degenerate range is a fixed size.
        let fixed = EnvironmentConfig {
            obstacle_size: (2.0, 2.0),
            obstacle_height: (4.0, 4.0),
            ..EnvironmentConfig::default()
        };
        assert_eq!(fixed.validate(), Ok(()));
        fixed.generate();
        for range in [
            (6.0, 1.0),
            (0.0, 1.0),
            (-1.0, 1.0),
            (1.0, f64::INFINITY),
            (f64::NAN, 1.0),
        ] {
            let size = EnvironmentConfig {
                obstacle_size: range,
                ..EnvironmentConfig::default()
            };
            let error = size.validate().unwrap_err();
            assert!(error.contains("environment.obstacle_size"), "{error}");
            let height = EnvironmentConfig {
                obstacle_height: range,
                ..EnvironmentConfig::default()
            };
            let error = height.validate().unwrap_err();
            assert!(error.contains("environment.obstacle_height"), "{error}");
        }
    }
}
