//! Simulated RGB-D depth camera.
//!
//! The depth camera is the main exteroceptive sensor of every MAVBench
//! workload: its frames feed point-cloud generation, OctoMap updates and
//! collision checking. Here a frame is produced by casting one ray per pixel
//! into the [`mav_env::World`], which mirrors how AirSim rasterises depth from
//! the Unreal scene.
//!
//! Every ray of a frame starts at the camera, and none reaches past
//! `max_range`. So [`DepthCamera::capture`] culls the world once per frame,
//! keeping only the obstacles within `max_range` of the camera
//! ([`World::obstacles_within`]), and casts each pixel against that short
//! list. The cull reads the obstacles' current bounds, so moving obstacles
//! are seen where they are, and nothing is kept from one frame to the next.
//! Pixel rays come from one azimuth per column and one elevation per row;
//! the frame walk and the per-pixel [`DepthImage::ray_direction`] share the
//! same helpers, so both give the same ray bit for bit.

use mav_env::World;
use mav_types::{Pose, Vec3};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Static configuration of a depth camera.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DepthCameraConfig {
    /// Horizontal resolution in pixels.
    pub width: usize,
    /// Vertical resolution in pixels.
    pub height: usize,
    /// Horizontal field of view in radians.
    pub fov_horizontal: f64,
    /// Vertical field of view in radians.
    pub fov_vertical: f64,
    /// Maximum sensing range in metres; pixels with no return within this
    /// range are reported as [`f64::INFINITY`].
    pub max_range: f64,
}

impl Default for DepthCameraConfig {
    fn default() -> Self {
        // A coarse 32x24 depth frame keeps per-frame ray counts small enough
        // for the closed-loop simulation while preserving the geometry the
        // perception kernels need. Benchmarks can raise the resolution.
        DepthCameraConfig {
            width: 32,
            height: 24,
            fov_horizontal: std::f64::consts::FRAC_PI_2, // 90 degrees
            fov_vertical: std::f64::consts::FRAC_PI_3,   // 60 degrees
            max_range: 25.0,
        }
    }
}

impl mav_types::ToJson for DepthCameraConfig {
    fn to_json(&self) -> mav_types::Json {
        mav_types::Json::object()
            .field("width", self.width)
            .field("height", self.height)
            .field("fov_horizontal", self.fov_horizontal)
            .field("fov_vertical", self.fov_vertical)
            .field("max_range", self.max_range)
    }
}

impl mav_types::FromJson for DepthCameraConfig {
    /// Reads a depth-camera description; omitted fields keep the default
    /// (32×24, 90°×60°, 25 m) values.
    fn from_json(json: &mav_types::Json) -> Result<Self, String> {
        json.check_fields(&[
            "width",
            "height",
            "fov_horizontal",
            "fov_vertical",
            "max_range",
        ])?;
        let base = DepthCameraConfig::default();
        let config = DepthCameraConfig {
            width: json.parse_field_or("width", base.width)?,
            height: json.parse_field_or("height", base.height)?,
            fov_horizontal: json.parse_field_or("fov_horizontal", base.fov_horizontal)?,
            fov_vertical: json.parse_field_or("fov_vertical", base.fov_vertical)?,
            max_range: json.parse_field_or("max_range", base.max_range)?,
        };
        config.validate()?;
        Ok(config)
    }
}

impl DepthCameraConfig {
    /// A higher-resolution configuration used by the perception benchmarks.
    pub fn high_resolution() -> Self {
        DepthCameraConfig {
            width: 128,
            height: 96,
            ..Default::default()
        }
    }

    /// Number of pixels per frame. Saturates instead of overflowing;
    /// [`DepthCameraConfig::validate`] bounds it by [`Self::MAX_PIXELS`].
    pub fn pixel_count(&self) -> usize {
        self.width.saturating_mul(self.height)
    }

    /// Largest accepted width or height, pixels.
    pub const MAX_SIDE: usize = 4096;

    /// Largest accepted pixel count per frame (2^20): one frame's depths
    /// then take at most 8 MiB.
    pub const MAX_PIXELS: usize = 1 << 20;

    /// Checks that a frame can be captured in bounded time and memory and
    /// that its rays are well defined.
    ///
    /// # Errors
    ///
    /// Returns a descriptive message for the first field out of range:
    /// width and height in `[1, MAX_SIDE]` with at most `MAX_PIXELS`
    /// pixels, both fields of view finite and in `(0, π]`, and a finite,
    /// positive `max_range`.
    pub fn validate(&self) -> Result<(), String> {
        for (name, side) in [("width", self.width), ("height", self.height)] {
            if !(1..=Self::MAX_SIDE).contains(&side) {
                return Err(format!(
                    "camera.{name} must be in [1, {}], got {side}",
                    Self::MAX_SIDE
                ));
            }
        }
        if self.pixel_count() > Self::MAX_PIXELS {
            return Err(format!(
                "camera.width*height must be at most {} pixels, got {}",
                Self::MAX_PIXELS,
                self.pixel_count()
            ));
        }
        for (name, fov) in [
            ("fov_horizontal", self.fov_horizontal),
            ("fov_vertical", self.fov_vertical),
        ] {
            if !(fov.is_finite() && fov > 0.0 && fov <= std::f64::consts::PI) {
                return Err(format!(
                    "camera.{name} must be in (0, pi] radians, got {fov}"
                ));
            }
        }
        if !(self.max_range.is_finite() && self.max_range > 0.0) {
            return Err(format!(
                "camera.max_range must be finite and positive, got {}",
                self.max_range
            ));
        }
        Ok(())
    }
}

/// A single depth frame: row-major range values in metres.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DepthImage {
    /// Width in pixels.
    pub width: usize,
    /// Height in pixels.
    pub height: usize,
    /// Row-major depth values in metres; `INFINITY` means no return.
    pub depths: Vec<f64>,
    /// Pose of the camera when the frame was captured.
    pub camera_pose: Pose,
    /// Configuration the frame was captured with.
    pub config: DepthCameraConfig,
}

impl DepthImage {
    /// Depth at pixel `(u, v)` where `u` is the column and `v` the row.
    ///
    /// # Panics
    ///
    /// Panics if the pixel is out of range.
    pub fn depth_at(&self, u: usize, v: usize) -> f64 {
        assert!(
            u < self.width && v < self.height,
            "pixel ({u},{v}) out of range"
        );
        self.depths[v * self.width + u]
    }

    /// Minimum finite depth in the frame, or `None` when every pixel is a
    /// no-return.
    pub fn min_depth(&self) -> Option<f64> {
        self.depths
            .iter()
            .copied()
            .filter(|d| d.is_finite())
            .fold(None, |acc, d| Some(acc.map_or(d, |a: f64| a.min(d))))
    }

    /// Fraction of pixels that returned a finite depth.
    pub fn coverage(&self) -> f64 {
        if self.depths.is_empty() {
            return 0.0;
        }
        self.depths.iter().filter(|d| d.is_finite()).count() as f64 / self.depths.len() as f64
    }

    /// World-frame ray direction of pixel `(u, v)` given the capture pose.
    pub fn ray_direction(&self, u: usize, v: usize) -> Vec3 {
        pixel_ray(&self.config, &self.camera_pose, u, v)
    }

    /// World-frame 3D point for pixel `(u, v)`, or `None` for a no-return.
    /// To walk a whole frame, [`DepthImage::for_each_point`] gives the same
    /// points without per-pixel trig.
    pub fn point_at(&self, u: usize, v: usize) -> Option<Vec3> {
        let d = self.depth_at(u, v);
        if d.is_finite() {
            Some(self.camera_pose.position + self.ray_direction(u, v) * d)
        } else {
            None
        }
    }

    /// Calls `f` with the world-frame point of every finite-range pixel, in
    /// row-major order: [`DepthImage::point_at`] for each pixel, bit for bit.
    pub fn for_each_point(&self, mut f: impl FnMut(Vec3)) {
        let origin = self.camera_pose.position;
        for_each_pixel_ray(&self.config, &self.camera_pose, |i, dir| {
            let d = self.depths[i];
            if d.is_finite() {
                f(origin + dir * d);
            }
        });
    }

    /// All finite-range points of the frame in the world frame.
    pub fn points(&self) -> Vec<Vec3> {
        let mut out = Vec::new();
        self.for_each_point(|p| out.push(p));
        out
    }
}

impl fmt::Display for DepthImage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "depth[{}x{}, coverage {:.0}%]",
            self.width,
            self.height,
            self.coverage() * 100.0
        )
    }
}

/// World-frame ray direction for pixel `(u, v)` of a camera with `config`
/// looking along the pose's yaw (the camera is pitch-stabilised by the
/// simulated gimbal, matching the gimbal MAVBench adds to AirSim).
fn pixel_ray(config: &DepthCameraConfig, pose: &Pose, u: usize, v: usize) -> Vec3 {
    let azimuth = column_azimuth(config, pose, u);
    let elevation = row_elevation(config, v);
    ray_at(
        (azimuth.cos(), azimuth.sin()),
        (elevation.cos(), elevation.sin()),
    )
}

/// World-frame azimuth of column `u`, radians.
fn column_azimuth(config: &DepthCameraConfig, pose: &Pose, u: usize) -> f64 {
    let half_w = (config.width.max(2) - 1) as f64 / 2.0;
    // Normalised pixel coordinate in [-1, 1].
    let nx = (u as f64 - half_w) / half_w;
    pose.yaw + nx * config.fov_horizontal / 2.0
}

/// Elevation of row `v` above the horizon, radians.
fn row_elevation(config: &DepthCameraConfig, v: usize) -> f64 {
    let half_h = (config.height.max(2) - 1) as f64 / 2.0;
    // Normalised pixel coordinate in [-1, 1].
    let ny = (v as f64 - half_h) / half_h;
    -ny * config.fov_vertical / 2.0
}

/// Unit ray from the `(cos, sin)` of its azimuth and of its elevation.
fn ray_at((cos_az, sin_az): (f64, f64), (cos_el, sin_el): (f64, f64)) -> Vec3 {
    Vec3::new(cos_el * cos_az, cos_el * sin_az, sin_el).normalized()
}

/// Calls `f(i, ray)` for every pixel in row-major order, `i` being the
/// pixel's index in [`DepthImage::depths`]. Each ray is [`pixel_ray`]'s, bit
/// for bit, but the trig runs once per column and once per row.
fn for_each_pixel_ray(config: &DepthCameraConfig, pose: &Pose, mut f: impl FnMut(usize, Vec3)) {
    let columns: Vec<(f64, f64)> = (0..config.width)
        .map(|u| {
            let azimuth = column_azimuth(config, pose, u);
            (azimuth.cos(), azimuth.sin())
        })
        .collect();
    let mut i = 0;
    for v in 0..config.height {
        let elevation = row_elevation(config, v);
        let row = (elevation.cos(), elevation.sin());
        for &column in &columns {
            f(i, ray_at(column, row));
            i += 1;
        }
    }
}

/// The simulated depth camera itself.
///
/// # Example
///
/// ```
/// use mav_env::EnvironmentConfig;
/// use mav_sensors::{DepthCamera, DepthCameraConfig};
/// use mav_types::{Pose, Vec3};
///
/// let world = EnvironmentConfig::urban_outdoor().with_seed(1).generate();
/// let camera = DepthCamera::new(DepthCameraConfig::default());
/// let frame = camera.capture(&world, &Pose::new(Vec3::new(0.0, 0.0, 2.0), 0.0));
/// assert_eq!(frame.depths.len(), frame.width * frame.height);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DepthCamera {
    config: DepthCameraConfig,
}

impl DepthCamera {
    /// Creates a camera with the given configuration.
    pub fn new(config: DepthCameraConfig) -> Self {
        DepthCamera { config }
    }

    /// The camera configuration.
    pub fn config(&self) -> &DepthCameraConfig {
        &self.config
    }

    /// Captures a depth frame from `pose` into `world`: pixel `(u, v)`
    /// holds the distance [`World::raycast`] reports along
    /// [`DepthImage::ray_direction`]`(u, v)`, bit for bit, or infinity for
    /// no return within `max_range`.
    pub fn capture(&self, world: &World, pose: &Pose) -> DepthImage {
        let max_range = self.config.max_range;
        let mut candidates = Vec::with_capacity(world.obstacle_count());
        world.obstacles_within(&pose.position, max_range, &mut candidates);
        let mut depths = Vec::with_capacity(self.config.pixel_count());
        for_each_pixel_ray(&self.config, pose, |_, dir| {
            let depth = world
                .raycast_among(candidates.iter().copied(), &pose.position, &dir, max_range)
                .map_or(f64::INFINITY, |hit| hit.distance);
            depths.push(depth);
        });
        DepthImage {
            width: self.config.width,
            height: self.config.height,
            depths,
            camera_pose: *pose,
            config: self.config,
        }
    }
}

impl Default for DepthCamera {
    fn default() -> Self {
        DepthCamera::new(DepthCameraConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mav_env::{ObstacleClass, World};
    use mav_types::Aabb;

    fn wall_world() -> World {
        let mut w = World::empty(Aabb::new(
            Vec3::new(-50.0, -50.0, 0.0),
            Vec3::new(50.0, 50.0, 30.0),
        ));
        // A wall 10 m in front of the origin spanning the whole field of view.
        w.add_box(
            Aabb::from_center_size(Vec3::new(10.0, 0.0, 5.0), Vec3::new(1.0, 60.0, 10.0)),
            ObstacleClass::Structure,
        );
        w
    }

    /// Bits of every depth of the frame as the per-pixel loop built it
    /// before the per-frame cull: `raycast` against the whole world along
    /// `pixel_ray`.
    fn per_pixel_depth_bits(cam: &DepthCamera, world: &World, pose: &Pose) -> Vec<u64> {
        let config = cam.config();
        let mut bits = Vec::new();
        for v in 0..config.height {
            for u in 0..config.width {
                let dir = pixel_ray(config, pose, u, v);
                let depth = world
                    .raycast(&pose.position, &dir, config.max_range)
                    .map(|hit| hit.distance)
                    .unwrap_or(f64::INFINITY);
                bits.push(depth.to_bits());
            }
        }
        bits
    }

    fn point_bits(p: Vec3) -> [u64; 3] {
        [p.x.to_bits(), p.y.to_bits(), p.z.to_bits()]
    }

    #[test]
    fn capture_and_points_match_the_per_pixel_loops() {
        use mav_env::EnvironmentConfig;
        use rand::Rng;
        use rand_chacha::rand_core::SeedableRng;
        let mut moving = EnvironmentConfig::default()
            .with_dynamic_obstacles(12, 3.0)
            .with_seed(9)
            .generate();
        for _ in 0..25 {
            moving.step_dynamics(0.4);
        }
        let worlds = [
            EnvironmentConfig::urban_outdoor().with_seed(3).generate(),
            EnvironmentConfig::disaster_site().with_seed(5).generate(),
            moving,
            wall_world(),
        ];
        let configs = [
            DepthCameraConfig::default(),
            DepthCameraConfig::high_resolution(),
            DepthCameraConfig {
                width: 1,
                height: 1,
                ..Default::default()
            },
            DepthCameraConfig {
                width: 1,
                height: 17,
                ..Default::default()
            },
            DepthCameraConfig {
                width: 23,
                height: 1,
                max_range: 6.0,
                ..Default::default()
            },
            DepthCameraConfig {
                width: 9,
                height: 7,
                fov_horizontal: std::f64::consts::PI,
                fov_vertical: std::f64::consts::PI,
                max_range: 60.0,
            },
        ];
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(17);
        for world in &worlds {
            let b = *world.bounds();
            for config in configs {
                let cam = DepthCamera::new(config);
                for _ in 0..3 {
                    let position = Vec3::new(
                        rng.gen_range(b.min.x..b.max.x),
                        rng.gen_range(b.min.y..b.max.y),
                        rng.gen_range(b.min.z..b.max.z),
                    );
                    let pose = Pose::new(position, rng.gen_range(-10.0..10.0));
                    let frame = cam.capture(world, &pose);
                    let depth_bits: Vec<u64> = frame.depths.iter().map(|d| d.to_bits()).collect();
                    assert_eq!(depth_bits, per_pixel_depth_bits(&cam, world, &pose));
                    let mut walked = Vec::new();
                    frame.for_each_point(|p| walked.push(point_bits(p)));
                    let mut expected = Vec::new();
                    for v in 0..frame.height {
                        for u in 0..frame.width {
                            if let Some(p) = frame.point_at(u, v) {
                                expected.push(point_bits(p));
                            }
                        }
                    }
                    assert_eq!(walked, expected);
                    assert_eq!(
                        frame
                            .points()
                            .into_iter()
                            .map(point_bits)
                            .collect::<Vec<_>>(),
                        expected
                    );
                }
            }
        }
    }

    #[test]
    fn validate_bounds_the_frame() {
        use mav_types::FromJson;
        assert_eq!(DepthCameraConfig::default().validate(), Ok(()));
        assert_eq!(DepthCameraConfig::high_resolution().validate(), Ok(()));
        let largest = DepthCameraConfig {
            width: 4096,
            height: 256,
            fov_horizontal: std::f64::consts::PI,
            ..Default::default()
        };
        assert_eq!(largest.validate(), Ok(()));
        let base = DepthCameraConfig::default();
        for (bad, field) in [
            (DepthCameraConfig { width: 0, ..base }, "camera.width"),
            (DepthCameraConfig { height: 0, ..base }, "camera.height"),
            (
                DepthCameraConfig {
                    width: 4097,
                    height: 1,
                    ..base
                },
                "camera.width",
            ),
            (
                DepthCameraConfig {
                    height: 100_000,
                    ..base
                },
                "camera.height",
            ),
            (
                DepthCameraConfig {
                    width: 4096,
                    height: 257,
                    ..base
                },
                "camera.width*height",
            ),
            (
                DepthCameraConfig {
                    fov_horizontal: 0.0,
                    ..base
                },
                "camera.fov_horizontal",
            ),
            (
                DepthCameraConfig {
                    fov_horizontal: 3.2,
                    ..base
                },
                "camera.fov_horizontal",
            ),
            (
                DepthCameraConfig {
                    fov_vertical: f64::NAN,
                    ..base
                },
                "camera.fov_vertical",
            ),
            (
                DepthCameraConfig {
                    fov_vertical: -1.0,
                    ..base
                },
                "camera.fov_vertical",
            ),
            (
                DepthCameraConfig {
                    max_range: 0.0,
                    ..base
                },
                "camera.max_range",
            ),
            (
                DepthCameraConfig {
                    max_range: f64::INFINITY,
                    ..base
                },
                "camera.max_range",
            ),
        ] {
            let error = bad.validate().unwrap_err();
            assert!(error.contains(field), "{error}");
        }
        // Overflow saturates instead of wrapping to a small count.
        let huge = DepthCameraConfig {
            width: usize::MAX,
            height: 2,
            ..base
        };
        assert_eq!(huge.pixel_count(), usize::MAX);
        // The wire parser applies the same bounds.
        let json = mav_types::Json::parse(r#"{"width":100000,"height":100000}"#).unwrap();
        let error = DepthCameraConfig::from_json(&json).unwrap_err();
        assert!(error.contains("camera.width"), "{error}");
    }

    #[test]
    fn frame_dimensions_match_config() {
        let cam = DepthCamera::default();
        let frame = cam.capture(&wall_world(), &Pose::new(Vec3::new(0.0, 0.0, 2.0), 0.0));
        assert_eq!(frame.width, cam.config().width);
        assert_eq!(frame.height, cam.config().height);
        assert_eq!(frame.depths.len(), cam.config().pixel_count());
    }

    #[test]
    fn wall_appears_at_expected_depth() {
        let cam = DepthCamera::default();
        let frame = cam.capture(&wall_world(), &Pose::new(Vec3::new(0.0, 0.0, 2.0), 0.0));
        // The centre pixel looks straight ahead and must report roughly 9.5 m
        // (the wall face is at x = 9.5).
        let c = frame.depth_at(frame.width / 2, frame.height / 2);
        assert!((c - 9.5).abs() < 0.5, "centre depth {c}");
        assert!(frame.min_depth().unwrap() <= c + 1e-9);
        assert!(frame.coverage() > 0.3);
    }

    #[test]
    fn points_lie_on_the_wall() {
        let cam = DepthCamera::default();
        let pose = Pose::new(Vec3::new(0.0, 0.0, 2.0), 0.0);
        let frame = cam.capture(&wall_world(), &pose);
        let pts = frame.points();
        assert!(!pts.is_empty());
        for p in pts {
            // Every returned point must be on (or extremely near) an obstacle
            // surface or the world boundary.
            assert!(p.x > 0.0);
        }
    }

    #[test]
    fn empty_world_has_boundary_returns_only() {
        let world = World::empty(Aabb::new(
            Vec3::new(-10.0, -10.0, 0.0),
            Vec3::new(10.0, 10.0, 10.0),
        ));
        let cam = DepthCamera::new(DepthCameraConfig {
            max_range: 5.0,
            ..Default::default()
        });
        let frame = cam.capture(&world, &Pose::new(Vec3::new(0.0, 0.0, 5.0), 0.0));
        // World boundary is 10 m away, beyond the 5 m max range: no returns.
        assert_eq!(frame.coverage(), 0.0);
        assert!(frame.min_depth().is_none());
        assert!(frame.point_at(0, 0).is_none());
    }

    #[test]
    fn yaw_rotates_the_view() {
        let cam = DepthCamera::default();
        let world = wall_world();
        // Facing away from the wall the centre pixel sees nothing within range.
        let away = cam.capture(
            &world,
            &Pose::new(Vec3::new(0.0, 0.0, 2.0), std::f64::consts::PI),
        );
        let c = away.depth_at(away.width / 2, away.height / 2);
        assert!(!c.is_finite() || c > 20.0);
    }

    #[test]
    #[should_panic]
    fn out_of_range_pixel_panics() {
        let cam = DepthCamera::default();
        let frame = cam.capture(&wall_world(), &Pose::origin());
        let _ = frame.depth_at(frame.width, 0);
    }

    #[test]
    fn display_nonempty() {
        let cam = DepthCamera::default();
        let frame = cam.capture(&wall_world(), &Pose::origin());
        assert!(!format!("{frame}").is_empty());
    }
}
