//! Equivalence suite for the data-oriented perception core, from the public
//! API: parallel scan insertion must build maps bit-identical to the serial
//! path at every thread count, and Fig. 18's dense scans must keep their
//! update and known-voxel counts. The brick-map-vs-pointer-tree and
//! index-vs-tree-walk properties need the crate's test-only oracles, so they
//! live in `mav-perception`'s own `octomap` tests.

use mav_env::EnvironmentConfig;
use mav_perception::{OctoMap, OctoMapConfig, PointCloud};
use mav_sensors::{DepthCamera, DepthCameraConfig};
use mav_types::{Pose, Vec3};
use proptest::prelude::*;

/// Fig. 18's dense scans (same world, poses and 128×96 camera as
/// `fig18_octomap_resolution`) keep their `(leaf updates, known voxels)`
/// counts at the coarse end of the sweep; the fine end is too slow for an
/// unoptimised test build.
#[test]
fn fig18_dense_scan_counts_are_pinned() {
    let world = EnvironmentConfig::urban_outdoor().with_seed(3).generate();
    let camera = DepthCamera::new(DepthCameraConfig::high_resolution());
    let clouds: Vec<PointCloud> = (0..6)
        .map(|i| {
            let pose = Pose::new(
                Vec3::new(i as f64 * 6.0 - 15.0, (i % 3) as f64 * 8.0 - 8.0, 2.5),
                i as f64,
            );
            PointCloud::from_depth_image(&camera.capture(&world, &pose))
        })
        .collect();
    for (resolution, expected) in [
        (0.5, (1_400_098, 39_004)),
        (0.65, (1_065_861, 19_371)),
        (0.8, (889_137, 10_981)),
        (1.0, (717_239, 6_318)),
    ] {
        let mut map = OctoMap::new(OctoMapConfig::with_resolution(resolution), 96.0);
        for cloud in &clouds {
            map.insert_point_cloud(cloud);
        }
        assert_eq!(
            (map.update_count(), map.known_voxel_count()),
            expected,
            "counts moved at {resolution} m"
        );
    }
}

/// Map resolutions under test: dyadic and non-dyadic, fine and coarse (the
/// paper's 0.15 m and 0.80 m case-study endpoints included).
const RESOLUTIONS: [f64; 5] = [0.15, 0.25, 0.3, 0.5, 0.8];

fn arb_point(extent: f64) -> impl Strategy<Value = Vec3> {
    (-extent..extent, -extent..extent, 0.0..6.0).prop_map(|(x, y, z)| Vec3::new(x, y, z))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Parallel scan insertion is bit-identical to the serial path at every
    /// thread count: same logical tree, same counters, same free-voxel
    /// centres, same update count.
    #[test]
    fn parallel_insertion_bit_identical_across_thread_counts(
        res_idx in 0usize..RESOLUTIONS.len(),
        points in proptest::collection::vec(arb_point(20.0), 1..48),
    ) {
        let resolution = RESOLUTIONS[res_idx % RESOLUTIONS.len()];
        let config = OctoMapConfig::with_resolution(resolution);
        let cloud = PointCloud::new(Vec3::new(0.0, 0.0, 1.5), points);
        let mut serial = OctoMap::new(config, 24.0);
        serial.insert_point_cloud(&cloud);
        for threads in [1usize, 2, 3, 4, 8] {
            let mut parallel = OctoMap::new(config, 24.0);
            parallel.insert_point_cloud_parallel(&cloud, threads);
            prop_assert_eq!(&parallel, &serial, "map diverged at {} threads", threads);
            prop_assert_eq!(parallel.update_count(), serial.update_count());
            prop_assert_eq!(parallel.free_voxel_centers(), serial.free_voxel_centers());
            prop_assert_eq!(parallel.occupied_voxel_count(), serial.occupied_voxel_count());
        }
    }
}
