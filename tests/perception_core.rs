//! Equivalence suite for the data-oriented perception core, from the public
//! API: parallel scan insertion must build maps bit-identical to the serial
//! path at every thread count. The arena-vs-pointer-tree and index-vs-tree-walk
//! properties need the crate's test-only oracles, so they live in
//! `mav-perception`'s own `octomap` tests.

use mav_perception::{OctoMap, OctoMapConfig, PointCloud};
use mav_types::Vec3;
use proptest::prelude::*;

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
