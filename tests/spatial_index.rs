//! Index invalidation for the occupied-voxel index, from the public API.
//!
//! The indexed queries, the DDA swept-segment prefilter and the O(1)
//! counters are checked against their tree-scan oracles inside
//! `mav-perception`'s own `octomap` tests, where those oracles live.

use mav_perception::{OctoMap, OctoMapConfig};
use mav_types::Vec3;

/// A map whose rays flip voxels occupied → free (the obstacle moved) must
/// drop them from the index too: the inflation query may not keep reporting
/// stale occupancy.
#[test]
fn index_drops_voxels_that_flip_back_to_free() {
    let mut map = OctoMap::new(OctoMapConfig::with_resolution(0.25), 32.0);
    let origin = Vec3::new(0.0, 0.0, 1.0);
    let target = Vec3::new(5.0, 0.0, 1.0);
    map.insert_ray(&origin, &target);
    assert!(map.is_occupied_with_inflation(&target, 0.2));
    for _ in 0..10 {
        map.insert_ray(&origin, &Vec3::new(12.0, 0.0, 1.0));
    }
    assert!(!map.is_occupied_with_inflation(&target, 0.2));
    // The clearing rays' own endpoint is now the only occupied voxel.
    assert_eq!(map.occupied_voxel_count(), 1);
    assert_eq!(map.occupied_voxel_centers().len(), 1);
}
