//! A probabilistic occupancy map (the OctoMap kernel).
//!
//! The paper treats OctoMap generation as the dominant perception kernel of
//! Package Delivery, 3D Mapping and Search and Rescue, and builds an entire
//! case study around its resolution knob (Figs. 17–19): finer voxels cost
//! more compute per update but let the drone see narrow openings; coarser
//! voxels are cheap but inflate obstacles until doorways disappear.
//!
//! The map is one table of hashed voxel bricks (the layout of voxel hashing
//! and Voxblox): every 4×4×4-voxel block that holds an observed voxel owns a
//! brick of 64 clamped log-odds values plus a mask of the slots ever
//! observed. Rays carve free space along their length and mark their
//! endpoint occupied, exactly like the original OctoMap update rule. The
//! cubic domain is still subdivided dyadically: a voxel's centre and its
//! depth-first rank are those of the full-depth octree leaf covering it, so
//! every output matches the pointer octree the crate's tests keep as their
//! oracle bit for bit.

use crate::pointcloud::PointCloud;
use mav_types::{Aabb, GridIndex, GridSpec, Vec3};
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::rc::Rc;

/// Occupancy state of a queried location.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Occupancy {
    /// Probability of occupancy above the occupied threshold.
    Occupied,
    /// Probability of occupancy below the free threshold.
    Free,
    /// Never observed.
    Unknown,
}

/// Configuration of the occupancy map.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OctoMapConfig {
    /// Voxel edge length, metres. The paper sweeps 0.15 m – 1.0 m.
    pub resolution: f64,
    /// Log-odds added on a hit.
    pub hit_log_odds: f64,
    /// Log-odds subtracted on a pass-through (miss).
    pub miss_log_odds: f64,
    /// Clamping bounds on accumulated log-odds.
    pub clamp: (f64, f64),
    /// Log-odds above which a voxel counts as occupied.
    pub occupied_threshold: f64,
    /// Maximum ray length inserted into the map, metres.
    pub max_range: f64,
}

impl OctoMapConfig {
    /// Creates a configuration with the given resolution and OctoMap's
    /// standard probabilistic parameters.
    ///
    /// # Panics
    ///
    /// Panics if `resolution` is not strictly positive.
    pub fn with_resolution(resolution: f64) -> Self {
        assert!(
            resolution > 0.0,
            "resolution must be positive, got {resolution}"
        );
        OctoMapConfig {
            resolution,
            hit_log_odds: 0.85,
            miss_log_odds: 0.4,
            clamp: (-2.0, 3.5),
            occupied_threshold: 0.0,
            max_range: 30.0,
        }
    }

    /// The fine resolution (0.15 m) of the paper's case study — safe through
    /// doorways but expensive.
    pub fn fine() -> Self {
        OctoMapConfig::with_resolution(0.15)
    }

    /// The coarse resolution (0.80 m) of the paper's case study — cheap but
    /// blind to door-width openings.
    pub fn coarse() -> Self {
        OctoMapConfig::with_resolution(0.80)
    }
}

impl Default for OctoMapConfig {
    fn default() -> Self {
        OctoMapConfig::with_resolution(0.5)
    }
}

/// One entry of the known-leaf index: the dedup-winning voxel of a
/// rounded-centre key, as a full octree leaf walk would report it.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
struct KnownLeaf {
    /// The voxel centre exactly as an octree descent accumulates it (see
    /// `OctoMap::locate`).
    center: Vec3,
    /// Depth-first rank of the voxel's octree leaf: the root-to-leaf octant
    /// path, packed three bits per level, root octant most significant. This
    /// totally orders voxels in tree-walk order, which reproduces the walk's
    /// last-in-walk-order-wins dedup when two adjacent voxel centres round to
    /// the same key (the non-dyadic-resolution merge artifact the golden
    /// fixtures pin).
    rank: u64,
    /// Whether the voxel's log-odds currently exceeds the occupied threshold.
    occupied: bool,
}

/// The observations of one 4×4×4-voxel block. Slot `x + 4y + 16z` holds the
/// clamped log-odds of that voxel; bit `slot` of `known` is set once the
/// voxel has been observed. Unknown slots hold 0.0, the value a newly
/// observed voxel starts from.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Brick {
    known: u64,
    log_odds: [f64; 64],
}

impl Brick {
    const EMPTY: Brick = Brick {
        known: 0,
        log_odds: [0.0; 64],
    };
}

/// The probabilistic occupancy map.
///
/// # Example
///
/// ```
/// use mav_perception::{OctoMap, OctoMapConfig, Occupancy};
/// use mav_types::Vec3;
///
/// let mut map = OctoMap::new(OctoMapConfig::with_resolution(0.5), 64.0);
/// map.insert_ray(&Vec3::new(0.0, 0.0, 1.0), &Vec3::new(5.0, 0.0, 1.0));
/// assert_eq!(map.query(&Vec3::new(5.0, 0.0, 1.0)), Occupancy::Occupied);
/// assert_eq!(map.query(&Vec3::new(2.5, 0.0, 1.0)), Occupancy::Free);
/// assert_eq!(map.query(&Vec3::new(0.0, 0.0, 20.0)), Occupancy::Unknown);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OctoMap {
    config: OctoMapConfig,
    /// Half-extent of the cubic domain, metres.
    half_extent: f64,
    /// Subdivision depth: the domain is 2^depth voxels along each axis.
    depth: u32,
    grid: GridSpec,
    /// Number of voxel updates performed (a proxy for the work the kernel
    /// did).
    updates: u64,
    /// Flat spatial index over the occupied voxels, maintained by every
    /// voxel creation and occupancy flip (all of which funnel through
    /// [`OctoMap::update_leaf_apply`]). Keys are [`pack_voxel_key`]s of
    /// 4×4×4-voxel *block* coordinates; values are 64-bit occupancy masks of
    /// the block's voxels. Collision queries walk only the blocks that hold
    /// an occupied voxel.
    occupied_blocks: HashMap<u64, u64, VoxelHashBuilder>,
    /// Number of occupied voxels, kept exactly in sync with the bricks.
    occupied_count: usize,
    /// The known-leaf index: for every rounded-centre voxel key, the
    /// dedup-winning voxel a full octree leaf walk would report (centre,
    /// walk rank and occupancy flag). [`OctoMap::known_voxel_count`] is this
    /// map's size — the dedup-by-rounded-centre accounting the tree walk has
    /// always used (at non-dyadic resolutions adjacent voxel centres can
    /// round to the same key; golden mission fixtures pin that behaviour) —
    /// and [`OctoMap::free_voxel_centers`] filters its values.
    known_leaves: HashMap<u64, KnownLeaf, VoxelHashBuilder>,
    /// The brick table: [`pack_voxel_key`]s of 4×4×4-voxel block coordinates
    /// → index into `bricks`. Voxels are only ever created (never removed
    /// short of [`OctoMap::clear`]), so the table is append-only.
    known_blocks: HashMap<u64, u32, VoxelHashBuilder>,
    /// One brick per entry of `known_blocks`: the map's only store of
    /// log-odds. Every observed voxel has an O(1) address, so a ray crossing
    /// costs one hash probe and frontier extraction answers its
    /// unknown-neighbour probes from the `known` masks.
    bricks: Vec<Brick>,
}

impl OctoMap {
    /// Creates an empty map covering the cube `[-half_extent, half_extent]³`
    /// (shifted up so z spans `[0, 2 × half_extent]` is *not* done — the cube
    /// is centred at the origin, which covers all MAVBench worlds).
    ///
    /// # Panics
    ///
    /// Panics if [`OctoMap::check_domain`] rejects the domain.
    pub fn new(config: OctoMapConfig, half_extent: f64) -> Self {
        let mut map = OctoMap {
            grid: GridSpec::new(config.resolution),
            config,
            half_extent: 0.0,
            depth: 0,
            updates: 0,
            occupied_blocks: HashMap::with_hasher(VoxelHashBuilder::default()),
            occupied_count: 0,
            known_leaves: HashMap::with_hasher(VoxelHashBuilder::default()),
            known_blocks: HashMap::with_hasher(VoxelHashBuilder::default()),
            bricks: Vec::new(),
        };
        map.reset(config, half_extent);
        map
    }

    /// Empties the map back to the just-constructed state while keeping the
    /// brick, block-index and known-leaf index allocations (their
    /// `Vec`/`HashMap` capacities survive). The domain geometry is unchanged;
    /// use [`OctoMap::reset`] to also reshape it. Because every mutation
    /// funnels through the same voxel-update path and brick indices restart
    /// at zero, a cleared map is bit-identical to a fresh [`OctoMap::new`]
    /// under any subsequent update sequence — the property the episode-reuse
    /// layer (and its proptests) rely on.
    pub fn clear(&mut self) {
        self.updates = 0;
        self.occupied_blocks.clear();
        self.occupied_count = 0;
        self.known_leaves.clear();
        self.known_blocks.clear();
        self.bricks.clear();
    }

    /// [`OctoMap::clear`] plus a domain reshape: recomputes the geometry
    /// exactly as `OctoMap::new(config, half_extent)` would (depth, aligned
    /// half-extent, traversal grid) while reusing the storage of this map.
    /// `new` is implemented on top of this, so the two cannot drift apart.
    ///
    /// # Panics
    ///
    /// Panics if [`OctoMap::check_domain`] rejects the domain.
    pub fn reset(&mut self, config: OctoMapConfig, half_extent: f64) {
        assert_eq!(
            Self::check_domain(config.resolution, half_extent),
            Ok(()),
            "invalid map domain"
        );
        let (depth, half_extent) = Self::aligned_domain(config.resolution, half_extent);
        self.grid = GridSpec::new(config.resolution);
        self.config = config;
        self.half_extent = half_extent;
        self.depth = depth;
        self.clear();
    }

    /// Checks that a map of voxel size `resolution` can cover the cube
    /// `[-half_extent, half_extent]³`: both must be finite and positive, and
    /// the power-of-two domain must fit the voxel keys every index
    /// and query is served from. Those keys hold voxel indices below 2^20
    /// in magnitude, so the aligned half-extent must span fewer than 2^20
    /// voxels; queries then reach at most one voxel past the domain without
    /// aliasing. A 125 m world at 0.15 m needs 1024.
    ///
    /// # Errors
    ///
    /// Returns a descriptive message for a domain [`OctoMap::new`] would
    /// reject.
    pub fn check_domain(resolution: f64, half_extent: f64) -> Result<(), String> {
        if !(resolution.is_finite() && resolution > 0.0) {
            return Err(format!(
                "map resolution must be finite and positive, got {resolution}"
            ));
        }
        if !(half_extent.is_finite() && half_extent > 0.0) {
            return Err(format!(
                "map half-extent must be finite and positive, got {half_extent}"
            ));
        }
        // The first comparison also keeps the depth below the shift width
        // `aligned_domain` uses.
        let limit = KEY_BIAS as f64;
        if half_extent / resolution < limit
            && Self::aligned_domain(resolution, half_extent).1 / resolution < limit
        {
            Ok(())
        } else {
            Err(format!(
                "map domain too large: half-extent {half_extent} m at resolution \
                 {resolution} m needs 2^20 or more voxels per half-axis"
            ))
        }
    }

    /// Subdivision depth and half-extent of the domain `reset` builds:
    /// widened so that each full-depth cell of the dyadic subdivision is
    /// exactly one `resolution`-sized voxel whose boundaries align with the
    /// ray traversal grid; otherwise a cell could straddle two traversal
    /// cells and updates/queries would disagree near voxel boundaries.
    fn aligned_domain(resolution: f64, half_extent: f64) -> (u32, f64) {
        let leaves_per_axis = (2.0 * half_extent / resolution).ceil().max(1.0);
        let depth = (leaves_per_axis.log2().ceil() as u32).max(1);
        let aligned_half_extent = resolution * (1u64 << depth) as f64 / 2.0;
        (depth, aligned_half_extent.max(half_extent))
    }

    /// The map configuration.
    pub fn config(&self) -> &OctoMapConfig {
        &self.config
    }

    /// The voxel edge length in metres.
    pub fn resolution(&self) -> f64 {
        self.config.resolution
    }

    /// The subdivision depth: the domain is 2^depth voxels along each axis.
    pub fn depth(&self) -> u32 {
        self.depth
    }

    /// Number of voxel updates performed since construction.
    pub fn update_count(&self) -> u64 {
        self.updates
    }

    /// Returns `true` when `point` lies inside the map domain.
    pub fn in_domain(&self, point: &Vec3) -> bool {
        point.x.abs() <= self.half_extent
            && point.y.abs() <= self.half_extent
            && point.z.abs() <= self.half_extent
    }

    /// Enumerates the in-domain (voxel index, voxel centre, log-odds delta)
    /// updates of one sensor ray, without touching the map. Shared by
    /// [`OctoMap::insert_ray`] and the parallel scan grouping so the two can
    /// never disagree on ray semantics (truncation, hit vs miss, domain
    /// filtering). An associated function over copies of the cheap geometry
    /// state, so callers may mutate the map from inside `apply`.
    fn for_each_ray_update(
        grid: GridSpec,
        config: OctoMapConfig,
        half_extent: f64,
        origin: &Vec3,
        endpoint: &Vec3,
        mut apply: impl FnMut(GridIndex, Vec3, f64),
    ) {
        let dir = *endpoint - *origin;
        let range = dir.norm();
        if range <= f64::EPSILON {
            return;
        }
        let (end, hit) = if range > config.max_range {
            (*origin + dir.normalized() * config.max_range, false)
        } else {
            (*endpoint, true)
        };
        let mut cells = RAY_CELLS.with(|c| c.take());
        grid.traverse_into(origin, &end, &mut cells);
        let n = cells.len();
        for (i, &cell) in cells.iter().enumerate() {
            let center = grid.center_of(&cell);
            if center.x.abs() > half_extent
                || center.y.abs() > half_extent
                || center.z.abs() > half_extent
            {
                continue;
            }
            let is_endpoint = i + 1 == n;
            let delta = if is_endpoint && hit {
                config.hit_log_odds
            } else {
                -config.miss_log_odds
            };
            apply(cell, center, delta);
        }
        RAY_CELLS.with(|c| *c.borrow_mut() = cells);
    }

    /// Integrates a single sensor ray: every voxel between `origin` and
    /// `endpoint` (exclusive) is updated as free, the endpoint voxel as
    /// occupied. Rays longer than `max_range` are truncated and their endpoint
    /// treated as free space (no hit).
    pub fn insert_ray(&mut self, origin: &Vec3, endpoint: &Vec3) {
        let (grid, config, half_extent) = (self.grid, self.config, self.half_extent);
        Self::for_each_ray_update(
            grid,
            config,
            half_extent,
            origin,
            endpoint,
            |cell, center, delta| self.update_cell(&cell, &center, delta),
        );
    }

    /// One ray crossing of traversal cell `cell` (centre `center`). When the
    /// voxel is already known and the update leaves its occupancy unchanged,
    /// only its value and the update counter move, so the brick slot is
    /// updated in place. A new voxel or an occupancy flip takes
    /// [`OctoMap::update_leaf`], which owns every index and counter. Exact
    /// because `aligned_domain` makes voxels coincide with traversal cells
    /// and the clamp arithmetic is the same.
    fn update_cell(&mut self, cell: &GridIndex, center: &Vec3, delta: f64) {
        let (block, slot) = block_of(cell);
        if let Some(&brick) = self.known_blocks.get(&pack_voxel_key(&block)) {
            let brick = &mut self.bricks[brick as usize];
            if brick.known & (1 << slot) != 0 {
                let (clamp, threshold) = (self.config.clamp, self.config.occupied_threshold);
                let value = &mut brick.log_odds[slot];
                let after = (*value + delta).clamp(clamp.0, clamp.1);
                if (*value > threshold) == (after > threshold) {
                    *value = after;
                    self.updates += 1;
                    return;
                }
            }
        }
        self.update_leaf(center, delta);
    }

    /// Integrates a whole point cloud captured from `cloud.origin`, one ray
    /// at a time in cloud order.
    pub fn insert_point_cloud(&mut self, cloud: &PointCloud) {
        let origin = cloud.origin;
        for point in cloud.iter() {
            self.insert_ray(&origin, &point);
        }
    }

    /// Groups the per-voxel updates of rays `lo..hi` of `cloud` in
    /// first-touch order: `(packed voxel key, centre, first delta, later
    /// deltas)`. Each worker of [`OctoMap::insert_point_cloud_parallel`]
    /// groups one contiguous chunk of the scan.
    ///
    /// Hash-map iteration order never leaks into the output. The first delta
    /// is stored inline: far voxels are crossed by a single ray, so the
    /// common case needs no spill allocation at all. In-domain voxel indices
    /// are bounded by half_extent / resolution, so the key packs into one u64
    /// and costs a single hash mix per crossing. The table is sized for
    /// *distinct* voxels, not crossings: near the sensor many rays share each
    /// voxel, so dividing the crossing estimate by a conservative sharing
    /// factor avoids allocating a table an order of magnitude too large.
    #[allow(clippy::type_complexity)]
    fn group_ray_range(
        grid: GridSpec,
        config: OctoMapConfig,
        half_extent: f64,
        cloud: &PointCloud,
        lo: usize,
        hi: usize,
    ) -> Vec<(u64, Vec3, f64, Vec<f64>)> {
        let origin = cloud.origin;
        let crossings_estimate =
            ((hi - lo) as f64 * (config.max_range / config.resolution)) as usize;
        let mut index_of: HashMap<u64, u32, VoxelHashBuilder> = HashMap::with_capacity_and_hasher(
            (crossings_estimate / 8).clamp(64, 1 << 18),
            VoxelHashBuilder::default(),
        );
        let mut grouped: Vec<(u64, Vec3, f64, Vec<f64>)> = Vec::new();
        for i in lo..hi {
            let point = cloud.point(i);
            Self::for_each_ray_update(
                grid,
                config,
                half_extent,
                &origin,
                &point,
                |cell, center, delta| match index_of.entry(pack_voxel_key(&cell)) {
                    std::collections::hash_map::Entry::Occupied(slot) => {
                        grouped[*slot.get() as usize].3.push(delta);
                    }
                    std::collections::hash_map::Entry::Vacant(slot) => {
                        slot.insert(grouped.len() as u32);
                        grouped.push((pack_voxel_key(&cell), center, delta, Vec::new()));
                    }
                },
            );
        }
        grouped
    }

    /// Integrates a whole point cloud using `threads` worker threads,
    /// producing a map bit-identical to [`OctoMap::insert_point_cloud`] on
    /// the same cloud (property-tested at every thread count).
    ///
    /// Three phases: (1) the scan is split into contiguous ray chunks, one
    /// worker grouping each chunk's per-voxel deltas; merging the chunk
    /// groupings in chunk order reproduces the serial first-touch grouping
    /// exactly, because chunks are contiguous in ray order. (2) Workers fold
    /// every voxel's ordered delta sequence through the clamp chain, starting
    /// from the voxel's pre-scan brick value. (3) A serial commit stores the
    /// folded values in grouping order, updating the occupancy indexes and
    /// counters through the single `OctoMap::update_leaf_apply` funnel.
    pub fn insert_point_cloud_parallel(&mut self, cloud: &PointCloud, threads: usize) {
        let threads = threads.max(1);
        let (grid, config, half_extent) = (self.grid, self.config, self.half_extent);
        // Phase 1: per-chunk grouping on workers, merged in chunk order.
        let chunk_len = cloud.len().div_ceil(threads).max(1);
        let ranges: Vec<(usize, usize)> = (0..cloud.len())
            .step_by(chunk_len)
            .map(|lo| (lo, (lo + chunk_len).min(cloud.len())))
            .collect();
        let chunk_groups = rayon::parallel_map_slice(&ranges, threads, |&(lo, hi)| {
            Self::group_ray_range(grid, config, half_extent, cloud, lo, hi)
        });
        let mut grouped: Vec<(Vec3, f64, Vec<f64>)> = Vec::new();
        let mut index_of: HashMap<u64, u32, VoxelHashBuilder> =
            HashMap::with_capacity_and_hasher(1 << 12, VoxelHashBuilder::default());
        for chunk in chunk_groups {
            for (key, center, first, rest) in chunk {
                match index_of.entry(key) {
                    std::collections::hash_map::Entry::Occupied(slot) => {
                        let entry = &mut grouped[*slot.get() as usize];
                        entry.2.push(first);
                        entry.2.extend(rest);
                    }
                    std::collections::hash_map::Entry::Vacant(slot) => {
                        slot.insert(grouped.len() as u32);
                        grouped.push((center, first, rest));
                    }
                }
            }
        }
        // Phase 2: read-only brick probe + clamp-chain fold per voxel, on
        // workers.
        let clamp = config.clamp;
        let chunk = grouped.len().div_ceil(threads).max(1);
        let folded: Vec<f64> = {
            use rayon::prelude::*;
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("shim pool build is infallible");
            pool.install(|| {
                grouped
                    .par_chunks(chunk)
                    .map(|entries| {
                        entries
                            .iter()
                            .map(|(center, first, rest)| {
                                let mut value = self.leaf_log_odds(center).unwrap_or(0.0);
                                value = (value + first).clamp(clamp.0, clamp.1);
                                for delta in rest {
                                    value = (value + delta).clamp(clamp.0, clamp.1);
                                }
                                value
                            })
                            .collect::<Vec<_>>()
                    })
                    .collect::<Vec<_>>()
            })
            .into_iter()
            .flatten()
            .collect()
        };
        // Phase 3: deterministic serial commit in grouping order.
        for ((center, _, rest), value) in grouped.iter().zip(folded) {
            let count = 1 + rest.len() as u64;
            self.update_leaf_apply(center, count, move |log_odds| *log_odds = value);
        }
    }

    /// Occupancy of the voxel containing `point`.
    pub fn query(&self, point: &Vec3) -> Occupancy {
        if !self.in_domain(point) {
            return Occupancy::Unknown;
        }
        match self.leaf_log_odds(point) {
            None => Occupancy::Unknown,
            Some(l) if l > self.config.occupied_threshold => Occupancy::Occupied,
            Some(_) => Occupancy::Free,
        }
    }

    /// Returns `true` when a vehicle of half-width `radius` centred at `point`
    /// overlaps any occupied *or unknown-adjacent* voxel. Unknown space is
    /// treated as free here; planners that must be conservative should also
    /// call [`OctoMap::query`] on the point itself.
    ///
    /// Served from the occupied-voxel hash index: instead of one point query
    /// per voxel of the inflation cube, the query enumerates the few
    /// occupied voxels inside it straight from the block bitmasks and
    /// classifies each against a precomputed offset ball. Decision-identical
    /// to the per-voxel scan it replaced, which the crate's tests keep as the
    /// oracle.
    pub fn is_occupied_with_inflation(&self, point: &Vec3, radius: f64) -> bool {
        if self.occupied_count == 0 {
            return false;
        }
        let r = radius.max(0.0);
        let reach = r + self.config.resolution * 0.87;
        let steps = (r / self.config.resolution).ceil() as i64;
        let center_idx = self.grid.index_of(point);
        let lo = GridIndex::new(
            center_idx.x - steps,
            center_idx.y - steps,
            center_idx.z - steps,
        );
        let hi = GridIndex::new(
            center_idx.x + steps,
            center_idx.y + steps,
            center_idx.z + steps,
        );
        let ball = offset_ball(self.config.resolution, r);
        self.scan_occupied_box(&lo, &hi, |v| {
            match ball.class(v.x - center_idx.x, v.y - center_idx.y, v.z - center_idx.z) {
                BALL_NEVER => false,
                BALL_ALWAYS => true,
                _ => self.grid.center_of(&v).distance(point) <= reach,
            }
        })
    }

    /// [`OctoMap::is_occupied_with_inflation`], but returning the *centre of
    /// the occupied voxel* that blocks the inflated vehicle (PR 5's
    /// blocking-voxel reporting), or `None` when the point is free. The
    /// `Some`/`None` decision is exactly the inflation predicate's; which of
    /// several blocking voxels is reported follows the query's scan order, so
    /// callers should treat it as "an occupied voxel inside the inflation
    /// ball", not a canonical nearest one.
    pub fn blocking_voxel_with_inflation(&self, point: &Vec3, radius: f64) -> Option<Vec3> {
        if self.occupied_count == 0 {
            return None;
        }
        let r = radius.max(0.0);
        let reach = r + self.config.resolution * 0.87;
        let steps = (r / self.config.resolution).ceil() as i64;
        let center_idx = self.grid.index_of(point);
        let lo = GridIndex::new(
            center_idx.x - steps,
            center_idx.y - steps,
            center_idx.z - steps,
        );
        let hi = GridIndex::new(
            center_idx.x + steps,
            center_idx.y + steps,
            center_idx.z + steps,
        );
        let ball = offset_ball(self.config.resolution, r);
        let mut blocking = None;
        self.scan_occupied_box(&lo, &hi, |v| {
            let hit = match ball.class(v.x - center_idx.x, v.y - center_idx.y, v.z - center_idx.z) {
                BALL_NEVER => false,
                BALL_ALWAYS => true,
                _ => self.grid.center_of(&v).distance(point) <= reach,
            };
            if hit {
                blocking = Some(self.grid.center_of(&v));
            }
            hit
        });
        blocking
    }

    /// Returns `true` when the straight segment between `a` and `b`, swept by
    /// a vehicle of half-width `radius`, avoids every occupied voxel.
    ///
    /// Decision-identical to the sampled predicate it replaced (a point
    /// sample every half-resolution, each an inflation-cube voxel scan; the
    /// crate's tests keep it as the oracle). This path walks the segment's
    /// crossed voxels with the grid DDA and probes the occupied-voxel index
    /// over the swept corridor — one bitmask probe per block instead of
    /// re-querying the whole inflation neighbourhood at every sample. Only
    /// when the corridor contains an occupied voxel does the exact sampled
    /// predicate run (against the indexed point query), so the common
    /// planner case — a free segment — never reads a brick at all.
    pub fn segment_free(&self, a: &Vec3, b: &Vec3, radius: f64) -> bool {
        if self.occupied_count == 0 {
            return true;
        }
        if self.segment_corridor_clear(a, b, radius) {
            return true;
        }
        // An occupied voxel sits near the swept corridor: fall back to the
        // exact sampled predicate (every candidate an old sample could see is
        // inside the corridor, so the prefilter never hides a collision).
        let dist = a.distance(b);
        let step = (self.config.resolution * 0.5).max(0.05);
        let samples = ((dist / step).ceil() as usize).max(1);
        for i in 0..=samples {
            let t = i as f64 / samples as f64;
            let p = a.lerp(b, t);
            if self.is_occupied_with_inflation(&p, radius) {
                return false;
            }
        }
        true
    }

    /// [`OctoMap::segment_free`], but returning the *centre of the occupied
    /// voxel* that blocks the swept segment (PR 5's blocking-voxel
    /// reporting), or `None` when the segment is free. `Some`/`None` agrees
    /// exactly with `segment_free` — same DDA corridor prefilter, same exact
    /// sampled predicate — so a collision monitor can aim its alert at the
    /// real obstruction in the *same* pass that detects it, instead of
    /// re-running the sampled predicate to locate what blocked the corridor.
    /// The reported voxel is the one blocking the first blocked sample along
    /// the segment (direction a → b).
    pub fn segment_blocking_voxel(&self, a: &Vec3, b: &Vec3, radius: f64) -> Option<Vec3> {
        if self.occupied_count == 0 || self.segment_corridor_clear(a, b, radius) {
            return None;
        }
        // An occupied voxel sits near the corridor: run the exact sampled
        // predicate once and report the voxel blocking the first blocked
        // sample.
        let dist = a.distance(b);
        let step = (self.config.resolution * 0.5).max(0.05);
        let samples = ((dist / step).ceil() as usize).max(1);
        for i in 0..=samples {
            let t = i as f64 / samples as f64;
            let p = a.lerp(b, t);
            if let Some(voxel) = self.blocking_voxel_with_inflation(&p, radius) {
                return Some(voxel);
            }
        }
        None
    }

    /// DDA prefilter for [`OctoMap::segment_free`]: walks the voxels crossed
    /// by the segment and probes the occupied-voxel index over an inflated
    /// corridor around them. Returns `true` when no occupied voxel lies
    /// anywhere in the corridor — which proves the sampled predicate free,
    /// because every voxel a sample's inflation cube can inspect is within
    /// `ceil(radius / resolution)` cells of the sample's own voxel, and every
    /// sample's voxel is within one cell of a crossed voxel (samples lie on
    /// the segment; the extra `+ 1` of padding absorbs corner-cutting and
    /// floating-point straddle at cell boundaries).
    fn segment_corridor_clear(&self, a: &Vec3, b: &Vec3, radius: f64) -> bool {
        let pad = (radius.max(0.0) / self.config.resolution).ceil() as i64 + 1;
        let mut cells = RAY_CELLS.with(|c| c.take());
        self.grid.traverse_into(a, b, &mut cells);
        let clear = self.corridor_cells_clear(&cells, pad);
        RAY_CELLS.with(|c| *c.borrow_mut() = cells);
        clear
    }

    /// The probe loop of [`OctoMap::segment_corridor_clear`] over an
    /// already-traversed cell sequence.
    fn corridor_cells_clear(&self, cells: &[GridIndex], pad: i64) -> bool {
        let mut prev: Option<GridIndex> = None;
        for &cell in cells {
            let occupied_near = match prev {
                // First cell: probe the full corridor cube around it.
                None => self.any_occupied_in_box(
                    &GridIndex::new(cell.x - pad, cell.y - pad, cell.z - pad),
                    &GridIndex::new(cell.x + pad, cell.y + pad, cell.z + pad),
                ),
                Some(p) => {
                    let (dx, dy, dz) = (cell.x - p.x, cell.y - p.y, cell.z - p.z);
                    if dx.abs() + dy.abs() + dz.abs() == 1 {
                        // Unit DDA step: the corridor cube moved by one cell,
                        // so only its leading face slab is new.
                        let (mut lo, mut hi) = (
                            GridIndex::new(cell.x - pad, cell.y - pad, cell.z - pad),
                            GridIndex::new(cell.x + pad, cell.y + pad, cell.z + pad),
                        );
                        if dx != 0 {
                            let face = if dx > 0 { hi.x } else { lo.x };
                            lo.x = face;
                            hi.x = face;
                        } else if dy != 0 {
                            let face = if dy > 0 { hi.y } else { lo.y };
                            lo.y = face;
                            hi.y = face;
                        } else {
                            let face = if dz > 0 { hi.z } else { lo.z };
                            lo.z = face;
                            hi.z = face;
                        }
                        self.any_occupied_in_box(&lo, &hi)
                    } else {
                        // Non-unit jump (the DDA's final end-cell append, or a
                        // budget-exhausted skip): conservatively probe the
                        // whole box spanning the jump.
                        self.any_occupied_in_box(
                            &GridIndex::new(
                                cell.x.min(p.x) - pad,
                                cell.y.min(p.y) - pad,
                                cell.z.min(p.z) - pad,
                            ),
                            &GridIndex::new(
                                cell.x.max(p.x) + pad,
                                cell.y.max(p.y) + pad,
                                cell.z.max(p.z) + pad,
                            ),
                        )
                    }
                }
            };
            if occupied_near {
                return false;
            }
            prev = Some(cell);
        }
        true
    }

    /// Returns `true` when any occupied voxel lies in the inclusive
    /// voxel-index box `[lo, hi]`.
    fn any_occupied_in_box(&self, lo: &GridIndex, hi: &GridIndex) -> bool {
        self.scan_occupied_box(lo, hi, |_| true)
    }

    /// Visits the occupied voxels inside the inclusive voxel-index box
    /// `[lo, hi]`, stopping early when `visit` returns `true`; returns
    /// whether any visit did. One hash probe per overlapped 4×4×4 block; the
    /// box window is cut out of each block's bitmask with three axis masks.
    fn scan_occupied_box(
        &self,
        lo: &GridIndex,
        hi: &GridIndex,
        mut visit: impl FnMut(GridIndex) -> bool,
    ) -> bool {
        for bz in lo.z.div_euclid(4)..=hi.z.div_euclid(4) {
            for by in lo.y.div_euclid(4)..=hi.y.div_euclid(4) {
                for bx in lo.x.div_euclid(4)..=hi.x.div_euclid(4) {
                    let Some(key) = pack_voxel_key_checked(&GridIndex::new(bx, by, bz)) else {
                        // Beyond the packing range means beyond the domain:
                        // those voxels are unobservable, never occupied.
                        continue;
                    };
                    let Some(&mask) = self.occupied_blocks.get(&key) else {
                        continue;
                    };
                    // Cut the box window out of the block: bit i = x + 4y +
                    // 16z, so the x range replicates over all 16 nibbles, the
                    // y range expands to nibbles replicated over the four z
                    // groups, and the z range expands to 16-bit groups.
                    let window = mask
                        & (axis_bits(lo.x, hi.x, bx) * 0x1111_1111_1111_1111)
                        & (NIBBLE_EXPAND[axis_bits(lo.y, hi.y, by) as usize]
                            * 0x0001_0001_0001_0001)
                        & GROUP_EXPAND[axis_bits(lo.z, hi.z, bz) as usize];
                    let mut m = window;
                    while m != 0 {
                        let bit = m.trailing_zeros() as i64;
                        m &= m - 1;
                        let v = GridIndex::new(
                            bx * 4 + (bit & 3),
                            by * 4 + ((bit >> 2) & 3),
                            bz * 4 + (bit >> 4),
                        );
                        if visit(v) {
                            return true;
                        }
                    }
                }
            }
        }
        false
    }

    /// Number of occupied voxels. O(1): served from the incrementally
    /// maintained counter, which the crate's tests check against the
    /// pointer-octree oracle.
    pub fn occupied_voxel_count(&self) -> usize {
        self.occupied_count
    }

    /// Number of observed (free or occupied) voxels. O(1): the size of the
    /// known-leaf index, which reproduces the historical octree-walk
    /// accounting exactly (including its dedup by rounded centre).
    pub fn known_voxel_count(&self) -> usize {
        self.known_leaves.len()
    }

    /// Volume of observed space in cubic metres.
    pub fn mapped_volume(&self) -> f64 {
        self.known_voxel_count() as f64 * self.config.resolution.powi(3)
    }

    /// Centres of all known free voxels. Frontier extraction builds on this.
    ///
    /// Served from the known-leaf index — O(known voxels) — and
    /// bit-identical (centres, set membership and order) to the octree leaf
    /// walk it replaced, which the crate's tests keep as the oracle.
    pub fn free_voxel_centers(&self) -> Vec<Vec3> {
        let mut centers = Vec::new();
        self.free_voxel_centers_into(&mut centers);
        centers
    }

    /// [`OctoMap::free_voxel_centers`] into a caller-supplied buffer (cleared
    /// first), so a per-replan caller — frontier extraction ticks this every
    /// planning cycle — reuses one allocation instead of collecting a fresh
    /// `Vec` per call. Contents and order are identical to the allocating
    /// variant, which is implemented on top of this.
    pub fn free_voxel_centers_into(&self, centers: &mut Vec<Vec3>) {
        centers.clear();
        centers.extend(
            self.known_leaves
                .values()
                .filter(|leaf| !leaf.occupied)
                .map(|leaf| leaf.center),
        );
        // `total_cmp` + unstable sort orders identically to the historical
        // stable partial_cmp tuple sort here: centres are finite, never ±0.0
        // (they sit at (k + ½)·resolution) and pairwise distinct, so the two
        // comparators agree and stability cannot matter — while the unstable
        // sort skips the merge-sort temp buffer this hot path paid per call.
        centers.sort_unstable_by(|a, b| {
            a.x.total_cmp(&b.x)
                .then(a.y.total_cmp(&b.y))
                .then(a.z.total_cmp(&b.z))
        });
    }

    /// Centres of all occupied voxels.
    ///
    /// Served from the occupied block-bitmask index: one `center_of` per set
    /// mask bit. Unlike an octree leaf walk this is exact per voxel (the
    /// walk's rounded-centre dedup can merge two adjacent voxels at
    /// non-dyadic resolutions), and centres are the grid's
    /// canonical voxel centres.
    pub fn occupied_voxel_centers(&self) -> Vec<Vec3> {
        let mut centers = Vec::new();
        self.occupied_voxel_centers_into(&mut centers);
        centers
    }

    /// [`OctoMap::occupied_voxel_centers`] into a caller-supplied buffer
    /// (cleared first), the zero-allocation sibling of
    /// [`OctoMap::free_voxel_centers_into`]. Contents and order are identical
    /// to the allocating variant, which is implemented on top of this.
    pub fn occupied_voxel_centers_into(&self, centers: &mut Vec<Vec3>) {
        centers.clear();
        centers.reserve(self.occupied_count);
        for (&key, &mask) in &self.occupied_blocks {
            let block = unpack_voxel_key(key);
            let mut m = mask;
            while m != 0 {
                let bit = m.trailing_zeros() as i64;
                m &= m - 1;
                let voxel = GridIndex::new(
                    block.x * 4 + (bit & 3),
                    block.y * 4 + ((bit >> 2) & 3),
                    block.z * 4 + (bit >> 4),
                );
                centers.push(self.grid.center_of(&voxel));
            }
        }
        // Same comparator-equivalence argument as `free_voxel_centers_into`.
        centers.sort_unstable_by(|a, b| {
            a.x.total_cmp(&b.x)
                .then(a.y.total_cmp(&b.y))
                .then(a.z.total_cmp(&b.z))
        });
    }

    /// Returns `true` when the voxel containing `point` has never been
    /// observed.
    pub fn is_unknown(&self, point: &Vec3) -> bool {
        self.query(point) == Occupancy::Unknown
    }

    /// Returns `true` when any of the 6 face-neighbour voxels of the voxel
    /// containing `point` is unknown — the frontier predicate, asked once per
    /// free voxel every replan.
    ///
    /// Decision-identical to probing `point ± resolution` along each axis
    /// with [`OctoMap::is_unknown`] (property-tested), but served by grid
    /// index: six brick `known`-bit reads with no boundary comparisons. An
    /// out-of-domain neighbour is never observed, so it reads as unknown
    /// exactly as [`OctoMap::query`] reports it; neighbour indices sit at
    /// most one voxel outside the domain, within the alias-free range
    /// [`OctoMap::check_domain`] guarantees.
    pub fn has_unknown_neighbor6(&self, point: &Vec3) -> bool {
        let idx = self.grid.index_of(point);
        idx.neighbors6()
            .iter()
            .any(|n| self.cell_log_odds(n).is_none())
    }

    /// Rebuilds this map's observations into a new map at a different
    /// resolution (the dynamic-resolution policy of the paper's energy case
    /// study switches between 0.15 m and 0.80 m at runtime).
    ///
    /// The new map covers this map's whole aligned domain, widened again to
    /// a power-of-two voxel cube at the new resolution, so alternating
    /// between two resolutions can double the domain every round trip.
    ///
    /// # Errors
    ///
    /// Returns [`OctoMap::check_domain`]'s message when the rebuilt domain
    /// is invalid at `new_resolution`; this map is left untouched.
    pub fn reresolved(&self, new_resolution: f64) -> Result<OctoMap, String> {
        Self::check_domain(new_resolution, self.half_extent)?;
        let mut config = self.config;
        config.resolution = new_resolution;
        let mut out = OctoMap::new(config, self.half_extent);
        for (center, log_odds) in self.collect_leaves() {
            out.update_leaf(&center, log_odds);
        }
        Ok(out)
    }

    /// Axis-aligned bounds of the map domain.
    pub fn domain(&self) -> Aabb {
        Aabb::new(
            Vec3::splat(-self.half_extent),
            Vec3::splat(self.half_extent),
        )
    }

    // ------------------------------------------------------------------
    // Internal brick-map machinery.
    // ------------------------------------------------------------------

    /// Locates the voxel containing `point` by the octree descent's
    /// comparisons, without a tree: per level and axis the centre moves a
    /// quarter of the current half-extent toward `point` (`>=` takes the
    /// upper half). Returns the voxel index, the centre exactly as that
    /// chain of additions accumulates it, and the depth-first rank of the
    /// full-depth leaf (see [`KnownLeaf::rank`]). The branch bits of each
    /// axis are its voxel index biased by `2^(depth-1)`. Points outside the
    /// domain land in the nearest boundary voxel, as the descent did.
    ///
    /// This, not `GridSpec::index_of`, decides which voxel a point on a
    /// voxel boundary belongs to: [`OctoMap::reresolved`] inserts old voxel
    /// centres that can sit exactly on the new grid's boundaries (a 0.8 m
    /// centre at 1.2 m is a 0.15 m boundary).
    fn locate(&self, point: &Vec3) -> (GridIndex, Vec3, u64) {
        /// Moves `c` a quarter toward `p`; returns the branch bit.
        fn halve(p: f64, c: &mut f64, quarter: f64) -> u64 {
            if p >= *c {
                *c += quarter;
                1
            } else {
                *c -= quarter;
                0
            }
        }
        let mut center = Vec3::ZERO;
        let (mut bx, mut by, mut bz, mut rank) = (0u64, 0u64, 0u64, 0u64);
        let mut half = self.half_extent;
        for _ in 0..self.depth {
            let quarter = half / 2.0;
            let x = halve(point.x, &mut center.x, quarter);
            let y = halve(point.y, &mut center.y, quarter);
            let z = halve(point.z, &mut center.z, quarter);
            (bx, by, bz) = (bx << 1 | x, by << 1 | y, bz << 1 | z);
            rank = rank << 3 | x | y << 1 | z << 2;
            half = quarter;
        }
        let bias = 1i64 << (self.depth - 1);
        let cell = GridIndex::new(bx as i64 - bias, by as i64 - bias, bz as i64 - bias);
        (cell, center, rank)
    }

    /// Log-odds of voxel `cell`, or `None` while it is unknown.
    fn cell_log_odds(&self, cell: &GridIndex) -> Option<f64> {
        let (block, slot) = block_of(cell);
        let brick = &self.bricks[*self.known_blocks.get(&pack_voxel_key(&block))? as usize];
        (brick.known & (1 << slot) != 0).then_some(brick.log_odds[slot])
    }

    /// Log-odds of the voxel containing `point`, or `None` while it is
    /// unknown.
    fn leaf_log_odds(&self, point: &Vec3) -> Option<f64> {
        self.cell_log_odds(&self.locate(point).0)
    }

    fn update_leaf(&mut self, point: &Vec3, delta: f64) {
        let clamp = self.config.clamp;
        self.update_leaf_apply(point, 1, move |log_odds| {
            *log_odds = (*log_odds + delta).clamp(clamp.0, clamp.1);
        });
    }

    /// Applies `apply` to the log-odds of the voxel containing `point`
    /// (0.0 for a voxel observed for the first time), recording `count`
    /// voxel updates. The parallel commit stores a whole voxel's folded
    /// delta sequence this way.
    ///
    /// Every voxel creation and occupancy flip flows through here — single
    /// rays, parallel scans and [`OctoMap::reresolved`] alike — so this is
    /// the one place the occupied-block index, the known-leaf index and the
    /// O(1) counters are kept in sync with the bricks. (A ray crossing that
    /// neither creates a voxel nor flips it skips this; see
    /// `OctoMap::update_cell`.)
    fn update_leaf_apply<F: FnOnce(&mut f64)>(&mut self, point: &Vec3, count: u64, apply: F) {
        if !self.in_domain(point) {
            return;
        }
        let (cell, center, rank) = self.locate(point);
        let (block, slot) = block_of(&cell);
        let bricks = &mut self.bricks;
        let brick = *self
            .known_blocks
            .entry(pack_voxel_key(&block))
            .or_insert_with(|| {
                bricks.push(Brick::EMPTY);
                (bricks.len() - 1) as u32
            });
        let brick = &mut self.bricks[brick as usize];
        let bit = 1u64 << slot;
        let created = brick.known & bit == 0;
        brick.known |= bit;
        let before = brick.log_odds[slot];
        apply(&mut brick.log_odds[slot]);
        let after = brick.log_odds[slot];
        self.updates += count;
        let threshold = self.config.occupied_threshold;
        let now = after > threshold;
        let was = !created && before > threshold;
        if !created && was == now {
            return;
        }
        // The dedup key a leaf walk computes from this voxel's centre. When
        // two voxels collide on a key, the one later in walk order wins,
        // exactly as the walk's last-wins dedup insert decides.
        let res = self.config.resolution;
        let key = pack_voxel_key(&GridIndex::new(
            (center.x / res).round() as i64,
            (center.y / res).round() as i64,
            (center.z / res).round() as i64,
        ));
        if created {
            let leaf = KnownLeaf {
                center,
                rank,
                occupied: now,
            };
            match self.known_leaves.entry(key) {
                std::collections::hash_map::Entry::Occupied(mut entry) => {
                    if entry.get().rank <= rank {
                        entry.insert(leaf);
                    }
                }
                std::collections::hash_map::Entry::Vacant(entry) => {
                    entry.insert(leaf);
                }
            }
        } else if let Some(entry) = self.known_leaves.get_mut(&key) {
            // A flip reaches the index only through its key's dedup winner;
            // a shadowed voxel is invisible to the walk this index mirrors.
            if entry.rank == rank {
                entry.occupied = now;
            }
        }
        if was == now {
            return;
        }
        if now {
            self.occupied_count += 1;
        } else {
            self.occupied_count -= 1;
        }
        let key = pack_voxel_key(&block);
        if now {
            *self.occupied_blocks.entry(key).or_insert(0) |= bit;
        } else if let Some(mask) = self.occupied_blocks.get_mut(&key) {
            *mask &= !bit;
            if *mask == 0 {
                self.occupied_blocks.remove(&key);
            }
        }
    }

    /// Every observed voxel's (centre, log-odds) as a leaf walk reports it:
    /// deduplicated by rounded centre (the known-leaf index's winners) and
    /// sorted by coordinates.
    fn collect_leaves(&self) -> Vec<(Vec3, f64)> {
        let mut leaves: Vec<(Vec3, f64)> = self
            .known_leaves
            .values()
            .filter_map(|leaf| Some((leaf.center, self.leaf_log_odds(&leaf.center)?)))
            .collect();
        // Chained `total_cmp` ≡ the historical `partial_cmp` tuple sort:
        // voxel centres sit at (k + ½)·resolution, so they are finite, never
        // ±0.0, and pairwise distinct after the dedup — the comparators can
        // only disagree on values that never occur here (same argument as
        // the `free_voxel_centers_into` hot path).
        leaves.sort_by(|a, b| {
            a.0.x
                .total_cmp(&b.0.x)
                .then(a.0.y.total_cmp(&b.0.y))
                .then(a.0.z.total_cmp(&b.0.z))
        });
        leaves
    }
}

/// Offset added to each voxel-index axis before it is packed into 21 bits:
/// keys hold indices of magnitude below it. [`OctoMap::check_domain`] keeps
/// every map inside that range.
const KEY_BIAS: i64 = 1 << 20;

/// Packs an in-domain voxel index into one u64 key (21 bits per axis,
/// offset-biased by [`KEY_BIAS`]).
fn pack_voxel_key(cell: &GridIndex) -> u64 {
    debug_assert!(
        cell.x.abs() < KEY_BIAS && cell.y.abs() < KEY_BIAS && cell.z.abs() < KEY_BIAS,
        "voxel index out of packing range: {cell:?}"
    );
    (((cell.x + KEY_BIAS) as u64) << 42)
        | (((cell.y + KEY_BIAS) as u64) << 21)
        | ((cell.z + KEY_BIAS) as u64)
}

/// Inverse of [`pack_voxel_key`]: recovers the voxel (or block) index.
fn unpack_voxel_key(key: u64) -> GridIndex {
    const MASK: u64 = (1 << 21) - 1;
    GridIndex::new(
        ((key >> 42) & MASK) as i64 - KEY_BIAS,
        ((key >> 21) & MASK) as i64 - KEY_BIAS,
        (key & MASK) as i64 - KEY_BIAS,
    )
}

/// [`pack_voxel_key`] for query neighbourhoods, which may legitimately reach
/// beyond the packing range: any index at or beyond ±[`KEY_BIAS`] has its
/// centre outside the map domain, so `None` simply means "unobservable,
/// never occupied".
fn pack_voxel_key_checked(cell: &GridIndex) -> Option<u64> {
    if cell.x.abs() < KEY_BIAS && cell.y.abs() < KEY_BIAS && cell.z.abs() < KEY_BIAS {
        Some(pack_voxel_key(cell))
    } else {
        None
    }
}

thread_local! {
    /// Per-thread DDA cell buffer shared by ray insertion and the segment
    /// corridor prefilter — the two per-call traversals hot enough to show up
    /// in episode allocation counts. Take/replace (not borrow-across-call) so
    /// an unexpected nesting falls back to a fresh allocation instead of a
    /// RefCell panic.
    static RAY_CELLS: RefCell<Vec<GridIndex>> = const { RefCell::new(Vec::new()) };
}

/// Splits a voxel index into its 4×4×4 block coordinates and the block-local
/// slot `x + 4·y + 16·z` over the euclidean remainders: the voxel's bit in a
/// block bitmask and its entry in a brick.
fn block_of(idx: &GridIndex) -> (GridIndex, usize) {
    let block = GridIndex::new(
        idx.x.div_euclid(4),
        idx.y.div_euclid(4),
        idx.z.div_euclid(4),
    );
    let slot = idx.x.rem_euclid(4) + 4 * idx.y.rem_euclid(4) + 16 * idx.z.rem_euclid(4);
    (block, slot as usize)
}

/// 4-bit mask of the block-local coordinates (0..4) of block `b` that fall
/// inside the inclusive axis range `[lo, hi]` (in voxel coordinates). Empty
/// intersections cannot occur: blocks are only enumerated over the box.
fn axis_bits(lo: i64, hi: i64, b: i64) -> u64 {
    let a = (lo.max(b * 4) - b * 4) as u32;
    let c = (hi.min(b * 4 + 3) - b * 4) as u32;
    ((1u64 << (c + 1)) - (1u64 << a)) & 0xF
}

/// Expands a 4-bit axis mask so each set bit becomes a nibble (`0xF`): the y
/// window of a block bitmask, before replication across the four z groups.
const NIBBLE_EXPAND: [u64; 16] = {
    let mut table = [0u64; 16];
    let mut m = 0;
    while m < 16 {
        let mut bits = 0u64;
        let mut i = 0;
        while i < 4 {
            if m & (1 << i) != 0 {
                bits |= 0xF << (4 * i);
            }
            i += 1;
        }
        table[m] = bits;
        m += 1;
    }
    table
};

/// Expands a 4-bit axis mask so each set bit becomes a 16-bit group: the z
/// window of a block bitmask.
const GROUP_EXPAND: [u64; 16] = {
    let mut table = [0u64; 16];
    let mut m = 0;
    while m < 16 {
        let mut bits = 0u64;
        let mut i = 0;
        while i < 4 {
            if m & (1 << i) != 0 {
                bits |= 0xFFFF << (16 * i);
            }
            i += 1;
        }
        table[m] = bits;
        m += 1;
    }
    table
};

/// Offset classes of the precomputed inflation ball: an occupied voxel at a
/// `NEVER` offset can never satisfy the reference distance test for any point
/// inside the centre voxel, an `ALWAYS` offset always does, and a `CHECK`
/// offset needs the exact per-query distance test.
const BALL_NEVER: u8 = 0;
const BALL_CHECK: u8 = 1;
const BALL_ALWAYS: u8 = 2;

/// The classified inflation neighbourhood for one (resolution, radius) pair:
/// a `(2·steps + 1)³` cube of [`BALL_NEVER`]/[`BALL_CHECK`]/[`BALL_ALWAYS`]
/// classes, indexed by voxel offset from the query point's voxel.
struct OffsetBall {
    steps: i64,
    classes: Vec<u8>,
}

impl OffsetBall {
    fn build(resolution: f64, radius: f64) -> OffsetBall {
        let reach = radius + resolution * 0.87;
        let steps = (radius / resolution).ceil() as i64;
        let width = (2 * steps + 1) as usize;
        let mut classes = vec![BALL_NEVER; width * width * width];
        // Guard band for the worst-case / best-case distance bounds below:
        // they are evaluated in floating point, so knife-edge offsets are
        // pushed into the exact-check class rather than misclassified.
        let eps = 1e-9 * resolution;
        let mut i = 0;
        for dx in -steps..=steps {
            for dy in -steps..=steps {
                for dz in -steps..=steps {
                    // For a query point anywhere in its voxel, the distance to
                    // the centre of the voxel `steps` away is bounded per axis
                    // by (|d| - 0.5)·res below and (|d| + 0.5)·res above.
                    let lo = |d: i64| (d.abs() as f64 - 0.5).max(0.0) * resolution;
                    let hi = |d: i64| (d.abs() as f64 + 0.5) * resolution;
                    let nearest = (lo(dx).powi(2) + lo(dy).powi(2) + lo(dz).powi(2)).sqrt();
                    let farthest = (hi(dx).powi(2) + hi(dy).powi(2) + hi(dz).powi(2)).sqrt();
                    classes[i] = if nearest > reach + eps {
                        BALL_NEVER
                    } else if farthest + eps <= reach {
                        BALL_ALWAYS
                    } else {
                        BALL_CHECK
                    };
                    i += 1;
                }
            }
        }
        OffsetBall { steps, classes }
    }

    /// Class of the offset `(dx, dy, dz)`; offsets outside the cube are
    /// `BALL_NEVER` (cannot happen for boxes built from the same `steps`).
    fn class(&self, dx: i64, dy: i64, dz: i64) -> u8 {
        let s = self.steps;
        if dx.abs() > s || dy.abs() > s || dz.abs() > s {
            return BALL_NEVER;
        }
        let w = 2 * s + 1;
        self.classes[(((dx + s) * w + (dy + s)) * w + (dz + s)) as usize]
    }
}

/// One cached inflation ball, keyed by the `(resolution, radius)` bit
/// patterns it was built for.
type CachedBall = ((u64, u64), Rc<OffsetBall>);

thread_local! {
    /// Per-thread cache of classified inflation balls. Planners query one or
    /// two radii per mission, so a small linear map beats hashing.
    static OFFSET_BALLS: RefCell<Vec<CachedBall>> = const { RefCell::new(Vec::new()) };
}

/// The classified inflation ball for `(resolution, radius)`, built on first
/// use per thread.
fn offset_ball(resolution: f64, radius: f64) -> Rc<OffsetBall> {
    let key = (resolution.to_bits(), radius.to_bits());
    OFFSET_BALLS.with(|cache| {
        let mut cache = cache.borrow_mut();
        if let Some((_, ball)) = cache.iter().find(|(k, _)| *k == key) {
            return Rc::clone(ball);
        }
        let ball = Rc::new(OffsetBall::build(resolution, radius));
        cache.push((key, Rc::clone(&ball)));
        ball
    })
}

/// A cheap multiply-xor hasher for packed voxel keys.
///
/// Ray insertion probes the block table on every ray/voxel crossing, where
/// the standard SipHash would cost more than the rest of the crossing.
/// Voxel keys are single, adversary-free integers, so one SplitMix-style mix
/// is plenty.
#[derive(Clone, Copy, Default)]
struct VoxelHasher(u64);

impl std::hash::Hasher for VoxelHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn write_u64(&mut self, value: u64) {
        let mut x = self.0 ^ value;
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        self.0 = x ^ (x >> 31);
    }
}

type VoxelHashBuilder = std::hash::BuildHasherDefault<VoxelHasher>;

impl PartialEq for OctoMap {
    /// Logical equality: the same geometry, counters and indexes, and the
    /// same observed voxels with the same log-odds. Brick indices are
    /// physical (creation order), so bricks are matched by block key.
    fn eq(&self, other: &Self) -> bool {
        self.config == other.config
            && self.half_extent == other.half_extent
            && self.depth == other.depth
            && self.grid == other.grid
            && self.updates == other.updates
            && self.occupied_count == other.occupied_count
            && self.occupied_blocks == other.occupied_blocks
            && self.known_leaves == other.known_leaves
            && self.known_blocks.len() == other.known_blocks.len()
            // mav-lint: allow(DET-HASH-ITER): a conjunction is order-independent
            && self.known_blocks.iter().all(|(key, &a)| {
                other
                    .known_blocks
                    .get(key)
                    .is_some_and(|&b| self.bricks[a as usize] == other.bricks[b as usize])
            })
    }
}

impl fmt::Display for OctoMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "octomap[res {:.2} m, {} known voxels, {} occupied]",
            self.config.resolution,
            self.known_voxel_count(),
            self.occupied_voxel_count()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The pre-index query paths and the create/flip-only insertion path:
    /// the executable specifications the indexed queries and the brick-slot
    /// fast path are tested against.
    impl OctoMap {
        /// The pre-index inflation query: one point query per voxel of the
        /// inflation cube.
        fn is_occupied_with_inflation_reference(&self, point: &Vec3, radius: f64) -> bool {
            let r = radius.max(0.0);
            let steps = (r / self.config.resolution).ceil() as i64;
            let center_idx = self.grid.index_of(point);
            for dx in -steps..=steps {
                for dy in -steps..=steps {
                    for dz in -steps..=steps {
                        let idx =
                            GridIndex::new(center_idx.x + dx, center_idx.y + dy, center_idx.z + dz);
                        let c = self.grid.center_of(&idx);
                        if c.distance(point) <= r + self.config.resolution * 0.87
                            && self.query(&c) == Occupancy::Occupied
                        {
                            return true;
                        }
                    }
                }
            }
            false
        }

        /// The pre-index swept-segment predicate: a point sample every
        /// half-resolution, each paying a full inflation-cube voxel scan.
        fn segment_free_reference(&self, a: &Vec3, b: &Vec3, radius: f64) -> bool {
            let dist = a.distance(b);
            let step = (self.config.resolution * 0.5).max(0.05);
            let samples = ((dist / step).ceil() as usize).max(1);
            for i in 0..=samples {
                let t = i as f64 / samples as f64;
                let p = a.lerp(b, t);
                if self.is_occupied_with_inflation_reference(&p, radius) {
                    return false;
                }
            }
            true
        }

        /// [`OctoMap::insert_ray`] without the brick-slot fast path: every
        /// crossing takes the create/flip path of [`OctoMap::update_leaf`].
        fn insert_ray_by_descent(&mut self, origin: &Vec3, endpoint: &Vec3) {
            let (grid, config, half_extent) = (self.grid, self.config, self.half_extent);
            Self::for_each_ray_update(
                grid,
                config,
                half_extent,
                origin,
                endpoint,
                |_cell, center, delta| self.update_leaf(&center, delta),
            );
        }

        /// Checks the bricks against the pointer-octree oracle `tree`: every
        /// known brick slot holds the log-odds of the leaf the oracle's
        /// descent reaches from that voxel's centre, and there are as many
        /// known slots as oracle leaves.
        fn brick_slots_mismatch(&self, tree: &reference::ReferenceMap) -> Option<String> {
            let mut slots = 0;
            for (&key, &brick) in &self.known_blocks {
                let block = unpack_voxel_key(key);
                let brick = &self.bricks[brick as usize];
                for slot in 0..64 {
                    if brick.known & (1 << slot) == 0 {
                        continue;
                    }
                    slots += 1;
                    let cell = GridIndex::new(
                        block.x * 4 + (slot & 3),
                        block.y * 4 + ((slot >> 2) & 3),
                        block.z * 4 + (slot >> 4),
                    );
                    let value = brick.log_odds[slot as usize];
                    let leaf = tree.leaf_log_odds(&self.grid.center_of(&cell));
                    if leaf.map(f64::to_bits) != Some(value.to_bits()) {
                        return Some(format!("{cell:?}: slot {value}, oracle {leaf:?}"));
                    }
                }
            }
            (slots != tree.leaf_count())
                .then(|| format!("{slots} slots for {} leaves", tree.leaf_count()))
        }
    }

    /// The pointer-chasing octree the brick map replaced, kept as a
    /// differential oracle: every node is a separate heap allocation reached
    /// through `Vec<Option<Node>>` child pointers. The equivalence proptests
    /// drive [`reference::ReferenceMap`] and [`OctoMap`] with the same ray
    /// sequences and compare per-point log-odds, full leaf collections and
    /// the counts and centre lists derived from them, so any behavioural
    /// drift in the brick map shows up as a differential failure rather
    /// than a silent golden change.
    mod reference {
        use crate::octomap::{OctoMap, OctoMapConfig};
        use mav_types::{GridSpec, Vec3};
        use std::collections::HashMap;

        /// Index (0..8) and centre of the child octant containing `point`.
        pub fn child_of(point: &Vec3, center: &Vec3, half: f64) -> (usize, Vec3) {
            let quarter = half / 2.0;
            let mut idx = 0usize;
            let mut child_center = *center;
            if point.x >= center.x {
                idx |= 1;
                child_center.x += quarter;
            } else {
                child_center.x -= quarter;
            }
            if point.y >= center.y {
                idx |= 2;
                child_center.y += quarter;
            } else {
                child_center.y -= quarter;
            }
            if point.z >= center.z {
                idx |= 4;
                child_center.z += quarter;
            } else {
                child_center.z -= quarter;
            }
            (idx, child_center)
        }

        #[derive(Debug, Clone)]
        enum Node {
            Leaf { log_odds: f64 },
            Inner { children: Vec<Option<Node>> },
        }

        impl Node {
            fn new_inner() -> Self {
                Node::Inner {
                    children: vec![None; 8],
                }
            }
        }

        /// Pointer-tree occupancy map with the original update and collection
        /// logic, reduced to the surface the differential tests need.
        #[derive(Debug, Clone)]
        pub struct ReferenceMap {
            config: OctoMapConfig,
            half_extent: f64,
            depth: u32,
            grid: GridSpec,
            root: Option<Node>,
        }

        impl ReferenceMap {
            /// Shares [`OctoMap::new`]'s domain alignment so both maps agree
            /// on leaf geometry.
            pub fn new(config: OctoMapConfig, half_extent: f64) -> Self {
                let (depth, half_extent) = OctoMap::aligned_domain(config.resolution, half_extent);
                ReferenceMap {
                    grid: GridSpec::new(config.resolution),
                    config,
                    half_extent,
                    depth,
                    root: None,
                }
            }

            /// Integrates one sensor ray with the shared ray enumeration, so the
            /// oracle and the brick map can only diverge in their *store*
            /// logic.
            pub fn insert_ray(&mut self, origin: &Vec3, endpoint: &Vec3) {
                let (grid, config, half_extent) = (self.grid, self.config, self.half_extent);
                let clamp = config.clamp;
                OctoMap::for_each_ray_update(
                    grid,
                    config,
                    half_extent,
                    origin,
                    endpoint,
                    |_cell, center, delta| {
                        self.update_leaf(&center, move |log_odds| {
                            *log_odds = (*log_odds + delta).clamp(clamp.0, clamp.1);
                        });
                    },
                );
            }

            /// Rebuilds the observations at a different resolution — the old
            /// `OctoMap::reresolved` verbatim (collect, then re-apply each leaf's
            /// log-odds as one clamped delta into the new tree).
            pub fn reresolved(&self, new_resolution: f64) -> ReferenceMap {
                let mut config = self.config;
                config.resolution = new_resolution;
                let clamp = config.clamp;
                let mut out = ReferenceMap::new(config, self.half_extent);
                for (center, log_odds) in self.collect() {
                    out.update_leaf(&center, move |l| {
                        *l = (*l + log_odds).clamp(clamp.0, clamp.1);
                    });
                }
                out
            }

            /// The leaf log-odds containing `point`, when observed.
            pub fn leaf_log_odds(&self, point: &Vec3) -> Option<f64> {
                let mut node = self.root.as_ref()?;
                let mut center = Vec3::ZERO;
                let mut half = self.half_extent;
                for _ in 0..self.depth {
                    match node {
                        Node::Leaf { log_odds } => return Some(*log_odds),
                        Node::Inner { children } => {
                            let (idx, child_center) = child_of(point, &center, half);
                            node = children[idx].as_ref()?;
                            center = child_center;
                            half /= 2.0;
                        }
                    }
                }
                match node {
                    Node::Leaf { log_odds } => Some(*log_odds),
                    Node::Inner { .. } => None,
                }
            }

            fn in_domain(&self, point: &Vec3) -> bool {
                point.x.abs() <= self.half_extent
                    && point.y.abs() <= self.half_extent
                    && point.z.abs() <= self.half_extent
            }

            fn update_leaf<F: FnOnce(&mut f64)>(&mut self, point: &Vec3, apply: F) {
                if !self.in_domain(point) {
                    return;
                }
                let depth = self.depth;
                let half = self.half_extent;
                let root = self.root.get_or_insert_with(Node::new_inner);
                Self::update_recursive(root, point, apply, Vec3::ZERO, half, depth);
            }

            fn update_recursive<F: FnOnce(&mut f64)>(
                node: &mut Node,
                point: &Vec3,
                apply: F,
                center: Vec3,
                half: f64,
                remaining_depth: u32,
            ) {
                if remaining_depth == 0 {
                    match node {
                        Node::Leaf { log_odds } => apply(log_odds),
                        Node::Inner { .. } => {
                            let mut log_odds = 0.0;
                            apply(&mut log_odds);
                            *node = Node::Leaf { log_odds };
                        }
                    }
                    return;
                }
                match node {
                    Node::Leaf { log_odds } => {
                        // A coarse leaf observed at a shallower depth: refine it
                        // by pushing its value down (simple expansion).
                        let existing = *log_odds;
                        *node = Node::new_inner();
                        let Node::Inner { children } = node else {
                            unreachable!("node was just replaced by an inner node");
                        };
                        let (idx, child_center) = child_of(point, &center, half);
                        let child = children[idx].get_or_insert(Node::Leaf { log_odds: existing });
                        Self::update_recursive(
                            child,
                            point,
                            apply,
                            child_center,
                            half / 2.0,
                            remaining_depth - 1,
                        );
                    }
                    Node::Inner { children } => {
                        let (idx, child_center) = child_of(point, &center, half);
                        let child = children[idx].get_or_insert_with(|| {
                            if remaining_depth == 1 {
                                Node::Leaf { log_odds: 0.0 }
                            } else {
                                Node::new_inner()
                            }
                        });
                        Self::update_recursive(
                            child,
                            point,
                            apply,
                            child_center,
                            half / 2.0,
                            remaining_depth - 1,
                        );
                    }
                }
            }

            /// Every observed leaf's (centre, log-odds), deduplicated by rounded
            /// voxel key (last wins, pre-order walk order) and sorted by
            /// coordinates — the old `collect_leaves` verbatim.
            pub fn collect(&self) -> Vec<(Vec3, f64)> {
                let out = self.walk();

                let mut dedup: HashMap<(i64, i64, i64), (Vec3, f64)> = HashMap::new();
                for (c, l) in out {
                    let key = (
                        (c.x / self.config.resolution).round() as i64,
                        (c.y / self.config.resolution).round() as i64,
                        (c.z / self.config.resolution).round() as i64,
                    );
                    dedup.insert(key, (c, l));
                }
                let mut v: Vec<(Vec3, f64)> = dedup.into_values().collect();
                // Same comparator-equivalence argument as `collect_leaves`:
                // (k + ½)·resolution centres are finite, never ±0.0, distinct.
                v.sort_by(|a, b| {
                    a.0.x
                        .total_cmp(&b.0.x)
                        .then(a.0.y.total_cmp(&b.0.y))
                        .then(a.0.z.total_cmp(&b.0.z))
                });
                v
            }

            /// Number of leaves in the tree, before any dedup.
            pub fn leaf_count(&self) -> usize {
                self.walk().len()
            }

            /// [`OctoMap::known_voxel_count`] recomputed by a leaf walk.
            pub fn known_voxel_count_scan(&self) -> usize {
                self.collect().len()
            }

            /// [`OctoMap::occupied_voxel_count`] recomputed by a leaf walk.
            /// At non-dyadic resolutions the walk's dedup can merge adjacent
            /// leaves whose noisy centres round to the same key, so it may
            /// run a few voxels *below* the exact per-voxel count the
            /// collision queries (and the O(1) counter) use; at dyadic
            /// resolutions the two agree exactly.
            pub fn occupied_voxel_count_scan(&self) -> usize {
                self.occupied_voxel_centers_scan().len()
            }

            /// [`OctoMap::free_voxel_centers`] recomputed by a leaf walk.
            pub fn free_voxel_centers_scan(&self) -> Vec<Vec3> {
                let threshold = self.config.occupied_threshold;
                self.collect()
                    .into_iter()
                    .filter(|&(_, l)| l <= threshold)
                    .map(|(c, _)| c)
                    .collect()
            }

            /// [`OctoMap::occupied_voxel_centers`] recomputed by a leaf walk.
            pub fn occupied_voxel_centers_scan(&self) -> Vec<Vec3> {
                let threshold = self.config.occupied_threshold;
                self.collect()
                    .into_iter()
                    .filter(|&(_, l)| l > threshold)
                    .map(|(c, _)| c)
                    .collect()
            }

            /// Every leaf's (centre, log-odds) in pre-order walk order.
            fn walk(&self) -> Vec<(Vec3, f64)> {
                let mut out = Vec::new();
                if let Some(root) = &self.root {
                    Self::collect_recursive(root, Vec3::ZERO, self.half_extent, &mut out);
                }
                out
            }

            fn collect_recursive(node: &Node, center: Vec3, half: f64, out: &mut Vec<(Vec3, f64)>) {
                match node {
                    Node::Leaf { log_odds } => out.push((center, *log_odds)),
                    Node::Inner { children } => {
                        let quarter = half / 2.0;
                        for (idx, child) in children.iter().enumerate() {
                            if let Some(child) = child {
                                let mut c = center;
                                c.x += if idx & 1 != 0 { quarter } else { -quarter };
                                c.y += if idx & 2 != 0 { quarter } else { -quarter };
                                c.z += if idx & 4 != 0 { quarter } else { -quarter };
                                Self::collect_recursive(child, c, quarter, out);
                            }
                        }
                    }
                }
            }
        }
    }

    fn small_map(resolution: f64) -> OctoMap {
        OctoMap::new(OctoMapConfig::with_resolution(resolution), 32.0)
    }

    #[test]
    fn ray_insertion_marks_endpoint_occupied_and_path_free() {
        let mut map = small_map(0.5);
        let origin = Vec3::new(0.0, 0.0, 1.0);
        let hit = Vec3::new(8.0, 0.0, 1.0);
        map.insert_ray(&origin, &hit);
        assert_eq!(map.query(&hit), Occupancy::Occupied);
        assert_eq!(map.query(&Vec3::new(4.0, 0.0, 1.0)), Occupancy::Free);
        assert_eq!(map.query(&Vec3::new(0.0, 8.0, 1.0)), Occupancy::Unknown);
        assert!(map.update_count() > 0);
    }

    #[test]
    fn repeated_misses_override_a_single_hit() {
        let mut map = small_map(0.5);
        let origin = Vec3::new(0.0, 0.0, 1.0);
        let target = Vec3::new(5.0, 0.0, 1.0);
        map.insert_ray(&origin, &target);
        assert_eq!(map.query(&target), Occupancy::Occupied);
        // Now observe through that cell many times (e.g. the obstacle moved):
        // the cell must eventually flip to free.
        for _ in 0..10 {
            map.insert_ray(&origin, &Vec3::new(12.0, 0.0, 1.0));
        }
        assert_eq!(map.query(&target), Occupancy::Free);
    }

    #[test]
    fn log_odds_are_clamped() {
        let mut map = small_map(0.5);
        let origin = Vec3::new(0.0, 0.0, 1.0);
        let hit = Vec3::new(3.0, 0.0, 1.0);
        for _ in 0..100 {
            map.insert_ray(&origin, &hit);
        }
        // After saturation a handful of misses must be able to flip the state
        // back within a bounded number of updates (clamping prevents
        // unbounded certainty).
        let mut flipped = false;
        for _ in 0..20 {
            map.insert_ray(&origin, &Vec3::new(12.0, 0.0, 1.0));
            if map.query(&hit) == Occupancy::Free {
                flipped = true;
                break;
            }
        }
        assert!(flipped, "clamped cell never flipped back to free");
    }

    #[test]
    fn max_range_truncates_rays_without_marking_hits() {
        let mut map = small_map(0.5);
        let origin = Vec3::new(0.0, 0.0, 1.0);
        let far = Vec3::new(100.0, 0.0, 1.0); // beyond the 30 m max range
        map.insert_ray(&origin, &far);
        // Nothing within the domain along that ray may be occupied.
        assert_eq!(map.occupied_voxel_count(), 0);
        assert!(map.known_voxel_count() > 0);
    }

    #[test]
    fn point_cloud_insertion_builds_a_wall() {
        let mut map = small_map(0.5);
        let mut pts = Vec::new();
        for y in -10..=10 {
            for z in 0..6 {
                pts.push(Vec3::new(10.0, y as f64 * 0.5, z as f64 * 0.5));
            }
        }
        let cloud = PointCloud::new(Vec3::new(0.0, 0.0, 1.0), pts);
        map.insert_point_cloud(&cloud);
        assert!(map.occupied_voxel_count() > 50);
        assert_eq!(map.query(&Vec3::new(10.0, 0.0, 1.0)), Occupancy::Occupied);
        assert_eq!(map.query(&Vec3::new(5.0, 0.0, 1.0)), Occupancy::Free);
        assert!(!map.occupied_voxel_centers().is_empty());
        assert!(!map.free_voxel_centers().is_empty());
        assert!(map.mapped_volume() > 0.0);
    }

    #[test]
    fn inflation_blocks_near_obstacles_scaling_with_radius() {
        let mut map = small_map(0.25);
        map.insert_ray(&Vec3::new(0.0, 0.0, 1.0), &Vec3::new(5.0, 0.0, 1.0));
        let near = Vec3::new(4.6, 0.0, 1.0);
        assert!(map.is_occupied_with_inflation(&near, 0.6));
        assert!(!map.is_occupied_with_inflation(&Vec3::new(2.0, 0.0, 1.0), 0.3));
    }

    #[test]
    fn coarse_resolution_closes_narrow_openings() {
        // Build a wall with a 0.8 m opening at y ∈ [-0.4, 0.4]. At 0.15 m
        // resolution a 0.3 m-radius vehicle fits through; at 0.8 m resolution
        // the opening is swallowed by inflated voxels — the crux of Fig. 17.
        let build = |resolution: f64| {
            let mut map = OctoMap::new(OctoMapConfig::with_resolution(resolution), 32.0);
            let origin = Vec3::new(-5.0, 0.0, 1.0);
            for i in -40..=40 {
                let y = i as f64 * 0.1;
                if y.abs() < 0.41 {
                    continue; // the doorway
                }
                for z in [0.5, 1.0, 1.5, 2.0] {
                    map.insert_ray(&origin, &Vec3::new(3.0, y, z));
                }
            }
            map
        };
        let fine = build(0.15);
        let coarse = build(0.8);
        let through_door_a = Vec3::new(3.0, 0.0, 1.0);
        // The doorway cell itself was never hit, so at fine resolution the
        // vehicle can pass (not occupied within its 0.3 m radius)…
        assert!(!fine.is_occupied_with_inflation(&through_door_a, 0.3));
        // …but at coarse resolution the 0.8 m voxels adjacent to the door are
        // occupied and swallow the opening.
        assert!(coarse.is_occupied_with_inflation(&through_door_a, 0.3));
    }

    #[test]
    fn segment_queries_respect_walls() {
        let mut map = small_map(0.25);
        // Build a wall at x = 5 spanning y in [-3, 3].
        let origin = Vec3::new(0.0, 0.0, 1.0);
        for i in -12..=12 {
            map.insert_ray(&origin, &Vec3::new(5.0, i as f64 * 0.25, 1.0));
        }
        assert!(!map.segment_free(&Vec3::new(0.0, 0.0, 1.0), &Vec3::new(8.0, 0.0, 1.0), 0.3));
        assert!(map.segment_free(&Vec3::new(0.0, 0.0, 1.0), &Vec3::new(3.0, 0.0, 1.0), 0.3));
    }

    #[test]
    fn blocking_voxel_agrees_with_the_predicates_and_is_occupied() {
        let mut map = small_map(0.25);
        let origin = Vec3::new(0.0, 0.0, 1.0);
        for i in -12..=12 {
            map.insert_ray(&origin, &Vec3::new(5.0, i as f64 * 0.25, 1.0));
        }
        // Point query: a free point reports no voxel, a blocked one reports
        // an occupied voxel inside the inflation reach.
        let free = Vec3::new(2.0, 0.0, 1.0);
        assert!(!map.is_occupied_with_inflation(&free, 0.3));
        assert_eq!(map.blocking_voxel_with_inflation(&free, 0.3), None);
        let blocked = Vec3::new(5.0, 0.0, 1.0);
        assert!(map.is_occupied_with_inflation(&blocked, 0.3));
        let voxel = map.blocking_voxel_with_inflation(&blocked, 0.3).unwrap();
        assert_eq!(map.query(&voxel), Occupancy::Occupied);
        assert!(voxel.distance(&blocked) <= 0.3 + 0.25 * 0.87 + 1e-9);

        // Segment query: Some/None must agree with segment_free, and the
        // reported voxel must be a real occupied voxel near the wall.
        let a = Vec3::new(0.0, 0.0, 1.0);
        let b = Vec3::new(8.0, 0.0, 1.0);
        assert!(!map.segment_free(&a, &b, 0.3));
        let voxel = map.segment_blocking_voxel(&a, &b, 0.3).unwrap();
        assert_eq!(map.query(&voxel), Occupancy::Occupied);
        assert!(
            (voxel.x - 5.0).abs() < 1.0,
            "voxel far from the wall: {voxel:?}"
        );
        let c = Vec3::new(3.0, 0.0, 1.0);
        assert!(map.segment_free(&a, &c, 0.3));
        assert_eq!(map.segment_blocking_voxel(&a, &c, 0.3), None);

        // Empty map: nothing can block.
        let empty = small_map(0.25);
        assert_eq!(empty.segment_blocking_voxel(&a, &b, 0.3), None);
        assert_eq!(empty.blocking_voxel_with_inflation(&blocked, 0.3), None);
    }

    #[test]
    fn reresolving_preserves_occupancy_coarsely() {
        let mut fine = small_map(0.25);
        fine.insert_ray(&Vec3::new(0.0, 0.0, 1.0), &Vec3::new(6.0, 0.0, 1.0));
        let coarse = fine.reresolved(1.0).unwrap();
        assert_eq!(coarse.resolution(), 1.0);
        assert_eq!(coarse.query(&Vec3::new(6.0, 0.0, 1.0)), Occupancy::Occupied);
        assert_ne!(coarse.query(&Vec3::new(3.0, 0.0, 1.0)), Occupancy::Occupied);
    }

    #[test]
    fn out_of_domain_queries_are_unknown() {
        let map = small_map(0.5);
        assert_eq!(map.query(&Vec3::new(1000.0, 0.0, 0.0)), Occupancy::Unknown);
        assert!(map.is_unknown(&Vec3::new(0.0, 0.0, 0.0)));
        assert!(map.domain().contains(&Vec3::ZERO));
    }

    #[test]
    fn degenerate_ray_is_ignored() {
        let mut map = small_map(0.5);
        map.insert_ray(&Vec3::new(1.0, 1.0, 1.0), &Vec3::new(1.0, 1.0, 1.0));
        assert_eq!(map.known_voxel_count(), 0);
    }

    #[test]
    fn finer_resolution_means_more_updates_per_ray() {
        // The compute cost driver behind Fig. 18: the same ray touches more
        // voxels at finer resolution.
        let mut fine = small_map(0.15);
        let mut coarse = small_map(0.8);
        let origin = Vec3::new(0.0, 0.0, 1.0);
        let end = Vec3::new(10.0, 4.0, 1.5);
        fine.insert_ray(&origin, &end);
        coarse.insert_ray(&origin, &end);
        assert!(fine.update_count() > 3 * coarse.update_count());
    }

    #[test]
    fn dense_cloud_insertion_is_bit_identical_to_ray_by_ray() {
        // A dense scan crosses each near voxel many times, so most crossings
        // take the brick-slot fast path. The map must be indistinguishable
        // from per-ray insertion and from the pointer-tree oracle: same leaf
        // values (ordered deltas under the same clamp), same update count.
        let mut points = Vec::new();
        for y in -14..=14 {
            for z in 0..5 {
                points.push(Vec3::new(11.0, y as f64 * 0.4, z as f64 * 0.45));
            }
        }
        // Include a beyond-max-range ray and a degenerate one.
        points.push(Vec3::new(200.0, 0.0, 1.0));
        points.push(Vec3::new(0.0, 0.0, 1.0));
        let origin = Vec3::new(0.0, 0.0, 1.0);
        let cloud = PointCloud::new(origin, points.clone());

        let mut cloud_map = small_map(0.3);
        cloud_map.insert_point_cloud(&cloud);
        let mut serial = small_map(0.3);
        let mut tree = reference::ReferenceMap::new(*serial.config(), 32.0);
        for p in &points {
            serial.insert_ray(&origin, p);
            tree.insert_ray(&origin, p);
        }
        assert_eq!(cloud_map.update_count(), serial.update_count());
        assert_eq!(cloud_map, serial, "cloud insertion changed the map");
        assert_eq!(cloud_map.collect_leaves(), tree.collect());
        assert_eq!(cloud_map.brick_slots_mismatch(&tree), None);
    }

    #[test]
    fn check_domain_rejects_domains_the_voxel_keys_cannot_hold() {
        // A multi-km domain at mm resolution exceeds the 21-bit voxel-key
        // packing; the largest shipped world does not come close.
        assert!(OctoMap::check_domain(0.001, 1500.0).is_err());
        assert_eq!(OctoMap::check_domain(0.15, 125.0), Ok(()));
        // The widened power-of-two domain decides: 2^19 voxels per half-axis
        // stay 2^19, one voxel more widens to 2^20.
        let half = (1u64 << 19) as f64;
        assert_eq!(OctoMap::check_domain(0.5, 0.5 * half), Ok(()));
        assert!(OctoMap::check_domain(0.5, 0.5 * (half + 1.0)).is_err());
        for (resolution, half_extent) in [
            (0.0, 10.0),
            (-0.5, 10.0),
            (f64::NAN, 10.0),
            (f64::INFINITY, 10.0),
            (0.5, 0.0),
            (0.5, -10.0),
            (0.5, f64::NAN),
            (0.5, f64::INFINITY),
            (0.5, 1e300),
        ] {
            assert!(
                OctoMap::check_domain(resolution, half_extent).is_err(),
                "accepted {resolution} m / {half_extent} m"
            );
        }
    }

    #[test]
    #[should_panic(expected = "invalid map domain")]
    fn new_rejects_an_unpackable_domain() {
        let _ = OctoMap::new(OctoMapConfig::with_resolution(0.001), 1500.0);
    }

    #[test]
    fn alternating_reresolution_stops_at_the_key_range() {
        // Each rebuild covers the previous aligned cube, so 0.8 m ↔ 0.15 m
        // round trips keep doubling the domain until it no longer packs.
        let mut map = OctoMap::new(OctoMapConfig::with_resolution(0.8), 50.0);
        map.insert_ray(&Vec3::new(0.0, 0.0, 1.0), &Vec3::new(6.0, 0.0, 1.0));
        let mut switches = 0;
        let refused = loop {
            let next = if switches % 2 == 0 { 0.15 } else { 0.8 };
            match map.reresolved(next) {
                Ok(rebuilt) => {
                    assert!(rebuilt.domain().max.x >= map.domain().max.x);
                    map = rebuilt;
                    switches += 1;
                    assert!(switches < 64, "domain never outgrew the keys");
                }
                Err(reason) => break reason,
            }
        };
        assert!(
            switches > 10,
            "refused after {switches} switches: {refused}"
        );
        assert_eq!(map.occupied_voxel_count(), 1);
    }

    #[test]
    #[should_panic]
    fn zero_resolution_rejected() {
        let _ = OctoMapConfig::with_resolution(0.0);
    }

    #[test]
    fn display_nonempty() {
        assert!(!format!("{}", small_map(0.5)).is_empty());
    }

    /// Differential properties pinning the brick map: the bricks, the
    /// known-leaf index and the indexed queries must all be *exact*
    /// replacements — bit-identical log-odds, leaf sets and counters against
    /// the pointer-tree oracle and the serial / per-voxel references.
    mod equivalence {
        use super::reference::{child_of, ReferenceMap};
        use super::*;
        use proptest::prelude::*;

        /// Dyadic and non-dyadic resolutions, fine and coarse (the paper's
        /// 0.15 m / 0.80 m case-study endpoints included).
        const RESOLUTIONS: [f64; 5] = [0.15, 0.25, 0.3, 0.5, 0.8];

        fn arb_point(extent: f64) -> impl Strategy<Value = Vec3> {
            (-extent..extent, -extent..extent, 0.0..6.0).prop_map(|(x, y, z)| Vec3::new(x, y, z))
        }

        /// The exact f64 bit patterns of `centers`, so comparisons see the
        /// bits a golden mission would.
        fn center_bits(centers: &[Vec3]) -> Vec<[u64; 3]> {
            centers
                .iter()
                .map(|c| [c.x.to_bits(), c.y.to_bits(), c.z.to_bits()])
                .collect()
        }

        /// Builds the brick map and the pointer-tree oracle from the same ray
        /// sequence.
        fn paired_maps(res_idx: usize, rays: &[Vec3]) -> (OctoMap, ReferenceMap) {
            let resolution = RESOLUTIONS[res_idx % RESOLUTIONS.len()];
            let config = OctoMapConfig::with_resolution(resolution);
            let mut arena = OctoMap::new(config, 24.0);
            let mut tree = ReferenceMap::new(config, 24.0);
            let origin = Vec3::new(0.0, 0.0, 1.5);
            for endpoint in rays {
                arena.insert_ray(&origin, endpoint);
                tree.insert_ray(&origin, endpoint);
            }
            (arena, tree)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            /// The brick map holds the same leaves (same centres, same
            /// log-odds bits) and answers point probes exactly like the
            /// pointer tree, including through a reresolve → insert chain.
            #[test]
            fn arena_matches_reference_tree(
                res_idx in 0usize..RESOLUTIONS.len(),
                rays in proptest::collection::vec(arb_point(20.0), 1..32),
                more_rays in proptest::collection::vec(arb_point(20.0), 1..12),
                queries in proptest::collection::vec(arb_point(24.0), 1..16),
                new_res_idx in 0usize..RESOLUTIONS.len(),
            ) {
                let (mut arena, mut tree) = paired_maps(res_idx, &rays);
                prop_assert_eq!(arena.collect_leaves(), tree.collect());
                for q in &queries {
                    prop_assert_eq!(arena.leaf_log_odds(q), tree.leaf_log_odds(q));
                }
                // Survives resolution switching (the dynamic-resolution
                // policy) and further insertion on the rebuilt maps.
                let new_res = RESOLUTIONS[new_res_idx % RESOLUTIONS.len()];
                arena = arena.reresolved(new_res).unwrap();
                tree = tree.reresolved(new_res);
                let origin = Vec3::new(0.0, 0.0, 1.5);
                for endpoint in &more_rays {
                    arena.insert_ray(&origin, endpoint);
                    tree.insert_ray(&origin, endpoint);
                }
                prop_assert_eq!(arena.collect_leaves(), tree.collect());
                for q in &queries {
                    prop_assert_eq!(arena.leaf_log_odds(q), tree.leaf_log_odds(q));
                }
            }

            /// The known-leaf index returns bit-identical free centres (same
            /// order, same f64 bits) as the oracle's leaf walk, and the O(1)
            /// counters match its scans, through insertion and reresolution.
            #[test]
            fn free_voxel_index_matches_tree_walk(
                res_idx in 0usize..RESOLUTIONS.len(),
                rays in proptest::collection::vec(arb_point(20.0), 1..32),
                new_res_idx in 0usize..RESOLUTIONS.len(),
            ) {
                let (mut arena, mut tree) = paired_maps(res_idx, &rays);
                // The occupied counter may overcount the deduplicated scan
                // at non-dyadic resolutions (rounded-key collisions merge
                // scan leaves) — the seed suite pins "never undercounts",
                // so that is the exact relation asserted here too.
                prop_assert_eq!(
                    center_bits(&arena.free_voxel_centers()),
                    center_bits(&tree.free_voxel_centers_scan())
                );
                prop_assert_eq!(arena.known_voxel_count(), tree.known_voxel_count_scan());
                prop_assert!(arena.occupied_voxel_count() >= tree.occupied_voxel_count_scan());
                let new_res = RESOLUTIONS[new_res_idx % RESOLUTIONS.len()];
                arena = arena.reresolved(new_res).unwrap();
                tree = tree.reresolved(new_res);
                prop_assert_eq!(
                    center_bits(&arena.free_voxel_centers()),
                    center_bits(&tree.free_voxel_centers_scan())
                );
                prop_assert_eq!(arena.known_voxel_count(), tree.known_voxel_count_scan());
                prop_assert!(arena.occupied_voxel_count() >= tree.occupied_voxel_count_scan());
            }

            /// The known-block-bitmask frontier predicate agrees with the
            /// reference six-probe `is_unknown` loop on every known voxel
            /// centre — the exact call sites frontier extraction probes.
            #[test]
            fn unknown_neighbor_index_matches_probe_loop(
                res_idx in 0usize..RESOLUTIONS.len(),
                rays in proptest::collection::vec(arb_point(20.0), 1..32),
            ) {
                let (arena, _) = paired_maps(res_idx, &rays);
                let r = arena.resolution();
                let offsets = [
                    Vec3::new(r, 0.0, 0.0),
                    Vec3::new(-r, 0.0, 0.0),
                    Vec3::new(0.0, r, 0.0),
                    Vec3::new(0.0, -r, 0.0),
                    Vec3::new(0.0, 0.0, r),
                    Vec3::new(0.0, 0.0, -r),
                ];
                for center in arena
                    .free_voxel_centers()
                    .into_iter()
                    .chain(arena.occupied_voxel_centers())
                {
                    let reference = offsets.iter().any(|d| arena.is_unknown(&(center + *d)));
                    prop_assert_eq!(
                        arena.has_unknown_neighbor6(&center),
                        reference,
                        "diverged at {}",
                        center
                    );
                }
            }

            /// The block-bitmask-backed `occupied_voxel_centers` agrees with
            /// the oracle's leaf walk bit-for-bit at dyadic resolutions
            /// (where leaf centres are exactly representable grid centres).
            #[test]
            fn occupied_centers_match_tree_walk_at_dyadic_resolution(
                dyadic in 0usize..2,
                rays in proptest::collection::vec(arb_point(20.0), 1..32),
            ) {
                // 0.25 m and 0.5 m.
                let (map, tree) = paired_maps([1, 3][dyadic], &rays);
                prop_assert_eq!(map.occupied_voxel_centers(), tree.occupied_voxel_centers_scan());
            }

            /// The indexed inflation query, and the blocking voxel it
            /// reports, decide exactly like the per-voxel tree scan for
            /// arbitrary maps, query points and radii — also after a
            /// reresolve → insert chain has rebuilt and then updated the
            /// index.
            #[test]
            fn inflation_query_matches_reference(
                res_idx in 0usize..RESOLUTIONS.len(),
                new_res_idx in 0usize..RESOLUTIONS.len(),
                before in proptest::collection::vec(arb_point(20.0), 1..40),
                after in proptest::collection::vec(arb_point(20.0), 1..24),
                queries in proptest::collection::vec(arb_point(24.0), 1..24),
                radius in 0.0f64..2.5,
            ) {
                let (mut map, mut tree) = paired_maps(res_idx, &before);
                for round in 0..2 {
                    if round == 1 {
                        let new_res = RESOLUTIONS[new_res_idx % RESOLUTIONS.len()];
                        map = map.reresolved(new_res).unwrap();
                        tree = tree.reresolved(new_res);
                        let origin = Vec3::new(0.0, 0.0, 1.5);
                        for endpoint in &after {
                            map.insert_ray(&origin, endpoint);
                            tree.insert_ray(&origin, endpoint);
                        }
                        prop_assert_eq!(map.known_voxel_count(), tree.known_voxel_count_scan());
                    }
                    for q in &queries {
                        let reference = map.is_occupied_with_inflation_reference(q, radius);
                        prop_assert_eq!(
                            map.is_occupied_with_inflation(q, radius),
                            reference,
                            "round {}: inflation decision diverged at {} (radius {})",
                            round,
                            q,
                            radius
                        );
                        prop_assert_eq!(
                            map.blocking_voxel_with_inflation(q, radius).is_some(),
                            reference
                        );
                    }
                }
            }

            /// The DDA-prefiltered swept-segment predicate, and the blocking
            /// voxel it reports, decide exactly like the sampled tree-scan
            /// predicate.
            #[test]
            fn segment_free_matches_reference(
                res_idx in 0usize..RESOLUTIONS.len(),
                rays in proptest::collection::vec(arb_point(20.0), 1..40),
                segments in proptest::collection::vec((arb_point(24.0), arb_point(24.0)), 1..12),
                radius in 0.0f64..1.5,
            ) {
                let (map, _) = paired_maps(res_idx, &rays);
                for (a, b) in &segments {
                    let reference = map.segment_free_reference(a, b, radius);
                    prop_assert_eq!(
                        map.segment_free(a, b, radius),
                        reference,
                        "segment decision diverged on {} -> {} (radius {})",
                        a,
                        b,
                        radius
                    );
                    prop_assert_eq!(map.segment_blocking_voxel(a, b, radius).is_none(), reference);
                }
            }

            /// A cleared (or reshaped) map is bit-identical to a fresh one
            /// under any subsequent ray sequence: same logical tree, same
            /// update/occupancy counters, same free-voxel index contents —
            /// the contract the episode-reuse layer rests on.
            #[test]
            fn clear_then_reinsert_matches_fresh_map(
                res_idx in 0usize..RESOLUTIONS.len(),
                warmup_rays in proptest::collection::vec(arb_point(20.0), 1..32),
                rays in proptest::collection::vec(arb_point(20.0), 1..32),
                new_res_idx in 0usize..RESOLUTIONS.len(),
            ) {
                let origin = Vec3::new(0.0, 0.0, 1.5);
                // Dirty a map with an unrelated ray sequence, then clear it.
                let (mut reused, _) = paired_maps(res_idx, &warmup_rays);
                reused.clear();
                let config = OctoMapConfig::with_resolution(RESOLUTIONS[res_idx % RESOLUTIONS.len()]);
                let mut fresh = OctoMap::new(config, 24.0);
                for endpoint in &rays {
                    reused.insert_ray(&origin, endpoint);
                    fresh.insert_ray(&origin, endpoint);
                }
                prop_assert_eq!(&reused, &fresh);
                prop_assert_eq!(reused.update_count(), fresh.update_count());
                prop_assert_eq!(reused.known_voxel_count(), fresh.known_voxel_count());
                prop_assert_eq!(reused.occupied_voxel_count(), fresh.occupied_voxel_count());
                prop_assert_eq!(reused.free_voxel_centers(), fresh.free_voxel_centers());
                prop_assert_eq!(reused.occupied_voxel_centers(), fresh.occupied_voxel_centers());
                // Reshape to a different geometry: reset must equal new.
                let new_config =
                    OctoMapConfig::with_resolution(RESOLUTIONS[new_res_idx % RESOLUTIONS.len()]);
                reused.reset(new_config, 30.0);
                let mut fresh = OctoMap::new(new_config, 30.0);
                for endpoint in &rays {
                    reused.insert_ray(&origin, endpoint);
                    fresh.insert_ray(&origin, endpoint);
                }
                prop_assert_eq!(&reused, &fresh);
                prop_assert_eq!(reused.update_count(), fresh.update_count());
                prop_assert_eq!(reused.free_voxel_centers(), fresh.free_voxel_centers());
            }

            /// `locate` replays the pointer-tree descent at any domain size:
            /// the same centre bits and DFS rank, and the grid cell of that
            /// centre — also for points exactly on voxel boundaries and for
            /// voxel centres of the 0.8 m grid, which `reresolved` inserts.
            #[test]
            fn locate_matches_the_descent(
                res_idx in 0usize..6,
                extent in 1.0f64..200.0,
                points in proptest::collection::vec(
                    (-1.0f64..1.0, -1.0f64..1.0, -1.0f64..1.0, 0usize..3),
                    1..32,
                ),
            ) {
                let resolution = [0.15, 0.25, 0.3, 0.5, 0.65, 0.8][res_idx];
                let map = OctoMap::new(OctoMapConfig::with_resolution(resolution), extent);
                // kind 1 snaps to this grid's voxel boundaries, kind 2 to
                // 0.8 m voxel centres.
                let snap = |v: f64, kind: usize| match kind {
                    1 => (v / resolution).round() * resolution,
                    2 => ((v / 0.8).floor() + 0.5) * 0.8,
                    _ => v,
                };
                for &(x, y, z, kind) in &points {
                    let h = map.half_extent;
                    let p = Vec3::new(snap(x * h, kind), snap(y * h, kind), snap(z * h, kind));
                    let (cell, center, rank) = map.locate(&p);
                    let (mut c, mut half, mut r) = (Vec3::ZERO, h, 0u64);
                    for _ in 0..map.depth {
                        let (octant, next) = child_of(&p, &c, half);
                        r = r << 3 | octant as u64;
                        c = next;
                        half /= 2.0;
                    }
                    prop_assert_eq!(center_bits(&[center]), center_bits(&[c]), "at {}", p);
                    prop_assert_eq!(rank, r, "at {}", p);
                    prop_assert_eq!(cell, map.grid.index_of(&c), "at {}", p);
                }
            }

            /// Warm-map flips: hit bursts then miss bursts through the same
            /// voxels drive leaves across the occupancy threshold both ways,
            /// so crossings alternate between the brick-slot fast path and
            /// the flip fallback. The map must match the pointer-tree oracle
            /// leaf for leaf and a create/flip-only map exactly, and after
            /// every ray each brick slot must hold the oracle leaf's value.
            #[test]
            fn warm_map_flips_match_reference(
                res_idx in 0usize..RESOLUTIONS.len(),
                targets in proptest::collection::vec(arb_point(20.0), 1..6),
                bursts in proptest::collection::vec((3usize..7, 4usize..10), 1..4),
            ) {
                let config = OctoMapConfig::with_resolution(RESOLUTIONS[res_idx]);
                let mut arena = OctoMap::new(config, 24.0);
                let mut descent = OctoMap::new(config, 24.0);
                let mut tree = ReferenceMap::new(config, 24.0);
                let origin = Vec3::new(0.0, 0.0, 1.5);
                let mut insert = |endpoint: &Vec3| -> Result<(), proptest::TestCaseError> {
                    arena.insert_ray(&origin, endpoint);
                    descent.insert_ray_by_descent(&origin, endpoint);
                    tree.insert_ray(&origin, endpoint);
                    prop_assert_eq!(arena.occupied_voxel_count(), descent.occupied_voxel_count());
                    prop_assert_eq!(arena.brick_slots_mismatch(&tree), None);
                    Ok(())
                };
                for &(hits, misses) in &bursts {
                    for target in &targets {
                        for _ in 0..hits {
                            insert(target)?;
                        }
                    }
                    // Rays extended past each target cross its voxel as a
                    // miss (truncated at max range, they end without a hit).
                    for target in &targets {
                        let beyond = origin + (*target - origin) * 1.6;
                        for _ in 0..misses {
                            insert(&beyond)?;
                        }
                    }
                }
                prop_assert_eq!(arena.collect_leaves(), tree.collect());
                prop_assert_eq!(&arena, &descent);
                prop_assert_eq!(arena.update_count(), descent.update_count());
                prop_assert_eq!(arena.occupied_voxel_count(), descent.occupied_voxel_count());
                prop_assert_eq!(
                    center_bits(&arena.free_voxel_centers()),
                    center_bits(&descent.free_voxel_centers())
                );
                prop_assert_eq!(
                    center_bits(&arena.free_voxel_centers()),
                    center_bits(&tree.free_voxel_centers_scan())
                );
            }
        }

        /// The O(1) counters match the oracle's leaf walk on a deterministic
        /// dyadic-resolution scenario covering rays, a dense scan into the
        /// warm map and the dynamic-resolution rebuild.
        #[test]
        fn counters_match_tree_walk() {
            let config = OctoMapConfig::with_resolution(0.5);
            let mut map = OctoMap::new(config, 32.0);
            let mut tree = ReferenceMap::new(config, 32.0);
            let origin = Vec3::new(0.0, 0.0, 1.0);
            for i in -12..=12 {
                for z in [0.5, 1.0, 1.5, 2.0] {
                    let endpoint = Vec3::new(10.0, i as f64 * 0.5, z);
                    map.insert_ray(&origin, &endpoint);
                    tree.insert_ray(&origin, &endpoint);
                }
            }
            // A dense scan: most of its crossings revisit existing leaves.
            let mut points = Vec::new();
            for iy in -40..=40 {
                for iz in 0..14 {
                    points.push(Vec3::new(12.0, iy as f64 * 0.25, iz as f64 * 0.3));
                }
            }
            for endpoint in &points {
                tree.insert_ray(&origin, endpoint);
            }
            map.insert_point_cloud(&PointCloud::new(origin, points));
            assert_eq!(map.known_voxel_count(), tree.known_voxel_count_scan());
            assert_eq!(map.occupied_voxel_count(), tree.occupied_voxel_count_scan());
            assert_eq!(map.brick_slots_mismatch(&tree), None);
            // Query equivalence holds on a scan-built map too.
            for (a, b) in [
                (Vec3::new(-5.0, -8.0, 1.0), Vec3::new(14.0, 8.0, 2.0)),
                (Vec3::new(0.0, 0.0, 1.0), Vec3::new(9.0, 0.0, 1.0)),
            ] {
                assert_eq!(
                    map.segment_free(&a, &b, 0.33),
                    map.segment_free_reference(&a, &b, 0.33)
                );
            }
            assert!(map.occupied_voxel_count() > 50);
            assert!(map.known_voxel_count() > map.occupied_voxel_count());

            let coarse = map.reresolved(1.0).unwrap();
            let coarse_tree = tree.reresolved(1.0);
            assert_eq!(
                coarse.known_voxel_count(),
                coarse_tree.known_voxel_count_scan()
            );
            assert_eq!(
                coarse.occupied_voxel_count(),
                coarse_tree.occupied_voxel_count_scan()
            );
            assert_eq!(coarse.brick_slots_mismatch(&coarse_tree), None);

            let empty = OctoMap::new(OctoMapConfig::default(), 32.0);
            assert_eq!(empty.known_voxel_count(), 0);
            assert_eq!(empty.occupied_voxel_count(), 0);
        }
    }
}
