//! The from-scratch spatial index of the `streach` workspace.
//!
//! The ST-Index keeps one spatial index over the (re-segmented) road network:
//! "A spatial index (e.g., R-tree) is built based on the re-segmented road
//! network. As the road network is static, essentially all the leaf nodes in
//! the temporal index have the same spatial index structure." (Section 3.2.1)
//!
//! * [`RTree`] — an R-tree with STR bulk loading, incremental insertion with
//!   quadratic splits, window (MBR) queries, point queries and best-first
//!   nearest-neighbour search with an exact-distance refinement callback.
//!   The query processing algorithms use it to map a query location `S` to
//!   its start road segment `r0`, and map matching to fetch the candidate
//!   segments around each GPS point.
//! * [`kd_partition`] — the k-d split of the road network into shards.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod partition;
pub mod rtree;

pub use partition::kd_partition;
pub use rtree::RTree;
