//! Road network model for the `streach` workspace.
//!
//! The paper views a road network as a directed graph `G(V, E)`: vertices are
//! intersections, edges are road segments, and each segment carries a unique
//! ID, an adjacency list, a shape polyline, a length, a direction indicator,
//! a class (primary/secondary) and an MBR (Section 2.1).
//!
//! This crate provides:
//!
//! * [`segment`] — the [`RoadSegment`](segment::RoadSegment) record and its
//!   attributes ([`RoadClass`](segment::RoadClass), directionality),
//! * [`graph`] — the [`RoadNetwork`](graph::RoadNetwork): directed segment
//!   graph with adjacency queries, a built-in R-tree for point-to-segment
//!   lookup and network statistics,
//! * [`resegment`] — the pre-processing *road re-segmentation* step that
//!   chops long roads to a configurable spatial granularity (default 500 m),
//! * [`generator`] — a synthetic metropolis generator standing in for the
//!   Shenzhen road network used in the paper's evaluation,
//! * [`dijkstra`] — shortest-path and distance-map computations (the
//!   exhaustive-search baseline's travel cap, MQMB's ownership distances),
//!   and the time-budgeted network expansion
//!   ([`DijkstraWorkspace::expand_within_time`], Papadias et al. \[21\] in the
//!   paper) that evaluates every Con-Index hop.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod codec;
pub mod dijkstra;
pub mod generator;
pub mod graph;
pub mod resegment;
pub mod segment;
pub mod shard;

pub use codec::{decode_network, encode_network};
pub use dijkstra::{
    segment_distances_from, shortest_path_between_nodes, shortest_segment_distance,
    with_thread_workspace, DijkstraWorkspace,
};
pub use generator::{GeneratorConfig, SyntheticCity};
pub use graph::{NodeId, RawRoad, RoadNetwork};
pub use resegment::resegment_roads;
pub use segment::{Direction, RoadClass, RoadSegment, SegmentId};
pub use shard::ShardMap;
