//! The directed road-network graph.

use std::collections::HashMap;

use streach_geo::{GeoPoint, Mbr, Polyline};
use streach_spatial::RTree;

use crate::segment::{Direction, RoadClass, RoadSegment, SegmentId};

/// Identifier of an intersection (graph vertex).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The node ID as an array index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A raw (undirected, not yet re-segmented) road as produced by the map data
/// importer or the synthetic generator: the input of the pre-processing
/// stage.
#[derive(Debug, Clone)]
pub struct RawRoad {
    /// Shape of the road.
    pub geometry: Polyline,
    /// Functional class.
    pub class: RoadClass,
    /// Directionality.
    pub direction: Direction,
}

/// The road network: a directed graph whose edges are [`RoadSegment`]s and
/// whose vertices are intersections, plus an R-tree over segment MBRs for
/// spatial lookups.
pub struct RoadNetwork {
    nodes: Vec<GeoPoint>,
    segments: Vec<RoadSegment>,
    /// Outgoing segments per node.
    out_segments: Vec<Vec<SegmentId>>,
    /// Incoming segments per node.
    in_segments: Vec<Vec<SegmentId>>,
    /// Directed successors of every segment, flattened: those of segment
    /// `i` are `successor_ids[successor_offsets[i]..successor_offsets[i + 1]]`,
    /// in `out_segments` order with the twin (the U-turn) left out.
    successor_offsets: Vec<u32>,
    successor_ids: Vec<SegmentId>,
    /// Geometric midpoint of every segment, memoized at construction time:
    /// the MQMB overlap-elimination rule compares `dis(r0, b)` for every
    /// newly reached segment, and recomputing the midpoint from the polyline
    /// on each comparison dominated its cost.
    midpoints: Vec<GeoPoint>,
    rtree: RTree<SegmentId>,
}

/// Node coordinates are snapped to ~1 cm so that roads meeting at the same
/// intersection share a vertex even after floating-point noise.
fn node_key(p: &GeoPoint) -> (i64, i64) {
    ((p.lon * 1e7).round() as i64, (p.lat * 1e7).round() as i64)
}

impl RoadNetwork {
    /// Builds the network from directed-or-two-way roads whose geometry has
    /// already been re-segmented (see [`crate::resegment::resegment_roads`]).
    ///
    /// Every two-way road produces two directed segments that reference each
    /// other through [`RoadSegment::twin`].
    pub fn from_roads(roads: &[RawRoad]) -> Self {
        let mut nodes: Vec<GeoPoint> = Vec::new();
        let mut node_lookup: HashMap<(i64, i64), NodeId> = HashMap::new();
        let mut intern = |p: &GeoPoint, nodes: &mut Vec<GeoPoint>| -> NodeId {
            let key = node_key(p);
            *node_lookup.entry(key).or_insert_with(|| {
                nodes.push(*p);
                NodeId((nodes.len() - 1) as u32)
            })
        };

        let mut segments: Vec<RoadSegment> = Vec::new();
        for road in roads {
            let start = intern(&road.geometry.start(), &mut nodes);
            let end = intern(&road.geometry.end(), &mut nodes);
            if start == end && road.geometry.length_m() < 1.0 {
                // Degenerate loop produced by snapping; skip.
                continue;
            }
            let fwd_id = SegmentId(segments.len() as u32);
            let mut forward = RoadSegment::new(
                fwd_id,
                start,
                end,
                road.geometry.clone(),
                road.class,
                road.direction,
            );
            if road.direction == Direction::TwoWay {
                let bwd_id = SegmentId(segments.len() as u32 + 1);
                forward.twin = Some(bwd_id);
                let mut backward = RoadSegment::new(
                    bwd_id,
                    end,
                    start,
                    road.geometry.reversed(),
                    road.class,
                    road.direction,
                );
                backward.twin = Some(fwd_id);
                segments.push(forward);
                segments.push(backward);
            } else {
                segments.push(forward);
            }
        }

        let mut out_segments = vec![Vec::new(); nodes.len()];
        let mut in_segments = vec![Vec::new(); nodes.len()];
        for seg in &segments {
            out_segments[seg.start_node.index()].push(seg.id);
            in_segments[seg.end_node.index()].push(seg.id);
        }

        let mut successor_offsets = Vec::with_capacity(segments.len() + 1);
        let mut successor_ids = Vec::new();
        successor_offsets.push(0);
        for seg in &segments {
            successor_ids.extend(
                out_segments[seg.end_node.index()]
                    .iter()
                    .filter(|&&next| Some(next) != seg.twin),
            );
            successor_offsets.push(successor_ids.len() as u32);
        }

        let rtree = RTree::bulk_load(segments.iter().map(|s| (s.mbr, s.id)).collect());
        let midpoints = segments
            .iter()
            .map(|s| s.geometry.point_at_fraction(0.5))
            .collect();

        Self {
            nodes,
            segments,
            out_segments,
            in_segments,
            successor_offsets,
            successor_ids,
            midpoints,
            rtree,
        }
    }

    /// Number of intersections.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of directed segments.
    pub fn num_segments(&self) -> usize {
        self.segments.len()
    }

    /// Position of an intersection.
    pub fn node_position(&self, node: NodeId) -> GeoPoint {
        self.nodes[node.index()]
    }

    /// The segment record for an ID.
    pub fn segment(&self, id: SegmentId) -> &RoadSegment {
        &self.segments[id.index()]
    }

    /// Memoized geometric midpoint of a segment (`point_at_fraction(0.5)`).
    #[inline]
    pub fn segment_midpoint(&self, id: SegmentId) -> GeoPoint {
        self.midpoints[id.index()]
    }

    /// All segments.
    pub fn segments(&self) -> &[RoadSegment] {
        &self.segments
    }

    /// Iterator over all segment IDs.
    pub fn segment_ids(&self) -> impl Iterator<Item = SegmentId> + '_ {
        (0..self.segments.len() as u32).map(SegmentId)
    }

    /// Segments leaving the given node.
    pub fn segments_out_of(&self, node: NodeId) -> &[SegmentId] {
        &self.out_segments[node.index()]
    }

    /// Segments arriving at the given node.
    pub fn segments_into(&self, node: NodeId) -> &[SegmentId] {
        &self.in_segments[node.index()]
    }

    /// Directed successors of a segment: the segments one can continue onto
    /// after traversing `id` (excluding an immediate U-turn onto its twin),
    /// in the order they leave its end node. A slice of one flat array
    /// built with the network, so the expansion loops that visit thousands
    /// of segments per query neither allocate nor filter.
    #[inline]
    pub fn successors(&self, id: SegmentId) -> &[SegmentId] {
        let i = id.index();
        &self.successor_ids
            [self.successor_offsets[i] as usize..self.successor_offsets[i + 1] as usize]
    }

    /// Directed predecessors of a segment.
    pub fn predecessors(&self, id: SegmentId) -> Vec<SegmentId> {
        let seg = self.segment(id);
        self.in_segments[seg.start_node.index()]
            .iter()
            .copied()
            .filter(|prev| Some(*prev) != seg.twin)
            .collect()
    }

    /// Undirected neighbours of a segment: every segment sharing one of its
    /// end nodes (this is the `neighbor(r)` used by the trace back search).
    pub fn neighbors(&self, id: SegmentId) -> Vec<SegmentId> {
        let seg = self.segment(id);
        let mut out: Vec<SegmentId> = Vec::new();
        for node in [seg.start_node, seg.end_node] {
            for &other in self.out_segments[node.index()]
                .iter()
                .chain(self.in_segments[node.index()].iter())
            {
                if other != id && !out.contains(&other) {
                    out.push(other);
                }
            }
        }
        out
    }

    /// The segment whose geometry is closest to `p`, together with the
    /// distance in meters. Returns `None` on an empty network.
    pub fn nearest_segment(&self, p: &GeoPoint) -> Option<(SegmentId, f64)> {
        self.rtree
            .nearest_by(p, |id| {
                self.segments[id.index()].geometry.project(p).distance_m
            })
            .map(|(id, d)| (*id, d))
    }

    /// Segments whose MBR intersects the given window.
    pub fn segments_in_window(&self, window: &Mbr) -> Vec<SegmentId> {
        self.rtree.search_mbr(window).into_iter().copied().collect()
    }

    /// Bounding rectangle of the whole network.
    pub fn bounds(&self) -> Mbr {
        self.rtree.bounds()
    }

    /// Total length of all directed segments, in kilometers.
    pub fn total_length_km(&self) -> f64 {
        self.segments.iter().map(|s| s.length_m).sum::<f64>() / 1000.0
    }

    /// Sum of lengths of the given segments, in kilometers.
    pub fn length_of_km(&self, ids: &[SegmentId]) -> f64 {
        ids.iter().map(|id| self.segment(*id).length_m).sum::<f64>() / 1000.0
    }

    /// Number of segments per road class.
    pub fn class_histogram(&self) -> HashMap<RoadClass, usize> {
        let mut h = HashMap::new();
        for seg in &self.segments {
            *h.entry(seg.class).or_insert(0) += 1;
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 3x3 grid of two-way local streets with 500 m spacing.
    pub(crate) fn tiny_grid() -> RoadNetwork {
        let origin = GeoPoint::new(114.0, 22.5);
        let spacing = 500.0;
        let mut roads = Vec::new();
        let node = |i: i32, j: i32| origin.offset_m(i as f64 * spacing, j as f64 * spacing);
        for i in 0..3 {
            for j in 0..3 {
                if i + 1 < 3 {
                    roads.push(RawRoad {
                        geometry: Polyline::straight(node(i, j), node(i + 1, j)),
                        class: RoadClass::Local,
                        direction: Direction::TwoWay,
                    });
                }
                if j + 1 < 3 {
                    roads.push(RawRoad {
                        geometry: Polyline::straight(node(i, j), node(i, j + 1)),
                        class: RoadClass::Local,
                        direction: Direction::TwoWay,
                    });
                }
            }
        }
        RoadNetwork::from_roads(&roads)
    }

    #[test]
    fn grid_has_expected_counts() {
        let net = tiny_grid();
        assert_eq!(net.num_nodes(), 9);
        // 12 undirected edges -> 24 directed segments.
        assert_eq!(net.num_segments(), 24);
        assert!((net.total_length_km() - 12.0).abs() < 0.1);
    }

    #[test]
    fn twins_reference_each_other() {
        let net = tiny_grid();
        for seg in net.segments() {
            let twin = net.segment(seg.twin.expect("two-way road"));
            assert_eq!(twin.twin, Some(seg.id));
            assert_eq!(twin.start_node, seg.end_node);
            assert_eq!(twin.end_node, seg.start_node);
        }
    }

    #[test]
    fn successors_exclude_u_turn() {
        let net = tiny_grid();
        for seg in net.segments() {
            let succ = net.successors(seg.id);
            assert!(!succ.contains(&seg.twin.unwrap()));
            for s in succ {
                assert_eq!(net.segment(*s).start_node, seg.end_node);
            }
            // Every other segment leaving the end node, in its order.
            let leaving: Vec<SegmentId> = net
                .segments_out_of(seg.end_node)
                .iter()
                .copied()
                .filter(|&next| Some(next) != seg.twin)
                .collect();
            assert_eq!(succ, leaving);
        }
    }

    #[test]
    fn corner_node_degree() {
        let net = tiny_grid();
        // The corner at the origin has exactly two outgoing segments.
        let corner = net.nearest_segment(&GeoPoint::new(114.0, 22.5)).unwrap().0;
        let corner_node = {
            let seg = net.segment(corner);
            // pick whichever endpoint is the actual origin corner
            let p0 = net.node_position(seg.start_node);
            if p0.haversine_m(&GeoPoint::new(114.0, 22.5)) < 1.0 {
                seg.start_node
            } else {
                seg.end_node
            }
        };
        assert_eq!(net.segments_out_of(corner_node).len(), 2);
        assert_eq!(net.segments_into(corner_node).len(), 2);
    }

    #[test]
    fn neighbors_share_an_endpoint() {
        let net = tiny_grid();
        for seg in net.segments() {
            let neigh = net.neighbors(seg.id);
            assert!(!neigh.contains(&seg.id));
            for n in neigh {
                let other = net.segment(n);
                let shares = other.start_node == seg.start_node
                    || other.start_node == seg.end_node
                    || other.end_node == seg.start_node
                    || other.end_node == seg.end_node;
                assert!(shares);
            }
        }
    }

    #[test]
    fn nearest_segment_is_truly_nearest() {
        let net = tiny_grid();
        let probe = GeoPoint::new(114.0, 22.5).offset_m(250.0, 40.0);
        let (found, d) = net.nearest_segment(&probe).unwrap();
        // Brute force check.
        let (brute, brute_d) = net
            .segments()
            .iter()
            .map(|s| (s.id, s.geometry.project(&probe).distance_m))
            .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
            .unwrap();
        assert_eq!(net.segment(found).geometry.project(&probe).distance_m, d);
        assert!(
            (d - brute_d).abs() < 1e-9,
            "found {found:?} vs brute {brute:?}"
        );
    }

    #[test]
    fn window_query_returns_subset() {
        let net = tiny_grid();
        let window = Mbr::of_point(&GeoPoint::new(114.0, 22.5)).padded(0.002);
        let in_window = net.segments_in_window(&window);
        assert!(!in_window.is_empty());
        assert!(in_window.len() < net.num_segments());
    }

    #[test]
    fn class_histogram_counts_everything() {
        let net = tiny_grid();
        let hist = net.class_histogram();
        assert_eq!(hist[&RoadClass::Local], net.num_segments());
    }

    #[test]
    fn one_way_roads_produce_single_segments() {
        let a = GeoPoint::new(114.0, 22.5);
        let b = a.offset_m(400.0, 0.0);
        let c = b.offset_m(400.0, 0.0);
        let roads = vec![
            RawRoad {
                geometry: Polyline::straight(a, b),
                class: RoadClass::Primary,
                direction: Direction::OneWay,
            },
            RawRoad {
                geometry: Polyline::straight(b, c),
                class: RoadClass::Primary,
                direction: Direction::OneWay,
            },
        ];
        let net = RoadNetwork::from_roads(&roads);
        assert_eq!(net.num_segments(), 2);
        assert_eq!(net.successors(SegmentId(0)), [SegmentId(1)]);
        assert!(net.successors(SegmentId(1)).is_empty());
        assert!(net.segment(SegmentId(0)).twin.is_none());
        assert_eq!(net.predecessors(SegmentId(1)), vec![SegmentId(0)]);
    }
}
