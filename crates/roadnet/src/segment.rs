//! Road segments and their attributes.

use streach_geo::{Mbr, Polyline};

use crate::graph::NodeId;

/// Identifier of a (directed) road segment. Segments are numbered densely
/// from zero, so the ID doubles as an index into the network's segment table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SegmentId(pub u32);

impl SegmentId {
    /// The segment ID as an array index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for SegmentId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// Functional class of a road, which determines its free-flow speed.
///
/// The paper distinguishes "primary or secondary" roads and observes in the
/// evaluation that "on the high-speed road segments, the region is further
/// away from the starting location, while on the local low-speed roads, the
/// query result region is smaller"; the class hierarchy below is what makes
/// that behaviour reproducible with synthetic data.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RoadClass {
    /// Urban expressway / highway.
    Highway,
    /// Primary arterial road.
    Primary,
    /// Secondary collector road.
    Secondary,
    /// Local low-speed street.
    Local,
}

impl RoadClass {
    /// Free-flow (uncongested) travel speed in km/h.
    pub fn free_flow_kmh(self) -> f64 {
        match self {
            RoadClass::Highway => 90.0,
            RoadClass::Primary => 60.0,
            RoadClass::Secondary => 45.0,
            RoadClass::Local => 30.0,
        }
    }

    /// Free-flow travel speed in m/s.
    pub fn free_flow_ms(self) -> f64 {
        self.free_flow_kmh() / 3.6
    }

    /// All classes, ordered from fastest to slowest.
    pub fn all() -> [RoadClass; 4] {
        [
            RoadClass::Highway,
            RoadClass::Primary,
            RoadClass::Secondary,
            RoadClass::Local,
        ]
    }
}

/// Directionality of a raw road. After network construction every
/// [`RoadSegment`] is directed; a two-way road yields two segments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Traversable only from the first to the last point of its polyline.
    OneWay,
    /// Traversable both ways.
    TwoWay,
}

/// A directed road segment of the (re-segmented) road network.
#[derive(Debug, Clone)]
pub struct RoadSegment {
    /// Unique segment ID.
    pub id: SegmentId,
    /// Intersection at which the segment starts.
    pub start_node: NodeId,
    /// Intersection at which the segment ends.
    pub end_node: NodeId,
    /// Shape of the segment, oriented from start to end.
    pub geometry: Polyline,
    /// Length in meters (cached from the geometry).
    pub length_m: f64,
    /// Functional class.
    pub class: RoadClass,
    /// Directionality of the originating road.
    pub direction: Direction,
    /// Spatial bounding rectangle (cached from the geometry).
    pub mbr: Mbr,
    /// For two-way roads, the segment representing the opposite direction.
    pub twin: Option<SegmentId>,
}

impl RoadSegment {
    /// Builds a segment, caching length and MBR from the geometry.
    pub fn new(
        id: SegmentId,
        start_node: NodeId,
        end_node: NodeId,
        geometry: Polyline,
        class: RoadClass,
        direction: Direction,
    ) -> Self {
        let length_m = geometry.length_m();
        let mbr = geometry.mbr();
        Self {
            id,
            start_node,
            end_node,
            geometry,
            length_m,
            class,
            direction,
            mbr,
            twin: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use streach_geo::GeoPoint;

    #[test]
    fn segment_id_display_and_index() {
        let id = SegmentId(17);
        assert_eq!(id.to_string(), "r17");
        assert_eq!(id.index(), 17);
    }

    #[test]
    fn class_speeds_are_ordered() {
        let speeds: Vec<f64> = RoadClass::all().iter().map(|c| c.free_flow_kmh()).collect();
        for w in speeds.windows(2) {
            assert!(w[0] > w[1], "classes must be ordered fastest first");
        }
        assert!((RoadClass::Highway.free_flow_ms() - 25.0).abs() < 0.1);
    }

    #[test]
    fn segment_caches_length_and_mbr() {
        let a = GeoPoint::new(114.0, 22.5);
        let b = a.offset_m(600.0, 0.0);
        let seg = RoadSegment::new(
            SegmentId(0),
            NodeId(0),
            NodeId(1),
            Polyline::straight(a, b),
            RoadClass::Primary,
            Direction::TwoWay,
        );
        assert!((seg.length_m - 600.0).abs() < 2.0);
        assert!(seg.mbr.contains_point(&a));
        assert!(seg.mbr.contains_point(&b));
        assert!(seg.twin.is_none());
    }
}
