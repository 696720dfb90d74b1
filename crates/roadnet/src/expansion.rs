//! Time-budgeted network expansion.
//!
//! The Con-Index is built by "a modified conventional network expansion
//! algorithm [21]": starting from a road segment, the network is expanded
//! using a per-segment travel speed until a time budget (one Δt slot for the
//! Con-Index, the whole duration `L` for the exhaustive-search baseline) is
//! exhausted. The Near ID list uses the historical *minimum* observed speed,
//! the Far ID list the *maximum* speed.
//!
//! The one implementation is the dense, epoch-stamped
//! [`DijkstraWorkspace::expand_within_time`]; this module keeps the
//! map-returning convenience form for callers off the hot path.

use std::collections::HashMap;

use crate::dijkstra::DijkstraWorkspace;
use crate::graph::RoadNetwork;
use crate::segment::SegmentId;

/// Result of a network expansion.
#[derive(Debug, Clone, Default)]
pub struct ExpansionResult {
    /// Earliest arrival time in seconds for every segment reached within the
    /// budget (start segments have arrival 0).
    pub arrival_s: HashMap<SegmentId, f64>,
}

impl ExpansionResult {
    /// Segments reached within the budget, in unspecified order.
    pub fn reached(&self) -> Vec<SegmentId> {
        self.arrival_s.keys().copied().collect()
    }

    /// Number of segments reached.
    pub fn len(&self) -> usize {
        self.arrival_s.len()
    }

    /// Returns `true` when nothing was reached (impossible when at least one
    /// start segment is given).
    pub fn is_empty(&self) -> bool {
        self.arrival_s.is_empty()
    }

    /// Returns `true` if the given segment was reached.
    pub fn contains(&self, seg: SegmentId) -> bool {
        self.arrival_s.contains_key(&seg)
    }
}

/// Expands the network from `start_segments`, traversing each segment at the
/// speed (m/s) returned by `speed_ms`, and returns every segment whose
/// earliest arrival time is within `budget_s` seconds.
///
/// Compatibility wrapper around [`DijkstraWorkspace::expand_within_time`]
/// (same semantics, documented there); hot paths should hold a workspace and
/// call the method directly to avoid the per-call allocations.
pub fn expand_within_time<F>(
    network: &RoadNetwork,
    start_segments: &[SegmentId],
    budget_s: f64,
    speed_ms: F,
) -> ExpansionResult
where
    F: FnMut(SegmentId) -> f64,
{
    let mut ws = DijkstraWorkspace::new();
    ws.expand_within_time(network, start_segments, budget_s, speed_ms);
    ExpansionResult {
        arrival_s: ws.settled().collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{RawRoad, RoadNetwork};
    use crate::segment::{Direction, RoadClass};
    use streach_geo::{GeoPoint, Polyline};

    /// A straight chain of ten 500 m local segments.
    fn chain() -> RoadNetwork {
        let origin = GeoPoint::new(114.0, 22.5);
        let mut roads = Vec::new();
        for i in 0..10 {
            let a = origin.offset_m(i as f64 * 500.0, 0.0);
            let b = origin.offset_m((i + 1) as f64 * 500.0, 0.0);
            roads.push(RawRoad {
                geometry: Polyline::straight(a, b),
                class: RoadClass::Local,
                direction: Direction::OneWay,
            });
        }
        RoadNetwork::from_roads(&roads)
    }

    fn arrival(ws: &DijkstraWorkspace, i: u32) -> f64 {
        ws.distance(SegmentId(i)).expect("segment reached")
    }

    #[test]
    fn expansion_respects_time_budget() {
        let net = chain();
        let mut ws = DijkstraWorkspace::new();
        // 10 m/s on every segment: each 500 m segment costs 50 s.
        ws.expand_within_time(&net, &[SegmentId(0)], 120.0, |_| 10.0);
        // Start + two more segments (50 s, 100 s); the fourth would arrive at 150 s.
        assert_eq!(ws.num_settled(), 3);
        assert!(ws.reached(SegmentId(0)));
        assert!(ws.reached(SegmentId(1)));
        assert!(ws.reached(SegmentId(2)));
        assert!(!ws.reached(SegmentId(3)));
        assert_eq!(arrival(&ws, 0), 0.0);
        assert!((arrival(&ws, 2) - 100.0).abs() < 1.0);
    }

    #[test]
    fn faster_speed_reaches_farther() {
        let net = chain();
        let mut ws = DijkstraWorkspace::new();
        ws.expand_within_time(&net, &[SegmentId(0)], 200.0, |_| 5.0);
        let slow: Vec<SegmentId> = ws.settled().map(|(seg, _)| seg).collect();
        ws.expand_within_time(&net, &[SegmentId(0)], 200.0, |_| 20.0);
        assert!(ws.num_settled() > slow.len());
        // Every segment reached slowly is also reached quickly (monotonicity).
        for seg in slow {
            assert!(ws.reached(seg));
        }
    }

    #[test]
    fn zero_speed_blocks_expansion() {
        let net = chain();
        let mut ws = DijkstraWorkspace::new();
        // Segment 2 is impassable.
        ws.expand_within_time(&net, &[SegmentId(0)], 1e6, |s| {
            if s == SegmentId(2) {
                0.0
            } else {
                10.0
            }
        });
        assert!(ws.reached(SegmentId(1)));
        assert!(!ws.reached(SegmentId(2)));
        assert!(!ws.reached(SegmentId(5)));
    }

    #[test]
    fn multiple_starts_take_minimum_arrival() {
        let net = chain();
        let mut ws = DijkstraWorkspace::new();
        // A duplicated source is settled once.
        let sources = [SegmentId(0), SegmentId(5), SegmentId(0)];
        ws.expand_within_time(&net, &sources, 60.0, |_| 10.0);
        assert_eq!(ws.num_settled(), 4);
        assert!(ws.reached(SegmentId(6)));
        assert!((arrival(&ws, 6) - 50.0).abs() < 1.0);
        assert!(ws.reached(SegmentId(1)));
        assert!(!ws.reached(SegmentId(3)));
        assert_eq!(arrival(&ws, 5), 0.0);
    }

    #[test]
    fn zero_budget_reaches_only_starts() {
        let net = chain();
        let mut ws = DijkstraWorkspace::new();
        ws.expand_within_time(&net, &[SegmentId(3)], 0.0, |_| 10.0);
        assert_eq!(ws.num_settled(), 1);
        assert!(ws.reached(SegmentId(3)));
    }

    #[test]
    fn arrival_times_are_monotone_along_the_chain() {
        let net = chain();
        let mut ws = DijkstraWorkspace::new();
        ws.expand_within_time(&net, &[SegmentId(0)], 1e6, |_| 12.0);
        assert_eq!(ws.num_settled(), 10);
        for i in 1..10u32 {
            assert!(
                arrival(&ws, i) > arrival(&ws, i - 1),
                "arrival times must increase along the chain"
            );
        }
    }
}
