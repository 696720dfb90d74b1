//! Map matching (pre-processing step 2).
//!
//! "In this step, we map the raw trajectory data onto the newly segmented
//! road network. [...] At first, we map GPS points to corresponding road
//! segments and then connect all road segments to make up the mapped
//! trajectory." (Section 3.1)
//!
//! The paper uses the interactive-voting map matcher of Yuan et al. [29];
//! here we implement a lighter nearest-segment matcher with a path-continuity
//! bonus, which is sufficient for the simulator's 10 m GPS noise and keeps
//! the pre-processing pipeline end-to-end testable (the simulator knows the
//! ground-truth segments, so matching quality is asserted in tests).

use streach_geo::Mbr;
use streach_roadnet::{RoadNetwork, SegmentId};

use crate::gps::RawTrajectory;

/// One visit of a trajectory to a road segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentVisit {
    /// The visited segment.
    pub segment: SegmentId,
    /// Time of day (seconds after midnight) at which the trajectory entered
    /// the segment.
    pub enter_time_s: u32,
}

/// A map-matched trajectory: the ordered list of segments visited during one
/// day by one moving object.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MatchedTrajectory {
    /// Unique trajectory ID (same numbering as the raw trajectory).
    pub traj_id: u32,
    /// Day index within the dataset.
    pub date: u16,
    /// Ordered segment visits.
    pub visits: Vec<SegmentVisit>,
}

impl MatchedTrajectory {
    /// Creates an empty matched trajectory.
    pub fn new(traj_id: u32, date: u16) -> Self {
        Self {
            traj_id,
            date,
            visits: Vec::new(),
        }
    }

    /// Number of segment visits.
    pub fn len(&self) -> usize {
        self.visits.len()
    }

    /// Returns `true` when there are no visits.
    pub fn is_empty(&self) -> bool {
        self.visits.is_empty()
    }

    /// Appends a visit, merging consecutive visits to the same segment.
    pub fn push(&mut self, visit: SegmentVisit) {
        if let Some(last) = self.visits.last() {
            if last.segment == visit.segment {
                return;
            }
            debug_assert!(
                visit.enter_time_s >= last.enter_time_s,
                "visits must be time-ordered"
            );
        }
        self.visits.push(visit);
    }
}

/// A reusable map-matcher over a road network. Its candidates for a GPS
/// point are the segments the network's R-tree finds in the window around
/// the point padded by the matching radius.
pub struct MapMatcher<'a> {
    network: &'a RoadNetwork,
    /// GPS points farther than this from every segment are dropped as noise.
    max_match_distance_m: f64,
    /// Bonus (in meters of equivalent distance) granted to candidates that
    /// continue the previous segment.
    continuity_bonus_m: f64,
}

impl<'a> MapMatcher<'a> {
    /// Builds a matcher for the network. `max_match_distance_m` is the
    /// largest GPS-to-segment distance still considered a valid match
    /// (50 m by default in [`map_match`]).
    pub fn new(network: &'a RoadNetwork, max_match_distance_m: f64) -> Self {
        Self {
            network,
            max_match_distance_m,
            continuity_bonus_m: 25.0,
        }
    }

    /// Matches one raw trajectory.
    pub fn match_trajectory(&self, raw: &RawTrajectory) -> MatchedTrajectory {
        let mut matched = MatchedTrajectory::new(raw.traj_id, raw.date);
        let mut previous: Option<SegmentId> = None;
        // A thousandth over the radius absorbs the difference between the
        // point's tangent plane (the window) and each segment's (its
        // distance), so every segment within the radius is a candidate.
        let pad_m = self.max_match_distance_m * 1.001;
        for rec in &raw.records {
            let window = Mbr::of_points(&[
                rec.point.offset_m(-pad_m, -pad_m),
                rec.point.offset_m(pad_m, pad_m),
            ]);
            let mut candidates = self.network.segments_in_window(&window);
            // In id order, so an exact tie goes to the lower id.
            candidates.sort_unstable();
            let mut best: Option<(SegmentId, f64)> = None;
            for cand in candidates {
                let seg = self.network.segment(cand);
                let d = seg.geometry.project(&rec.point).distance_m;
                if d > self.max_match_distance_m {
                    continue;
                }
                let mut score = d;
                if let Some(prev) = previous {
                    if cand == prev
                        || self.network.successors(prev).contains(&cand)
                        || self.network.segment(prev).twin == Some(cand)
                    {
                        score -= self.continuity_bonus_m;
                    }
                }
                if best.map(|(_, s)| score < s).unwrap_or(true) {
                    best = Some((cand, score));
                }
            }
            if let Some((seg, _)) = best {
                matched.push(SegmentVisit {
                    segment: seg,
                    enter_time_s: rec.time_s,
                });
                previous = Some(seg);
            }
        }
        matched
    }
}

/// Convenience wrapper: builds a matcher and matches a batch of raw
/// trajectories with a 50 m matching radius.
pub fn map_match(network: &RoadNetwork, raw: &[RawTrajectory]) -> Vec<MatchedTrajectory> {
    let matcher = MapMatcher::new(network, 50.0);
    raw.iter().map(|t| matcher.match_trajectory(t)).collect()
}

/// Returns the fraction of visits in `matched` whose segment (or its twin)
/// also appears in `truth` — a simple quality metric used by tests and the
/// pre-processing example.
pub fn match_agreement(
    network: &RoadNetwork,
    matched: &MatchedTrajectory,
    truth: &MatchedTrajectory,
) -> f64 {
    if matched.visits.is_empty() {
        return 0.0;
    }
    let truth_set: std::collections::HashSet<SegmentId> = truth
        .visits
        .iter()
        .flat_map(|v| {
            let twin = network.segment(v.segment).twin;
            std::iter::once(v.segment).chain(twin)
        })
        .collect();
    let hits = matched
        .visits
        .iter()
        .filter(|v| truth_set.contains(&v.segment))
        .count();
    hits as f64 / matched.visits.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gps::GpsRecord;
    use streach_geo::{GeoPoint, Polyline};
    use streach_roadnet::{Direction, RawRoad, RoadClass};

    /// A straight two-way road of 4 chained 500 m segments.
    fn straight_net() -> RoadNetwork {
        let origin = GeoPoint::new(114.0, 22.5);
        let mut roads = Vec::new();
        for i in 0..4 {
            let a = origin.offset_m(i as f64 * 500.0, 0.0);
            let b = origin.offset_m((i + 1) as f64 * 500.0, 0.0);
            roads.push(RawRoad {
                geometry: Polyline::straight(a, b),
                class: RoadClass::Primary,
                direction: Direction::TwoWay,
            });
        }
        RoadNetwork::from_roads(&roads)
    }

    fn gps_along_road(offsets_m: &[f64], noise_m: f64) -> RawTrajectory {
        let origin = GeoPoint::new(114.0, 22.5);
        let mut raw = RawTrajectory::new(1, 0);
        for (i, &off) in offsets_m.iter().enumerate() {
            let noise = if i % 2 == 0 { noise_m } else { -noise_m };
            raw.push(GpsRecord {
                traj_id: 1,
                point: origin.offset_m(off, noise),
                speed_ms: 12.0,
                time_s: 36000 + (i as u32) * 30,
                date: 0,
            });
        }
        raw
    }

    #[test]
    fn matches_points_to_consecutive_segments() {
        let net = straight_net();
        let raw = gps_along_road(&[50.0, 400.0, 700.0, 1100.0, 1600.0, 1950.0], 8.0);
        let matched = map_match(&net, &[raw])[0].clone();
        assert!(matched.len() >= 4, "visits {}", matched.len());
        // Visits must be time ordered and cover increasing offsets.
        for w in matched.visits.windows(2) {
            assert!(w[0].enter_time_s <= w[1].enter_time_s);
            assert_ne!(w[0].segment, w[1].segment);
        }
        // All matched segments are among the 8 directed segments of the road.
        for v in &matched.visits {
            assert!(v.segment.index() < net.num_segments());
        }
    }

    #[test]
    fn consecutive_duplicates_are_merged() {
        let net = straight_net();
        // Many fixes on the same segment.
        let raw = gps_along_road(&[50.0, 100.0, 180.0, 260.0, 380.0], 5.0);
        let matched = map_match(&net, &[raw])[0].clone();
        assert_eq!(matched.len(), 1, "all points lie on the first segment");
    }

    #[test]
    fn noisy_points_far_from_roads_are_dropped() {
        let net = straight_net();
        let origin = GeoPoint::new(114.0, 22.5);
        let mut raw = RawTrajectory::new(2, 3);
        raw.push(GpsRecord {
            traj_id: 2,
            point: origin.offset_m(100.0, 5.0),
            speed_ms: 10.0,
            time_s: 100,
            date: 3,
        });
        // An outlier 3 km off the road.
        raw.push(GpsRecord {
            traj_id: 2,
            point: origin.offset_m(200.0, 3000.0),
            speed_ms: 10.0,
            time_s: 130,
            date: 3,
        });
        let matched = map_match(&net, &[raw])[0].clone();
        assert_eq!(matched.len(), 1);
        assert_eq!(matched.date, 3);
        assert_eq!(matched.traj_id, 2);
    }

    #[test]
    fn continuity_prefers_previous_direction() {
        let net = straight_net();
        // Points exactly on the centre line are equidistant from the two
        // directed twins; continuity must keep the matcher on one of them
        // rather than flip-flopping.
        let raw = gps_along_road(&[50.0, 300.0, 550.0, 800.0, 1050.0], 0.0);
        let matched = map_match(&net, &[raw])[0].clone();
        // No segment may be immediately followed by its twin.
        for w in matched.visits.windows(2) {
            assert_ne!(
                Some(w[1].segment),
                net.segment(w[0].segment).twin,
                "U-turn artefact"
            );
        }
    }

    #[test]
    fn empty_trajectory_matches_to_empty() {
        let net = straight_net();
        let raw = RawTrajectory::new(9, 0);
        let matched = map_match(&net, &[raw])[0].clone();
        assert!(matched.is_empty());
    }

    #[test]
    fn agreement_metric_bounds() {
        let net = straight_net();
        let raw = gps_along_road(&[50.0, 700.0, 1200.0, 1700.0], 5.0);
        let matched = map_match(&net, &[raw])[0].clone();
        let agreement = match_agreement(&net, &matched, &matched);
        assert_eq!(agreement, 1.0);
        let empty = MatchedTrajectory::new(1, 0);
        assert_eq!(match_agreement(&net, &empty, &matched), 0.0);
    }
}
