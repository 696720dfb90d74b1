//! Road re-segmentation (pre-processing step 1).
//!
//! "The road re-segmentation step partitions the original road segments based
//! on a given spatial granularity (e.g., 500 meters). The main intuition
//! behind this step is that, in the real road network data, there are many
//! road segments with very large length value (e.g., some highways), and we
//! want to avoid having such long road in our result set." (Section 3.1)

use crate::graph::RawRoad;

/// Default spatial granularity used by the paper.
pub const DEFAULT_GRANULARITY_M: f64 = 500.0;

/// Splits every road longer than `granularity_m` into consecutive pieces of
/// roughly equal length no longer than the granularity, preserving class and
/// directionality. Roads already short enough pass through untouched.
pub fn resegment_roads(roads: &[RawRoad], granularity_m: f64) -> Vec<RawRoad> {
    assert!(granularity_m > 0.0, "granularity must be positive");
    let mut out = Vec::with_capacity(roads.len());
    for road in roads {
        if road.geometry.length_m() <= granularity_m {
            out.push(road.clone());
        } else {
            for piece in road.geometry.split_by_length(granularity_m) {
                out.push(RawRoad {
                    geometry: piece,
                    class: road.class,
                    direction: road.direction,
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::RoadNetwork;
    use crate::segment::{Direction, RoadClass};
    use streach_geo::{GeoPoint, Polyline};

    fn long_highway() -> RawRoad {
        let a = GeoPoint::new(114.0, 22.5);
        let b = a.offset_m(4800.0, 0.0);
        RawRoad {
            geometry: Polyline::straight(a, b),
            class: RoadClass::Highway,
            direction: Direction::TwoWay,
        }
    }

    fn short_street() -> RawRoad {
        let a = GeoPoint::new(114.02, 22.52);
        let b = a.offset_m(0.0, 300.0);
        RawRoad {
            geometry: Polyline::straight(a, b),
            class: RoadClass::Local,
            direction: Direction::TwoWay,
        }
    }

    #[test]
    fn short_roads_pass_through() {
        let roads = vec![short_street()];
        let out = resegment_roads(&roads, 500.0);
        assert_eq!(out.len(), 1);
        assert!((out[0].geometry.length_m() - 300.0).abs() < 2.0);
    }

    #[test]
    fn long_roads_are_chopped() {
        let roads = vec![long_highway(), short_street()];
        let out = resegment_roads(&roads, 500.0);
        // The 4.8 km highway becomes 10 pieces of 480 m; the street stays.
        assert_eq!(out.len(), 11);
        let highway_pieces: Vec<&RawRoad> = out
            .iter()
            .filter(|r| r.class == RoadClass::Highway)
            .collect();
        assert_eq!(highway_pieces.len(), 10);
        for piece in &highway_pieces {
            assert!(piece.geometry.length_m() <= 505.0);
            assert_eq!(piece.direction, Direction::TwoWay);
        }
        let total: f64 = highway_pieces.iter().map(|r| r.geometry.length_m()).sum();
        assert!((total - 4800.0).abs() < 10.0);
    }

    #[test]
    fn resegmented_pieces_remain_connected_in_the_graph() {
        let out = resegment_roads(&[long_highway()], 500.0);
        let net = RoadNetwork::from_roads(&out);
        // 10 pieces -> 11 nodes, 20 directed segments; and we can walk from
        // the first to the last piece through successors.
        assert_eq!(net.num_nodes(), 11);
        assert_eq!(net.num_segments(), 20);
        let (start, _) = net.nearest_segment(&GeoPoint::new(114.0, 22.5)).unwrap();
        let mut frontier = vec![start];
        let mut seen = std::collections::HashSet::new();
        seen.insert(start);
        while let Some(seg) = frontier.pop() {
            for &next in net.successors(seg) {
                if seen.insert(next) {
                    frontier.push(next);
                }
            }
        }
        // One direction of the chopped highway is fully reachable.
        assert!(seen.len() >= 10, "reached {} segments", seen.len());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_granularity_rejected() {
        resegment_roads(&[short_street()], 0.0);
    }
}
