//! Synthetic metropolis generator.
//!
//! The paper evaluates on the road network of Shenzhen, China (about 400
//! square miles). That data is not redistributable, so this module generates
//! a synthetic metropolitan network with the structural features the
//! evaluation relies on:
//!
//! * a dense grid of low-speed local streets,
//! * periodic primary/secondary arterials,
//! * a small number of high-speed expressways crossing the city,
//! * slight geometric jitter so segments are not axis-aligned rectangles.
//!
//! The generated raw roads are passed through the re-segmentation step and a
//! [`RoadNetwork`] is built, exactly as a real import would be.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use streach_geo::{GeoPoint, Polyline};

use crate::graph::{RawRoad, RoadNetwork};
use crate::resegment::resegment_roads;
use crate::segment::{Direction, RoadClass};

/// Configuration of the synthetic city.
#[derive(Debug, Clone)]
pub struct GeneratorConfig {
    /// Number of north–south grid lines (columns of intersections).
    pub cols: usize,
    /// Number of east–west grid lines (rows of intersections).
    pub rows: usize,
    /// Spacing between adjacent grid lines, in meters.
    pub block_m: f64,
    /// South-west corner of the city.
    pub origin: GeoPoint,
    /// Every `highway_period`-th grid line is an expressway.
    pub highway_period: usize,
    /// Every `primary_period`-th grid line is a primary arterial.
    pub primary_period: usize,
    /// Maximum random displacement applied to every intersection, in meters.
    pub jitter_m: f64,
    /// Road re-segmentation granularity in meters (paper default: 500 m).
    pub granularity_m: f64,
    /// RNG seed: the same seed always produces the same city.
    pub seed: u64,
}

impl Default for GeneratorConfig {
    fn default() -> Self {
        Self {
            cols: 33,
            rows: 33,
            block_m: 500.0,
            origin: GeoPoint::new(113.90, 22.45),
            highway_period: 8,
            primary_period: 4,
            jitter_m: 40.0,
            granularity_m: 500.0,
            seed: 42,
        }
    }
}

impl GeneratorConfig {
    /// A small city (good for unit tests): 9×9 grid, ~4 km across.
    pub fn small() -> Self {
        Self {
            cols: 9,
            rows: 9,
            seed: 7,
            ..Self::default()
        }
    }

    /// A medium city used by the examples: 21×21 grid, ~10 km across.
    pub fn medium() -> Self {
        Self {
            cols: 21,
            rows: 21,
            seed: 11,
            ..Self::default()
        }
    }

    /// Approximate extent of the city in kilometres, `(east-west, north-south)`.
    pub fn extent_km(&self) -> (f64, f64) {
        (
            (self.cols.saturating_sub(1)) as f64 * self.block_m / 1000.0,
            (self.rows.saturating_sub(1)) as f64 * self.block_m / 1000.0,
        )
    }
}

/// A generated city: the road network plus the configuration it came from.
pub struct SyntheticCity {
    /// The re-segmented road network.
    pub network: RoadNetwork,
    /// The configuration used to generate it.
    pub config: GeneratorConfig,
}

impl SyntheticCity {
    /// Generates the city deterministically from `config.seed`.
    #[allow(clippy::needless_range_loop)] // grid[i][j] indexing is clearer than iterator chains here
    pub fn generate(config: GeneratorConfig) -> Self {
        assert!(
            config.cols >= 2 && config.rows >= 2,
            "city needs at least a 2x2 grid"
        );
        assert!(config.block_m > 0.0, "block size must be positive");
        let mut rng = StdRng::seed_from_u64(config.seed);

        // Jittered intersection positions.
        let mut grid: Vec<Vec<GeoPoint>> = Vec::with_capacity(config.cols);
        for i in 0..config.cols {
            let mut column = Vec::with_capacity(config.rows);
            for j in 0..config.rows {
                let jitter_x = if config.jitter_m > 0.0 {
                    rng.gen_range(-config.jitter_m..config.jitter_m)
                } else {
                    0.0
                };
                let jitter_y = if config.jitter_m > 0.0 {
                    rng.gen_range(-config.jitter_m..config.jitter_m)
                } else {
                    0.0
                };
                column.push(config.origin.offset_m(
                    i as f64 * config.block_m + jitter_x,
                    j as f64 * config.block_m + jitter_y,
                ));
            }
            grid.push(column);
        }

        let class_of_line = |index: usize| -> RoadClass {
            if config.highway_period > 0
                && index % config.highway_period == config.highway_period / 2
            {
                RoadClass::Highway
            } else if config.primary_period > 0 && index.is_multiple_of(config.primary_period) {
                RoadClass::Primary
            } else if index.is_multiple_of(2) {
                RoadClass::Secondary
            } else {
                RoadClass::Local
            }
        };

        let mut roads: Vec<RawRoad> = Vec::new();
        // East–west roads (one per row j).
        for j in 0..config.rows {
            let class = class_of_line(j);
            for i in 0..config.cols - 1 {
                roads.push(RawRoad {
                    geometry: Polyline::straight(grid[i][j], grid[i + 1][j]),
                    class,
                    direction: Direction::TwoWay,
                });
            }
        }
        // North–south roads (one per column i).
        for (i, column) in grid.iter().enumerate() {
            let class = class_of_line(i);
            for j in 0..config.rows - 1 {
                roads.push(RawRoad {
                    geometry: Polyline::straight(column[j], column[j + 1]),
                    class,
                    direction: Direction::TwoWay,
                });
            }
        }
        // One diagonal expressway crossing the city, to break the pure grid
        // topology (long trips naturally route onto it).
        let diag_points: Vec<GeoPoint> = (0..config.cols.min(config.rows))
            .map(|k| grid[k][k])
            .collect();
        if diag_points.len() >= 2 {
            for w in diag_points.windows(2) {
                roads.push(RawRoad {
                    geometry: Polyline::straight(w[0], w[1]),
                    class: RoadClass::Highway,
                    direction: Direction::TwoWay,
                });
            }
        }

        let resegmented = resegment_roads(&roads, config.granularity_m);
        let network = RoadNetwork::from_roads(&resegmented);
        Self { network, config }
    }

    /// The intersection closest to the geometric centre of the city — a
    /// convenient default query location.
    pub fn central_point(&self) -> GeoPoint {
        self.network.bounds().center()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dijkstra::shortest_path_between_nodes;
    use crate::graph::NodeId;

    #[test]
    fn generation_is_deterministic() {
        let a = SyntheticCity::generate(GeneratorConfig::small());
        let b = SyntheticCity::generate(GeneratorConfig::small());
        assert_eq!(a.network.num_segments(), b.network.num_segments());
        assert_eq!(a.network.num_nodes(), b.network.num_nodes());
        let pa = a
            .network
            .segment(crate::segment::SegmentId(10))
            .geometry
            .start();
        let pb = b
            .network
            .segment(crate::segment::SegmentId(10))
            .geometry
            .start();
        assert_eq!(pa, pb);
    }

    #[test]
    fn different_seeds_differ() {
        let a = SyntheticCity::generate(GeneratorConfig::small());
        let b = SyntheticCity::generate(GeneratorConfig {
            seed: 99,
            ..GeneratorConfig::small()
        });
        let pa = a
            .network
            .segment(crate::segment::SegmentId(10))
            .geometry
            .start();
        let pb = b
            .network
            .segment(crate::segment::SegmentId(10))
            .geometry
            .start();
        assert_ne!(pa, pb);
    }

    #[test]
    fn small_city_has_reasonable_size() {
        let city = SyntheticCity::generate(GeneratorConfig::small());
        let net = &city.network;
        assert!(net.num_nodes() >= 81, "nodes {}", net.num_nodes());
        // 9x9 grid: 2 * 9 * 8 = 144 undirected edges plus the diagonal, all
        // two-way, so at least 288 directed segments.
        assert!(net.num_segments() >= 288, "segments {}", net.num_segments());
        let hist = net.class_histogram();
        assert!(hist.contains_key(&RoadClass::Highway));
        assert!(hist.contains_key(&RoadClass::Primary));
        assert!(hist.contains_key(&RoadClass::Local));
        // Local streets dominate highways.
        assert!(hist[&RoadClass::Local] + hist[&RoadClass::Secondary] > hist[&RoadClass::Highway]);
    }

    #[test]
    fn extent_matches_config() {
        let cfg = GeneratorConfig::small();
        let (w, h) = cfg.extent_km();
        assert!((w - 4.0).abs() < 1e-9);
        assert!((h - 4.0).abs() < 1e-9);
        let city = SyntheticCity::generate(cfg);
        let bounds = city.network.bounds();
        let diag_km = GeoPoint::new(bounds.min_lon, bounds.min_lat)
            .haversine_m(&GeoPoint::new(bounds.max_lon, bounds.max_lat))
            / 1000.0;
        // Diagonal of a ~4x4 km box (plus jitter) is about 5.7 km.
        assert!((diag_km - 5.7).abs() < 0.5, "diagonal {diag_km}");
    }

    #[test]
    fn city_is_strongly_connected_enough_for_routing() {
        let city = SyntheticCity::generate(GeneratorConfig::small());
        let net = &city.network;
        // Route between opposite corners of the network.
        let bounds = net.bounds();
        let sw = net
            .nearest_segment(&GeoPoint::new(bounds.min_lon, bounds.min_lat))
            .unwrap()
            .0;
        let ne = net
            .nearest_segment(&GeoPoint::new(bounds.max_lon, bounds.max_lat))
            .unwrap()
            .0;
        let from = net.segment(sw).start_node;
        let to = net.segment(ne).end_node;
        let path = shortest_path_between_nodes(net, from, to);
        assert!(path.is_some(), "corner-to-corner route must exist");
        let (_, dist) = path.unwrap();
        assert!(dist > 4000.0, "route length {dist}");
    }

    #[test]
    fn nearest_segment_to_center_exists() {
        let city = SyntheticCity::generate(GeneratorConfig::small());
        let (seg, d) = city.network.nearest_segment(&city.central_point()).unwrap();
        assert!(d < 600.0, "nearest segment {seg} at {d} m");
    }

    #[test]
    #[should_panic(expected = "2x2")]
    fn degenerate_grid_rejected() {
        SyntheticCity::generate(GeneratorConfig {
            cols: 1,
            ..GeneratorConfig::small()
        });
    }

    #[test]
    fn all_nodes_reachable_from_center_in_both_grid_directions() {
        // Sanity: with two-way streets, the undirected graph is connected.
        let city = SyntheticCity::generate(GeneratorConfig::small());
        let net = &city.network;
        let (start, _) = net.nearest_segment(&city.central_point()).unwrap();
        let mut seen = std::collections::HashSet::new();
        let mut stack = vec![start];
        seen.insert(start);
        while let Some(seg) = stack.pop() {
            for &next in net.successors(seg) {
                if seen.insert(next) {
                    stack.push(next);
                }
            }
        }
        // Every directed segment is reachable (two-way grid => strongly connected).
        assert_eq!(seen.len(), net.num_segments());
        let _ = NodeId(0);
    }
}
