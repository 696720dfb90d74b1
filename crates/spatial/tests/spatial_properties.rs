//! Randomized invariant tests for the spatial indexes: the R-tree and the
//! grid are compared against brute-force linear scans.
//!
//! Formerly written with proptest; the build environment is offline, so the
//! same properties are now exercised with a seeded deterministic RNG.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use streach_geo::{GeoPoint, Mbr};
use streach_spatial::RTree;

const CASES: usize = 64;

fn city_point(rng: &mut StdRng) -> GeoPoint {
    GeoPoint::new(rng.gen_range(113.8..114.4), rng.gen_range(22.45..22.8))
}

fn small_mbr(rng: &mut StdRng) -> Mbr {
    let c = city_point(rng);
    let w = rng.gen_range(10.0..800.0);
    let h = rng.gen_range(10.0..800.0);
    let a = c.offset_m(-w / 2.0, -h / 2.0);
    let b = c.offset_m(w / 2.0, h / 2.0);
    Mbr::new(a.lon, a.lat, b.lon, b.lat)
}

fn mbrs(rng: &mut StdRng, max: usize) -> Vec<(Mbr, u32)> {
    let n = rng.gen_range(1..max);
    (0..n as u32).map(|i| (small_mbr(rng), i)).collect()
}

/// Window queries on a bulk-loaded R-tree return exactly the items a linear
/// scan finds.
#[test]
fn rtree_bulk_window_query_matches_scan() {
    let mut rng = StdRng::seed_from_u64(301);
    for case in 0..CASES {
        let items = mbrs(&mut rng, 250);
        let window = small_mbr(&mut rng);
        let tree = RTree::bulk_load(items.clone());
        assert_eq!(tree.len(), items.len(), "case {case}");
        let mut got: Vec<u32> = tree.search_mbr(&window).into_iter().copied().collect();
        let mut expected: Vec<u32> = items
            .iter()
            .filter(|(m, _)| m.intersects(&window))
            .map(|(_, i)| *i)
            .collect();
        got.sort_unstable();
        expected.sort_unstable();
        assert_eq!(got, expected, "case {case}");
    }
}

/// The same holds for a tree built by repeated insertion.
#[test]
fn rtree_insert_window_query_matches_scan() {
    let mut rng = StdRng::seed_from_u64(302);
    for case in 0..CASES {
        let items = mbrs(&mut rng, 200);
        let window = small_mbr(&mut rng);
        let mut tree = RTree::new();
        for (m, i) in &items {
            tree.insert(*m, *i);
        }
        let mut got: Vec<u32> = tree.search_mbr(&window).into_iter().copied().collect();
        let mut expected: Vec<u32> = items
            .iter()
            .filter(|(m, _)| m.intersects(&window))
            .map(|(_, i)| *i)
            .collect();
        got.sort_unstable();
        expected.sort_unstable();
        assert_eq!(got, expected, "case {case}");
    }
}

/// Point queries return exactly the items whose MBR contains the point.
#[test]
fn rtree_point_query_matches_scan() {
    let mut rng = StdRng::seed_from_u64(303);
    for case in 0..CASES {
        let items = mbrs(&mut rng, 200);
        let p = city_point(&mut rng);
        let tree = RTree::bulk_load(items.clone());
        let mut got: Vec<u32> = tree.search_point(&p).into_iter().copied().collect();
        let mut expected: Vec<u32> = items
            .iter()
            .filter(|(m, _)| m.contains_point(&p))
            .map(|(_, i)| *i)
            .collect();
        got.sort_unstable();
        expected.sort_unstable();
        assert_eq!(got, expected, "case {case}");
    }
}

/// Nearest-neighbour search with the exact point distance agrees with a
/// brute-force scan.
#[test]
fn rtree_nearest_matches_scan() {
    let mut rng = StdRng::seed_from_u64(304);
    for case in 0..CASES {
        let n = rng.gen_range(1..200usize);
        let centers: Vec<GeoPoint> = (0..n).map(|_| city_point(&mut rng)).collect();
        let q = city_point(&mut rng);
        let items: Vec<(Mbr, u32)> = centers.iter().map(Mbr::of_point).zip(0u32..).collect();
        let tree = RTree::bulk_load(items);
        let (got, got_d) = tree
            .nearest_by(&q, |&id| centers[id as usize].haversine_m(&q))
            .unwrap();
        let best = centers
            .iter()
            .map(|c| c.haversine_m(&q))
            .fold(f64::INFINITY, f64::min);
        assert!(
            (got_d - best).abs() < 1e-9,
            "case {case}: got {got_d} best {best}"
        );
        assert!(
            (centers[*got as usize].haversine_m(&q) - best).abs() < 1e-9,
            "case {case}"
        );
    }
}
