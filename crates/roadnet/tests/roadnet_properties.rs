//! Randomized invariant tests for the road-network substrate.
//!
//! Formerly written with proptest; the build environment is offline, so the
//! same properties are now exercised with a seeded deterministic RNG.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use streach_geo::{GeoPoint, Polyline};
use streach_roadnet::{
    expand_within_time, resegment_roads, segment_distances_from, DijkstraWorkspace, Direction,
    GeneratorConfig, RawRoad, RoadClass, RoadNetwork, SegmentId, SyntheticCity,
};

fn arb_class(rng: &mut StdRng) -> RoadClass {
    match rng.gen_range(0..4u32) {
        0 => RoadClass::Highway,
        1 => RoadClass::Primary,
        2 => RoadClass::Secondary,
        _ => RoadClass::Local,
    }
}

fn arb_road(rng: &mut StdRng) -> RawRoad {
    let a = GeoPoint::new(rng.gen_range(113.9..114.3), rng.gen_range(22.45..22.75));
    let dx = rng.gen_range(-3000.0..3000.0f64);
    let dy = rng.gen_range(-3000.0..3000.0);
    // Keep roads at least 30 m long so snapping cannot collapse them.
    let dx = if dx.abs() < 30.0 { 30.0 } else { dx };
    let b = a.offset_m(dx, dy);
    RawRoad {
        geometry: Polyline::straight(a, b),
        class: arb_class(rng),
        direction: if rng.gen_bool(0.5) {
            Direction::TwoWay
        } else {
            Direction::OneWay
        },
    }
}

fn arb_roads(rng: &mut StdRng, max: usize) -> Vec<RawRoad> {
    let n = rng.gen_range(1..max);
    (0..n).map(|_| arb_road(rng)).collect()
}

/// Re-segmentation preserves total length and never produces pieces longer
/// than the granularity.
#[test]
fn resegmentation_preserves_length() {
    let mut rng = StdRng::seed_from_u64(401);
    for case in 0..48 {
        let roads = arb_roads(&mut rng, 30);
        let granularity = rng.gen_range(150.0..900.0);
        let before: f64 = roads.iter().map(|r| r.geometry.length_m()).sum();
        let out = resegment_roads(&roads, granularity);
        let after: f64 = out.iter().map(|r| r.geometry.length_m()).sum();
        assert!(
            (before - after).abs() < before.max(1.0) * 0.01 + 1.0,
            "case {case}"
        );
        for piece in &out {
            assert!(
                piece.geometry.length_m() <= granularity * 1.02 + 1.0,
                "case {case}"
            );
        }
        assert!(out.len() >= roads.len(), "case {case}");
    }
}

/// Building a network from arbitrary roads preserves the total length
/// (doubling two-way roads) and produces a consistent adjacency.
#[test]
fn network_construction_invariants() {
    let mut rng = StdRng::seed_from_u64(402);
    for case in 0..48 {
        let roads = arb_roads(&mut rng, 40);
        let net = RoadNetwork::from_roads(&roads);
        let expected_directed: f64 = roads
            .iter()
            .map(|r| match r.direction {
                Direction::TwoWay => 2.0 * r.geometry.length_m(),
                Direction::OneWay => r.geometry.length_m(),
            })
            .sum::<f64>()
            / 1000.0;
        assert!(
            (net.total_length_km() - expected_directed).abs() < expected_directed * 0.01 + 0.01,
            "case {case}"
        );

        for seg in net.segments() {
            // Successor segments start where this segment ends.
            for next in net.successors(seg.id) {
                assert_eq!(net.segment(next).start_node, seg.end_node, "case {case}");
                assert!(Some(next) != seg.twin, "case {case}");
            }
            // Twins are symmetric.
            if let Some(twin) = seg.twin {
                assert_eq!(net.segment(twin).twin, Some(seg.id), "case {case}");
            }
            // The cached MBR covers the geometry.
            for p in seg.geometry.points() {
                assert!(seg.mbr.contains_point(p), "case {case}");
            }
        }
    }
}

/// Nearest-segment lookup agrees with a brute-force scan.
#[test]
fn nearest_segment_matches_bruteforce() {
    let mut rng = StdRng::seed_from_u64(403);
    for case in 0..48 {
        let roads = arb_roads(&mut rng, 30);
        let net = RoadNetwork::from_roads(&roads);
        if net.num_segments() == 0 {
            continue;
        }
        let q = GeoPoint::new(rng.gen_range(113.9..114.3), rng.gen_range(22.45..22.75));
        let (_, d) = net.nearest_segment(&q).unwrap();
        let brute = net
            .segments()
            .iter()
            .map(|s| s.geometry.project(&q).distance_m)
            .fold(f64::INFINITY, f64::min);
        assert!(
            (d - brute).abs() < 1e-6,
            "case {case}: got {d} brute {brute}"
        );
    }
}

/// Network expansion is monotone in both the time budget and the speed.
#[test]
fn expansion_monotonicity() {
    let mut rng = StdRng::seed_from_u64(404);
    for case in 0..12 {
        let seed = rng.gen_range(0..1000u64);
        let budget = rng.gen_range(30.0..600.0);
        let city = SyntheticCity::generate(GeneratorConfig {
            seed,
            ..GeneratorConfig::small()
        });
        let net = &city.network;
        let (start, _) = net.nearest_segment(&city.central_point()).unwrap();
        let slow = expand_within_time(net, &[start], budget, |s| {
            net.segment(s).class.free_flow_ms() * 0.5
        });
        let fast = expand_within_time(net, &[start], budget, |s| {
            net.segment(s).class.free_flow_ms()
        });
        let longer = expand_within_time(net, &[start], budget * 2.0, |s| {
            net.segment(s).class.free_flow_ms() * 0.5
        });
        for seg in slow.reached() {
            assert!(
                fast.contains(seg),
                "case {case}: faster speeds must reach a superset"
            );
            assert!(
                longer.contains(seg),
                "case {case}: longer budget must reach a superset"
            );
        }
        // Arrival times never exceed the budget.
        for (_, t) in fast.arrival_s.iter() {
            assert!(*t <= budget + 1e-9, "case {case}");
        }
    }
}

/// The pre-workspace expansion, kept verbatim as the oracle: a per-call
/// `HashMap` of arrivals and a heap ordered by (arrival, segment ID).
fn hashmap_expansion(
    net: &RoadNetwork,
    starts: &[SegmentId],
    budget_s: f64,
    speed_ms: impl Fn(SegmentId) -> f64,
) -> std::collections::HashMap<SegmentId, f64> {
    use std::cmp::Reverse;
    #[derive(PartialEq)]
    struct Entry(f64, u32);
    impl Eq for Entry {}
    impl PartialOrd for Entry {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for Entry {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            self.0.total_cmp(&other.0).then(self.1.cmp(&other.1))
        }
    }
    let mut arrival = std::collections::HashMap::new();
    let mut heap = std::collections::BinaryHeap::new();
    for &s in starts {
        arrival.insert(s, 0.0);
        heap.push(Reverse(Entry(0.0, s.0)));
    }
    while let Some(Reverse(Entry(t, item))) = heap.pop() {
        let seg = SegmentId(item);
        if t > *arrival.get(&seg).unwrap_or(&f64::INFINITY) {
            continue;
        }
        for next in net.successors(seg) {
            let speed = speed_ms(next);
            if speed <= 0.0 {
                continue;
            }
            let nt = t + net.segment(next).length_m / speed;
            if nt <= budget_s && nt < *arrival.get(&next).unwrap_or(&f64::INFINITY) {
                arrival.insert(next, nt);
                heap.push(Reverse(Entry(nt, next.0)));
            }
        }
    }
    arrival
}

/// The dense workspace expansion reproduces the `HashMap` implementation bit
/// for bit, and a multi-source run reaches exactly the union of the
/// single-source runs (each segment at the minimum of their arrivals) — the
/// identity that lets a Con-Index hop replace a union of Far/Near lists.
#[test]
fn dense_expansion_matches_hashmap_and_multi_source_is_the_union() {
    let mut rng = StdRng::seed_from_u64(406);
    let mut ws = DijkstraWorkspace::new();
    for case in 0..12 {
        let city = SyntheticCity::generate(GeneratorConfig {
            seed: rng.gen_range(0..1000u64),
            ..GeneratorConfig::small()
        });
        let net = &city.network;
        let budget = rng.gen_range(30.0..400.0);
        // Uneven per-segment speeds, with a few impassable segments.
        let factors: Vec<f64> = (0..net.num_segments())
            .map(|_| {
                if rng.gen_bool(0.03) {
                    0.0
                } else {
                    rng.gen_range(0.2..1.0)
                }
            })
            .collect();
        let speed = |s: SegmentId| net.segment(s).class.free_flow_ms() * factors[s.index()];
        let mut sources: Vec<SegmentId> = (0..rng.gen_range(1..40usize))
            .map(|_| SegmentId(rng.gen_range(0..net.num_segments() as u32)))
            .collect();
        sources.push(sources[0]); // a duplicate changes nothing

        let mut union: std::collections::HashMap<SegmentId, f64> = Default::default();
        for &s in &sources {
            let single = hashmap_expansion(net, &[s], budget, speed);
            ws.expand_within_time(net, &[s], budget, speed);
            assert_eq!(ws.num_settled(), single.len(), "case {case} source {s}");
            for (seg, t) in ws.settled() {
                assert_eq!(
                    t.to_bits(),
                    single[&seg].to_bits(),
                    "case {case} {s}->{seg}"
                );
                let best = union.entry(seg).or_insert(t);
                *best = best.min(t);
            }
        }

        let multi = hashmap_expansion(net, &sources, budget, speed);
        ws.expand_within_time(net, &sources, budget, speed);
        assert_eq!(
            ws.num_settled(),
            union.len(),
            "case {case}: reached != union"
        );
        assert_eq!(multi.len(), union.len(), "case {case}");
        for (seg, t) in ws.settled() {
            assert_eq!(t.to_bits(), union[&seg].to_bits(), "case {case} seg {seg}");
            assert_eq!(t.to_bits(), multi[&seg].to_bits(), "case {case} seg {seg}");
            assert!(t <= budget, "case {case}");
        }
    }
}

/// Segment-level Dijkstra distances are consistent: they satisfy the
/// triangle inequality through direct successor relations.
#[test]
fn dijkstra_distances_are_consistent() {
    let mut rng = StdRng::seed_from_u64(405);
    for case in 0..12 {
        let seed = rng.gen_range(0..1000u64);
        let city = SyntheticCity::generate(GeneratorConfig {
            seed,
            ..GeneratorConfig::small()
        });
        let net = &city.network;
        let (start, _) = net.nearest_segment(&city.central_point()).unwrap();
        let dist = segment_distances_from(net, start, 2500.0);
        assert_eq!(dist[&start], 0.0, "case {case}");
        for (&seg, &d) in &dist {
            for next in net.successors(seg) {
                if let Some(&dn) = dist.get(&next) {
                    let edge = net.segment(next).length_m;
                    assert!(dn <= d + edge + 1e-6, "case {case}: relaxation violated");
                }
            }
        }
    }
}
