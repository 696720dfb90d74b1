//! Equivalence regression suite: the optimized query hot path must return
//! **bit-identical** regions to (a) the naive reference implementations and
//! (b) the exhaustive-search baseline, across a grid of query parameters on
//! a seeded scenario. A perf refactor that changes any result breaks this
//! test.

use std::sync::Arc;

use streach_core::con_index::ConIndex;
use streach_core::config::IndexConfig;
use streach_core::query::es::exhaustive_search;
use streach_core::query::mqmb::{mqmb, mqmb_trace_back};
use streach_core::query::reference::{
    naive_exhaustive_search, naive_mqmb, naive_sqmb, naive_trace_back_search, NaiveVerifier,
};
use streach_core::query::sqmb::sqmb;
use streach_core::query::tbs::trace_back_search;
use streach_core::query::verifier::{ReachabilityVerifier, VerifierCore, VerifierScratch};
use streach_core::query::SQuery;
use streach_core::speed_stats::SpeedStats;
use streach_core::st_index::StIndex;
use streach_geo::GeoPoint;
use streach_roadnet::{GeneratorConfig, RoadNetwork, SegmentId, SyntheticCity};
use streach_traj::{FleetConfig, TrajectoryDataset};

struct Fixture {
    network: Arc<RoadNetwork>,
    st: StIndex,
    con: ConIndex,
    center: GeoPoint,
}

fn fixture() -> Fixture {
    let city = SyntheticCity::generate(GeneratorConfig::small());
    let center = city.central_point();
    let network = Arc::new(city.network);
    let dataset = TrajectoryDataset::simulate(
        &network,
        FleetConfig {
            num_taxis: 30,
            num_days: 5,
            day_start_s: 8 * 3600,
            day_end_s: 14 * 3600,
            seed: 7,
            ..FleetConfig::default()
        },
    );
    let config = IndexConfig {
        read_latency_us: 0,
        ..Default::default()
    };
    let st = StIndex::build(network.clone(), &dataset, &config);
    let stats = Arc::new(SpeedStats::from_dataset(&network, &dataset, config.slot_s));
    let con = ConIndex::new(network.clone(), stats, &config);
    Fixture {
        network,
        st,
        con,
        center,
    }
}

/// The (T, L, Prob) grid every assertion sweeps.
fn grid() -> Vec<(u32, u32, f64)> {
    let mut out = Vec::new();
    for start_h in [9u32, 11] {
        for duration_s in [300u32, 900, 1500] {
            for prob in [0.2f64, 0.5, 0.9] {
                out.push((start_h * 3600, duration_s, prob));
            }
        }
    }
    out
}

/// The optimized verifier agrees with the naive one on every probability it
/// computes — the sharpest possible check, segment by segment.
#[test]
fn optimized_verifier_matches_naive_probabilities() {
    let f = fixture();
    let start = f.network.nearest_segment(&f.center).unwrap().0;
    for (t, l, _) in grid() {
        let naive = NaiveVerifier::new(&f.st, start, t, l).unwrap();
        let core = VerifierCore::new(&f.st, start, t, l).unwrap();
        let mut scratch = VerifierScratch::new();
        for seg in f.network.segment_ids().step_by(3) {
            let expected = naive.probability(seg).unwrap();
            let got = core.probability(&mut scratch, seg).unwrap();
            assert_eq!(got, expected, "T={t} L={l} segment {seg}");
        }
    }
}

/// Optimized ES returns the same region as the naive reference ES.
#[test]
fn optimized_es_matches_naive_es() {
    let f = fixture();
    let start = f.network.nearest_segment(&f.center).unwrap().0;
    for (t, l, prob) in grid() {
        let q = SQuery {
            location: f.center,
            start_time_s: t,
            duration_s: l,
            prob,
        };
        let optimized = exhaustive_search(&f.network, &f.st, &q, start).unwrap();
        let naive = naive_exhaustive_search(&f.network, &f.st, &q, start).unwrap();
        assert_eq!(
            optimized.region.segments, naive.segments,
            "ES mismatch at T={t} L={l} prob={prob}"
        );
    }
}

/// Optimized (parallel) TBS returns the same region as the naive sequential
/// queue of Algorithm 2.
#[test]
fn optimized_tbs_matches_naive_tbs() {
    let f = fixture();
    let start = f.network.nearest_segment(&f.center).unwrap().0;
    for (t, l, prob) in grid() {
        let bounds = sqmb(&f.con, f.network.num_segments(), start, t, l);
        let verifier = ReachabilityVerifier::new(&f.st, start, t, l).unwrap();
        let optimized = trace_back_search(&f.network, verifier.core(), &bounds, prob).unwrap();
        let naive = naive_trace_back_search(&f.network, &f.st, &bounds, start, t, l, prob).unwrap();
        assert_eq!(
            optimized.region.segments, naive.segments,
            "TBS mismatch at T={t} L={l} prob={prob}"
        );
    }
}

/// SQMB+TBS against the ES baseline on the whole grid. Everywhere both
/// algorithms *verify* a segment the answers are bit-identical; the two may
/// only differ in the exact, documented ways the paper's bounds allow:
///
/// * TBS admits the minimum bounding region without verification (reachable
///   even at the historically slowest speeds) — so `TBS ∖ ES ⊆ min region`,
/// * TBS never looks outside the maximum bounding region — so
///   `ES ∖ TBS ⊆ complement of max region`.
///
/// Full bit-equality is structurally impossible for the paper's own
/// semantics (e.g. a night query returns the whole minimum bounding region
/// from TBS and only the start segment from ES); this decomposition is the
/// strongest equivalence that holds, and it pins every verified probability
/// bit-exactly.
#[test]
fn sqmb_tbs_matches_es_baseline_on_verified_segments() {
    let f = fixture();
    let start = f.network.nearest_segment(&f.center).unwrap().0;
    for (t, l, prob) in grid() {
        let q = SQuery {
            location: f.center,
            start_time_s: t,
            duration_s: l,
            prob,
        };
        let es = exhaustive_search(&f.network, &f.st, &q, start).unwrap();
        let bounds = sqmb(&f.con, f.network.num_segments(), start, t, l);
        let verifier = ReachabilityVerifier::new(&f.st, start, t, l).unwrap();
        let tbs = trace_back_search(&f.network, verifier.core(), &bounds, prob).unwrap();

        let es_set: std::collections::HashSet<_> = es.region.segments.iter().copied().collect();
        let tbs_set: std::collections::HashSet<_> = tbs.region.segments.iter().copied().collect();
        let min_set: std::collections::HashSet<_> = bounds.min_region.iter().copied().collect();
        let max_set: std::collections::HashSet<_> = bounds.max_region.iter().copied().collect();

        // Bit-identical verdicts on every segment both algorithms verify.
        for seg in bounds.annulus() {
            assert_eq!(
                tbs_set.contains(&seg),
                es_set.contains(&seg),
                "verified verdicts diverge for {seg} at T={t} L={l} prob={prob}"
            );
        }
        // Divergence is confined to the documented cases.
        for seg in tbs_set.difference(&es_set) {
            assert!(
                min_set.contains(seg),
                "{seg} in TBS but not ES and outside the min region (T={t} L={l} prob={prob})"
            );
        }
        for seg in es_set.difference(&tbs_set) {
            assert!(
                !max_set.contains(seg),
                "{seg} in ES but not TBS yet inside the max region (T={t} L={l} prob={prob})"
            );
        }
    }
}

/// Single-location MQMB+trace-back equals the s-query pipeline (and hence
/// ES) exactly.
#[test]
fn single_location_mqmb_matches_squery_pipeline() {
    let f = fixture();
    let start = f.network.nearest_segment(&f.center).unwrap().0;
    for (t, l, prob) in grid() {
        let bounds = sqmb(&f.con, f.network.num_segments(), start, t, l);
        let verifier = ReachabilityVerifier::new(&f.st, start, t, l).unwrap();
        let s_region = trace_back_search(&f.network, verifier.core(), &bounds, prob)
            .unwrap()
            .region;

        let m_bounds = mqmb(&f.con, &f.network, &[start], &[f.center], t, l);
        let m_region = mqmb_trace_back(&f.network, &f.st, &m_bounds, &[start], t, l, prob)
            .unwrap()
            .region;
        // The m-query result additionally pins the start segment into the
        // region; the s-query pipeline includes it through the minimum
        // bounding region, so the sets must agree exactly.
        assert_eq!(
            m_region.segments, s_region.segments,
            "single-location MQMB diverges at T={t} L={l} prob={prob}"
        );
    }
}

/// Multi-location MQMB trace-back equals a naive per-owner verification of
/// the same unified bounds.
#[test]
fn multi_location_mqmb_matches_naive_owner_verification() {
    let f = fixture();
    let start_points = vec![
        f.center,
        f.center.offset_m(1500.0, 0.0),
        f.center.offset_m(0.0, -1500.0),
    ];
    let starts: Vec<SegmentId> = start_points
        .iter()
        .map(|p| f.network.nearest_segment(p).unwrap().0)
        .collect();
    for (t, l, prob) in [(9 * 3600u32, 900u32, 0.2f64), (11 * 3600, 1500, 0.5)] {
        let bounds = mqmb(&f.con, &f.network, &starts, &start_points, t, l);
        let optimized = mqmb_trace_back(&f.network, &f.st, &bounds, &starts, t, l, prob).unwrap();

        // Naive: sequential owner-routed verification with fresh hash maps.
        let verifiers: Vec<NaiveVerifier<'_>> = starts
            .iter()
            .map(|&s| NaiveVerifier::new(&f.st, s, t, l).unwrap())
            .collect();
        let mut segments: Vec<SegmentId> = bounds.min_region.clone();
        segments.extend_from_slice(&starts);
        for seg in bounds.annulus() {
            let owner = bounds.owner_of(seg).unwrap_or(0);
            if verifiers[owner].probability(seg).unwrap() >= prob {
                segments.push(seg);
            }
        }
        let naive = streach_core::ReachableRegion::from_segments(&f.network, segments);
        assert_eq!(
            optimized.region.segments, naive.segments,
            "MQMB mismatch at T={t} L={l} prob={prob}"
        );
    }
}

/// Direct-hop SQMB/MQMB (one multi-source expansion per hop) against the
/// literal Algorithm 1/3 walk over materialised slot tables: maximum and
/// minimum regions and every segment's owner must be bit-identical, for
/// aligned, unaligned and midnight-wrapping start times, one to seven hops,
/// and every start-set shape (1/2/3 starts, a duplicated start, two points
/// on one segment).
fn assert_direct_bounding_matches_table_walk(network: &RoadNetwork, con: &ConIndex, label: &str) {
    let n = network.num_segments();
    let center = network.bounds().center();
    let points = [
        center,
        center.offset_m(1500.0, 0.0),
        center.offset_m(0.0, -1500.0),
        network.segment_midpoint(SegmentId(0)),
    ];
    let segs: Vec<SegmentId> = points
        .iter()
        .map(|p| network.nearest_segment(p).unwrap().0)
        .collect();
    // (starts, start points) per m-query shape.
    let on_one_segment = network.segment_midpoint(segs[1]);
    let shapes: Vec<(Vec<SegmentId>, Vec<GeoPoint>)> = vec![
        (segs[..1].to_vec(), points[..1].to_vec()),
        (segs[..2].to_vec(), points[..2].to_vec()),
        (segs[..3].to_vec(), points[..3].to_vec()),
        (
            vec![segs[0], segs[3], segs[0]],
            vec![points[0], points[3], points[0]],
        ),
        (
            vec![segs[1], segs[2], segs[1]],
            vec![points[1], points[2], on_one_segment],
        ),
    ];
    let start_times = [
        9 * 3600u32,
        9 * 3600 + 137,      // unaligned: hops straddle slot boundaries
        23 * 3600 + 55 * 60, // hops wrap past midnight
    ];
    for t in start_times {
        for l in [300u32, 600, 1200, 2100] {
            for &start in &segs {
                let direct = sqmb(con, n, start, t, l);
                let naive = naive_sqmb(con, n, start, t, l);
                assert_eq!(
                    direct.max_region, naive.max_region,
                    "{label}: SQMB max region, start {start} T={t} L={l}"
                );
                assert_eq!(
                    direct.min_region, naive.min_region,
                    "{label}: SQMB min region, start {start} T={t} L={l}"
                );
            }
            for (starts, start_points) in &shapes {
                let direct = mqmb(con, network, starts, start_points, t, l);
                let naive = naive_mqmb(con, network, starts, start_points, t, l);
                let at = format!("{label}: MQMB starts {starts:?} T={t} L={l}");
                assert_eq!(direct.max_region, naive.max_region, "{at}: max region");
                assert_eq!(direct.min_region, naive.min_region, "{at}: min region");
                for seg in network.segment_ids() {
                    assert_eq!(
                        direct.owner_of(seg),
                        naive.owner_of(seg),
                        "{at}: owner of {seg}"
                    );
                }
            }
        }
    }
}

#[test]
fn direct_bounding_matches_table_walk_on_small_city() {
    let f = fixture();
    assert_direct_bounding_matches_table_walk(&f.network, &f.con, "9x9");
}

/// The same on a 21×21 city, where seven hops do not saturate the network
/// and an all-day fleet gives the night slots observed speeds too.
#[test]
fn direct_bounding_matches_table_walk_on_21x21_city() {
    let network = Arc::new(SyntheticCity::generate(GeneratorConfig::medium()).network);
    let dataset = TrajectoryDataset::simulate(
        &network,
        FleetConfig {
            num_taxis: 12,
            num_days: 2,
            day_start_s: 0,
            day_end_s: streach_traj::SECONDS_PER_DAY,
            seed: 11,
            ..FleetConfig::default()
        },
    );
    let config = IndexConfig::default();
    let stats = Arc::new(SpeedStats::from_dataset(&network, &dataset, config.slot_s));
    let con = ConIndex::new(network.clone(), stats, &config);
    assert_direct_bounding_matches_table_walk(&network, &con, "21x21");
}

/// Satellite guard for the fallible plumbing: on a fault-free store the
/// `try_*` pipelines must return **bit-identical** regions to the panicking
/// wrappers for every algorithm on the whole grid — the error paths ride
/// along the hot path without perturbing a single probability.
#[test]
fn fallible_pipelines_match_panicking_wrappers_on_fault_free_store() {
    use streach_core::query::{Algorithm, MQuery, MQueryAlgorithm};

    let city = SyntheticCity::generate(GeneratorConfig::small());
    let center = city.central_point();
    let network = Arc::new(city.network);
    let dataset = TrajectoryDataset::simulate(
        &network,
        FleetConfig {
            num_taxis: 30,
            num_days: 5,
            day_start_s: 8 * 3600,
            day_end_s: 14 * 3600,
            seed: 7,
            ..FleetConfig::default()
        },
    );
    let engine = streach_core::EngineBuilder::new(network.clone(), &dataset)
        .index_config(IndexConfig {
            read_latency_us: 0,
            ..Default::default()
        })
        .build();

    for (t, l, prob) in grid() {
        let q = streach_core::query::SQuery {
            location: center,
            start_time_s: t,
            duration_s: l,
            prob,
        };
        for algo in [Algorithm::SqmbTbs, Algorithm::ExhaustiveSearch] {
            let fallible = engine.try_s_query(&q, algo).expect("fault-free store");
            let panicking = engine.s_query(&q, algo);
            assert_eq!(
                fallible.region.segments, panicking.region.segments,
                "{algo:?} region diverged at T={t} L={l} prob={prob}"
            );
            assert_eq!(
                fallible.region.total_length_km.to_bits(),
                panicking.region.total_length_km.to_bits(),
                "{algo:?} length diverged at T={t} L={l} prob={prob}"
            );
        }
    }

    let m = MQuery {
        locations: vec![center, center.offset_m(1500.0, 0.0)],
        start_time_s: 9 * 3600,
        duration_s: 900,
        prob: 0.2,
    };
    for algo in [MQueryAlgorithm::MqmbTbs, MQueryAlgorithm::RepeatedSQuery] {
        let fallible = engine.try_m_query(&m, algo).expect("fault-free store");
        let panicking = engine.m_query(&m, algo);
        assert_eq!(
            fallible.region.segments, panicking.region.segments,
            "{algo:?} m-query region diverged"
        );
        assert_eq!(
            fallible.region.total_length_km.to_bits(),
            panicking.region.total_length_km.to_bits(),
            "{algo:?} m-query length diverged"
        );
    }
}
