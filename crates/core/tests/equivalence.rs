//! Equivalence regression suite: the optimized query hot path must return
//! **bit-identical** regions to (a) the naive reference implementations and
//! (b) the exhaustive-search baseline, across a grid of query parameters on
//! a seeded scenario. A perf refactor that changes any result breaks this
//! test.
//!
//! Every query is asked [`ASKS`] times, each ask on a fresh verifier core.
//! A window slot's first verification on a sealed base reads it
//! segment-major, its second builds the slot's trajectory view and every
//! later one reads it forward, so the first query over untouched slots
//! takes all three paths in turn and later queries mix them slot by slot.

use std::sync::Arc;

use streach_core::con_index::ConIndex;
use streach_core::config::IndexConfig;
use streach_core::query::es::exhaustive_search;
use streach_core::query::mqmb::{mqmb, mqmb_trace_back};
use streach_core::query::reference::{
    naive_exhaustive_search, naive_m_query, naive_mqmb, naive_s_query, naive_sqmb,
    naive_trace_back_search, NaiveVerifier,
};
use streach_core::query::sqmb::{sqmb, sqmb_min_only};
use streach_core::query::tbs::trace_back_search;
use streach_core::query::verifier::VerifierCore;
use streach_core::query::{Algorithm, MQuery, MQueryAlgorithm, SQuery};
use streach_core::speed_stats::SpeedStats;
use streach_core::st_index::StIndex;
use streach_core::{EngineBuilder, ReachabilityEngine, ReachableRegion};
use streach_geo::GeoPoint;
use streach_roadnet::{GeneratorConfig, RoadNetwork, SegmentId, SyntheticCity};
use streach_traj::{FleetConfig, TrajPoint, TrajectoryDataset};

/// Times each query is asked: segment-major, build, forward.
const ASKS: usize = 3;

struct Fixture {
    network: Arc<RoadNetwork>,
    engine: ReachabilityEngine,
    center: GeoPoint,
}

impl Fixture {
    fn st(&self) -> &StIndex {
        self.engine.st_index()
    }

    fn con(&self) -> &ConIndex {
        self.engine.con_index()
    }
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
    let engine = EngineBuilder::new(network.clone(), &dataset)
        .index_config(IndexConfig::default())
        .build();
    Fixture {
        network,
        engine,
        center,
    }
}

/// The (T, L, Prob) grid every assertion sweeps: two fleet hours and a
/// night start (the fleet drives 08:00–14:00), so the start segment decides
/// some queries before verifying and leaves others to the verifier.
fn grid() -> Vec<(u32, u32, f64)> {
    let mut out = Vec::new();
    for start_h in [9u32, 11, 3] {
        for duration_s in [300u32, 900, 1500] {
            for prob in [0.2f64, 0.5, 1.0] {
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
        let naive = NaiveVerifier::new(f.st(), start, t, l).unwrap();
        let segments: Vec<SegmentId> = f.network.segment_ids().step_by(3).collect();
        for ask in 0..ASKS {
            let core = VerifierCore::new(f.st(), start, t, l).unwrap();
            let got = core.probabilities(&segments).unwrap();
            for (&seg, got) in segments.iter().zip(got) {
                let expected = naive.probability(seg).unwrap();
                assert_eq!(got, expected, "T={t} L={l} segment {seg} ask {ask}");
            }
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
        let naive = naive_exhaustive_search(&f.network, f.st(), &q, start).unwrap();
        for ask in 0..ASKS {
            let optimized = exhaustive_search(&f.network, f.st(), &q, start).unwrap();
            assert_eq!(
                optimized.region.segments, naive.segments,
                "ES mismatch at T={t} L={l} prob={prob} ask {ask}"
            );
        }
    }
}

/// Optimized (parallel) TBS returns the same region as the naive sequential
/// queue of Algorithm 2.
#[test]
fn optimized_tbs_matches_naive_tbs() {
    let f = fixture();
    let start = f.network.nearest_segment(&f.center).unwrap().0;
    for (t, l, prob) in grid() {
        let bounds = sqmb(f.con(), f.network.num_segments(), start, t, l);
        let naive =
            naive_trace_back_search(&f.network, f.st(), &bounds, start, t, l, prob).unwrap();
        for ask in 0..ASKS {
            let core = VerifierCore::new(f.st(), start, t, l).unwrap();
            let optimized = trace_back_search(&f.network, &core, &bounds, prob).unwrap();
            assert_eq!(
                optimized.region.segments, naive.segments,
                "TBS mismatch at T={t} L={l} prob={prob} ask {ask}"
            );
        }
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
        let bounds = sqmb(f.con(), f.network.num_segments(), start, t, l);
        let asks: Vec<_> = (0..ASKS)
            .map(|_| {
                let es = exhaustive_search(&f.network, f.st(), &q, start).unwrap();
                let core = VerifierCore::new(f.st(), start, t, l).unwrap();
                let tbs = trace_back_search(&f.network, &core, &bounds, prob).unwrap();
                (es.region, tbs.region)
            })
            .collect();
        assert!(
            asks.windows(2).all(|w| w[0] == w[1]),
            "T={t} L={l} prob={prob}"
        );
        let (es, tbs) = &asks[0];

        let es_set: std::collections::HashSet<_> = es.segments.iter().copied().collect();
        let tbs_set: std::collections::HashSet<_> = tbs.segments.iter().copied().collect();
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
        let bounds = sqmb(f.con(), f.network.num_segments(), start, t, l);
        let m_bounds = mqmb(f.con(), &f.network, &[start], &[f.center], t, l);
        for ask in 0..ASKS {
            let core = VerifierCore::new(f.st(), start, t, l).unwrap();
            let s_region = trace_back_search(&f.network, &core, &bounds, prob)
                .unwrap()
                .region;
            let m_region = mqmb_trace_back(&f.network, f.st(), &m_bounds, &[start], t, l, prob)
                .unwrap()
                .region;
            // The m-query result additionally pins the start segment into
            // the region; the s-query pipeline includes it through the
            // minimum bounding region, so the sets must agree exactly.
            assert_eq!(
                m_region.segments, s_region.segments,
                "single-location MQMB diverges at T={t} L={l} prob={prob} ask {ask}"
            );
        }
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
        let bounds = mqmb(f.con(), &f.network, &starts, &start_points, t, l);

        // Naive: sequential owner-routed verification with fresh hash maps.
        let verifiers: Vec<NaiveVerifier<'_>> = starts
            .iter()
            .map(|&s| NaiveVerifier::new(f.st(), s, t, l).unwrap())
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
        for ask in 0..ASKS {
            let optimized =
                mqmb_trace_back(&f.network, f.st(), &bounds, &starts, t, l, prob).unwrap();
            assert_eq!(
                optimized.region.segments, naive.segments,
                "MQMB mismatch at T={t} L={l} prob={prob} ask {ask}"
            );
        }
    }
}

/// The engine's query pipeline builds the start segment's verifier core
/// first and, when its active days cannot reach Prob, answers from the
/// minimum bound alone. Every answer — single SQMB+TBS and ES queries, one
/// batch of the whole grid, MQMB and repeated s-queries — must
/// equal the full naive reference, which verifies every annulus segment.
#[test]
fn pipeline_matches_the_full_reference_whether_or_not_the_start_decides() {
    let f = fixture();
    let start = f.network.nearest_segment(&f.center).unwrap().0;
    let locations = vec![
        f.center,
        f.center.offset_m(1500.0, 0.0),
        f.center.offset_m(0.0, -1500.0),
    ];
    let starts: Vec<SegmentId> = locations
        .iter()
        .map(|p| f.network.nearest_segment(p).unwrap().0)
        .collect();
    let (mut decided, mut undecided) = (0, 0);
    let mut queries = Vec::new();
    for (t, l, prob) in grid() {
        let q = SQuery {
            location: f.center,
            start_time_s: t,
            duration_s: l,
            prob,
        };
        let at = format!("T={t} L={l} prob={prob}");
        let is_decided = VerifierCore::new(f.st(), start, t, l)
            .unwrap()
            .decided(prob);
        if is_decided {
            decided += 1;
        } else {
            undecided += 1;
        }
        for algorithm in [Algorithm::SqmbTbs, Algorithm::ExhaustiveSearch] {
            let want = naive_s_query(&f.network, f.con(), f.st(), &q, start, algorithm).unwrap();
            for ask in 0..ASKS {
                let got = f.engine.try_s_query(&q, algorithm).unwrap();
                assert_eq!(got.region, want, "{algorithm:?} at {at}, ask {ask}");
                if is_decided {
                    assert_eq!(got.stats.segments_verified, 0, "{algorithm:?} at {at}");
                }
            }
        }
        // A decided query runs the Near expansion only: its maximum bound is
        // its minimum bound. Otherwise it verifies the whole SQMB annulus.
        let stats = f.engine.try_s_query(&q, Algorithm::SqmbTbs).unwrap().stats;
        let bounds = sqmb(f.con(), f.network.num_segments(), start, t, l);
        let (max, verified) = match is_decided {
            true => (bounds.min_region.len(), 0),
            false => (bounds.max_region.len(), bounds.annulus().len()),
        };
        assert_eq!(stats.max_bounding_size, max, "{at}");
        assert_eq!(stats.min_bounding_size, bounds.min_region.len(), "{at}");
        assert_eq!(stats.segments_verified, verified, "{at}");

        let m = MQuery {
            locations: locations.clone(),
            start_time_s: t,
            duration_s: l,
            prob,
        };
        let want = naive_m_query(&f.network, f.con(), f.st(), &m, &starts).unwrap();
        for ask in 0..ASKS {
            let got = f.engine.try_m_query(&m, MQueryAlgorithm::MqmbTbs).unwrap();
            assert_eq!(got.region, want, "MQMB at {at}, ask {ask}");
        }
        let got = f
            .engine
            .try_m_query(&m, MQueryAlgorithm::RepeatedSQuery)
            .unwrap();
        let want = (0..locations.len()).fold(ReachableRegion::empty(), |region, i| {
            let q = m.sub_query(i);
            let one = naive_s_query(
                &f.network,
                f.con(),
                f.st(),
                &q,
                starts[i],
                Algorithm::SqmbTbs,
            );
            region.union(&f.network, &one.unwrap())
        });
        assert_eq!(got.region, want, "repeated s-queries at {at}");
        queries.push(q);
    }
    assert!(
        decided > 0 && undecided > 0,
        "the grid must hold decided ({decided}) and undecided ({undecided}) queries"
    );

    // One batch: the groups share an origin and hop slots across
    // thresholds, so decided and undecided members ride one bounding pass.
    let batch: Vec<(SQuery, Algorithm)> =
        queries.iter().map(|q| (*q, Algorithm::SqmbTbs)).collect();
    for (q, answer) in queries.iter().zip(f.engine.try_s_query_batch(&batch)) {
        let want = naive_s_query(&f.network, f.con(), f.st(), q, start, Algorithm::SqmbTbs);
        let got = answer.outcome.unwrap();
        assert_eq!(got.region, want.unwrap(), "batched {q:?}");
        assert_eq!(
            answer.footprint.max_region().len(),
            got.stats.max_bounding_size,
            "batched {q:?}"
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
                assert_eq!(
                    sqmb_min_only(con, start, t, l).min_region,
                    naive.min_region,
                    "{label}: min-only SQMB, start {start} T={t} L={l}"
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
    assert_direct_bounding_matches_table_walk(&f.network, f.con(), "9x9");
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

/// SQMB+TBS, ES and MQMB against the naive references on `engine`, each
/// query asked [`ASKS`] times: a 3×3 origin grid (±1 500 m) around
/// `center` at 09:00 and 10:00 for `durations`, Prob 0.25.
fn assert_grid_matches_reference(
    engine: &ReachabilityEngine,
    center: GeoPoint,
    durations: &[u32],
    label: &str,
) {
    let (network, con, st) = (engine.network(), engine.con_index(), engine.st_index());
    let mut undecided = 0;
    for dx in [-1500.0, 0.0, 1500.0] {
        for dy in [-1500.0, 0.0, 1500.0] {
            for t in [9 * 3600, 10 * 3600] {
                for &l in durations {
                    let q = SQuery {
                        location: center.offset_m(dx, dy),
                        start_time_s: t,
                        duration_s: l,
                        prob: 0.25,
                    };
                    let start = engine.try_locate(&q.location).unwrap();
                    if !VerifierCore::new(st, start, t, l).unwrap().decided(q.prob) {
                        undecided += 1;
                    }
                    let at = format!("{label}: {q:?}");
                    for algorithm in [Algorithm::SqmbTbs, Algorithm::ExhaustiveSearch] {
                        let want = naive_s_query(network, con, st, &q, start, algorithm).unwrap();
                        for ask in 0..ASKS {
                            let got = engine.try_s_query(&q, algorithm).unwrap();
                            assert_eq!(got.region, want, "{algorithm:?} at {at}, ask {ask}");
                        }
                    }
                }
            }
        }
    }
    assert!(
        undecided > 0,
        "{label}: every query decided before verifying"
    );
    let locations = vec![
        center,
        center.offset_m(1500.0, 0.0),
        center.offset_m(0.0, -1500.0),
    ];
    let starts: Vec<SegmentId> = locations
        .iter()
        .map(|p| engine.try_locate(p).unwrap())
        .collect();
    for &l in durations {
        let m = MQuery {
            locations: locations.clone(),
            start_time_s: 9 * 3600,
            duration_s: l,
            prob: 0.25,
        };
        let want = naive_m_query(network, con, st, &m, &starts).unwrap();
        for ask in 0..ASKS {
            let got = engine.try_m_query(&m, MQueryAlgorithm::MqmbTbs).unwrap();
            assert_eq!(got.region, want, "{label}: MQMB L={l}, ask {ask}");
        }
    }
}

/// The same contract at paper density: 230 taxis × 8 days on the small
/// city (~0.5 taxis per segment), where a start has many trajectories and
/// the views are dense.
#[test]
fn every_ask_matches_the_reference_at_paper_density() {
    let city = SyntheticCity::generate(GeneratorConfig::small());
    let center = city.central_point();
    let network = Arc::new(city.network);
    let dataset = TrajectoryDataset::simulate(
        &network,
        FleetConfig {
            num_taxis: 230,
            num_days: 8,
            ..FleetConfig::tiny()
        },
    );
    let engine = EngineBuilder::new(network, &dataset)
        .index_config(IndexConfig::default())
        .build();
    assert_grid_matches_reference(&engine, center, &[300, 600], "paper density");
    assert!(engine.st_index().view_stats().views_built > 0);
}

/// Ingest after the views are built: a delta list overrides its base list,
/// so the fold drops the touched slots' views, and the views rebuilt after
/// it hold the merged lists. A mid-trajectory continuation (a start
/// trajectory passing new segments later in the window, on a day it already
/// has) and a new day (day-0 trajectories driven again under the next date)
/// must both show, and every ask must still match the references, which
/// read the merged lists.
#[test]
fn forward_reads_fold_in_delta_overrides() {
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
    let engine = EngineBuilder::new(network.clone(), &dataset)
        .index_config(IndexConfig::default())
        .build();
    let st = engine.st_index();
    assert_grid_matches_reference(&engine, center, &[600], "before ingest");
    let built = st.view_stats().views_built;
    assert!(built > 0, "the asks must have built views");

    // The start trajectory of a window, and segments it does not reach.
    let traj = dataset
        .trajectories()
        .iter()
        .find(|t| {
            t.visits
                .iter()
                .any(|v| (9 * 3600..9 * 3600 + 300).contains(&v.enter_time_s))
        })
        .expect("a trajectory driving at 09:00");
    let start = traj
        .visits
        .iter()
        .find(|v| v.enter_time_s >= 9 * 3600)
        .unwrap();
    let (t, l) = (9 * 3600, 600);
    let segments: Vec<SegmentId> = network.segment_ids().collect();
    let ask = || {
        VerifierCore::new(st, start.segment, t, l)
            .unwrap()
            .probabilities(&segments)
            .unwrap()
    };
    let before = ask();
    let targets: Vec<SegmentId> = segments
        .iter()
        .zip(&before)
        .filter(|&(&s, &p)| s != start.segment && p == 0.0)
        .map(|(&s, _)| s)
        .take(4)
        .collect();
    let mut points: Vec<TrajPoint> = targets
        .iter()
        .enumerate()
        .map(|(i, &segment)| TrajPoint {
            traj_id: traj.traj_id,
            date: traj.date,
            segment,
            enter_time_s: t + 240 + 60 * i as u32,
        })
        .collect();
    let new_day = dataset.num_days();
    for day0 in dataset
        .trajectories()
        .iter()
        .filter(|t| t.date == 0)
        .take(10)
    {
        points.extend(day0.visits.iter().map(|v| TrajPoint {
            traj_id: day0.traj_id,
            date: new_day,
            segment: v.segment,
            enter_time_s: v.enter_time_s,
        }));
    }
    let planned = VerifierCore::new(st, start.segment, t, l).unwrap();
    let io = || st.io_stats().snapshot();
    let read = io();
    assert_eq!(planned.probabilities(&segments).unwrap(), before);
    assert_eq!(io().delta_since(&read).bytes_decoded, 0, "a walk decodes");
    engine.ingest(&points).unwrap();
    assert_eq!(st.num_days(), new_day + 1);
    assert!(
        st.view_stats().views_built < built,
        "ingest drops the touched slots' views"
    );
    // A core planned before the fold reads the slots whose view it dropped
    // segment-major, and sees the fold.
    let read = io();
    let got = planned.probabilities(&segments).unwrap();
    assert!(
        io().delta_since(&read).bytes_decoded > 0,
        "no fallback read"
    );
    for &target in &targets {
        let i = segments.binary_search(&target).unwrap();
        assert!(got[i] > 0.0, "the planned core misses {target}");
    }

    let naive = NaiveVerifier::new(st, start.segment, t, l).unwrap();
    for ask_no in 0..ASKS {
        let got = ask();
        for (&seg, p) in segments.iter().zip(&got) {
            assert_eq!(*p, naive.probability(seg).unwrap(), "{seg}, ask {ask_no}");
        }
        for &target in &targets {
            let i = segments.binary_search(&target).unwrap();
            assert!(
                got[i] > 0.0,
                "the continuation reaches {target}, ask {ask_no}"
            );
        }
    }
    assert_grid_matches_reference(&engine, center, &[600], "after ingest");

    // The asks rebuilt the touched slots' views over the delta. A batch
    // touching one slot drops that slot's view alone; the next ask reads
    // the slot segment-major and the one after rebuilds the view; a
    // compaction publishes a state with none.
    let views = st.view_stats();
    assert!(views.views_built >= built, "{views:?}");
    engine.ingest(&points[..1]).unwrap();
    let touched = st.view_stats();
    assert_eq!(touched.views_built, views.views_built - 1);
    assert!(touched.resident_bytes < views.resident_bytes);
    for (ask_no, rebuilt) in [(0, touched), (1, views)] {
        for (&seg, p) in segments.iter().zip(ask()) {
            let want = naive.probability(seg).unwrap();
            assert_eq!(p, want, "{seg}, ask {ask_no} after the touch");
        }
        assert_eq!(st.view_stats(), rebuilt, "ask {ask_no} after the touch");
    }
    engine.compact().unwrap();
    assert_eq!(st.view_stats(), Default::default());
}

/// The forward path is real: on a fresh engine the first ask of an
/// undecided query builds no view, the second builds its window's views,
/// and the third decodes at least 10× fewer posting bytes than the first.
/// A query stream that verifies each slot once builds none.
#[test]
fn the_third_ask_reads_forward_and_one_touch_builds_nothing() {
    let f = fixture();
    let q = SQuery {
        location: f.center,
        start_time_s: 9 * 3600,
        duration_s: 900,
        prob: 0.2,
    };
    let start = f.network.nearest_segment(&f.center).unwrap().0;
    assert!(
        !VerifierCore::new(f.st(), start, q.start_time_s, q.duration_s)
            .unwrap()
            .decided(q.prob)
    );
    let decoded = || {
        let got = f.engine.try_s_query(&q, Algorithm::SqmbTbs).unwrap();
        assert!(got.stats.segments_verified > 0);
        got.stats.io.bytes_decoded
    };
    let first = decoded();
    assert_eq!(f.st().view_stats(), Default::default());
    decoded();
    let views = f.st().view_stats();
    assert!(
        views.views_built >= 3 && views.resident_bytes > 0,
        "{views:?}"
    );
    let third = decoded();
    assert!(
        third * 10 <= first,
        "the forward ask decoded {third} B against {first} B segment-major"
    );

    // One touch per slot: three-slot windows an hour apart, each once.
    let f = fixture();
    for h in 8..14 {
        let q = SQuery {
            start_time_s: h * 3600,
            ..q
        };
        f.engine.try_s_query(&q, Algorithm::SqmbTbs).unwrap();
    }
    assert_eq!(f.st().view_stats().views_built, 0);
}

/// The delta campaign's world: 30 taxis × 5 built days, and a live day:
/// the day-0 trajectories driven again on day 5.
fn delta_world() -> (Arc<RoadNetwork>, ReachabilityEngine, Vec<TrajPoint>) {
    let city = SyntheticCity::generate(GeneratorConfig::small());
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
    let engine = EngineBuilder::new(network.clone(), &dataset)
        .index_config(IndexConfig::default())
        .build();
    let live = dataset
        .trajectories()
        .iter()
        .filter(|t| t.date == 0)
        .flat_map(|t| {
            t.visits.iter().map(|v| TrajPoint {
                traj_id: t.traj_id,
                date: dataset.num_days(),
                segment: v.segment,
                enter_time_s: v.enter_time_s,
            })
        })
        .collect();
    (network, engine, live)
}

/// `live` again under new trajectory IDs on `date`: the same (slot,
/// segment) pairs, new (day, trajectory) observations in them.
fn redriven(live: &[TrajPoint], date: u16, id_offset: u32) -> Vec<TrajPoint> {
    live.iter()
        .map(|p| TrajPoint {
            traj_id: p.traj_id + id_offset,
            date,
            ..*p
        })
        .collect()
}

/// (start segment, T, L) probes where and when live points were, spread
/// over the live day: each start is active on the live day.
fn delta_probes(live: &[TrajPoint]) -> Vec<(SegmentId, u32, u32)> {
    let step = live.len() / 6;
    (0..6)
        .map(|i| {
            let p = live[i * step + step / 2];
            (p.segment, p.enter_time_s, [600, 1200][i % 2])
        })
        .collect()
}

/// The probabilities of `segments` from `start` over `[t, t + l)` as bits.
fn bits(probabilities: Vec<f64>) -> Vec<u64> {
    probabilities.into_iter().map(f64::to_bits).collect()
}

/// The oracle's probabilities of `segments` from `start` over `[t, t + l)`
/// as bits: every list read by itself, segment-major.
fn oracle_bits(
    st: &StIndex,
    (start, t, l): (SegmentId, u32, u32),
    segments: &[SegmentId],
) -> Vec<u64> {
    let naive = NaiveVerifier::new(st, start, t, l).unwrap();
    segments
        .iter()
        .map(|&s| naive.probability(s).unwrap().to_bits())
        .collect()
}

/// One ask's forward work: the pairs a core walked and the posting bytes
/// its verification decoded.
#[derive(Debug, Clone, Copy)]
struct Walk {
    pairs: u64,
    decoded: u64,
}

/// Verifies `segments` on `core`, a core of `st`, on `workers` workers,
/// returning the bits and what the call walked and decoded.
fn walk(
    st: &StIndex,
    core: &VerifierCore<'_>,
    segments: &[SegmentId],
    workers: usize,
) -> (Vec<u64>, Walk) {
    let (pairs, read) = (core.view_pairs_walked(), st.io_stats().snapshot());
    let got = streach_par::with_worker_override(workers, || core.probabilities(segments)).unwrap();
    let walk = Walk {
        pairs: core.view_pairs_walked() - pairs,
        decoded: st.io_stats().snapshot().delta_since(&read).bytes_decoded,
    };
    (bits(got), walk)
}

/// Asks every probe [`ASKS`] times on fresh cores of `st`, each ask on one
/// worker and then again on two, and asserts every answer equals the
/// oracle's, bit for bit. A slot's first ask since the last fold into it
/// reads it segment-major, its second builds its view over the delta
/// lists, and the asks after walk the view, so the asks compare each of the
/// three with the oracle; on the third ask every probe walks and decodes
/// nothing. Returns each ask's one-worker walk, probe by probe.
fn assert_walks_match(
    label: &str,
    st: &StIndex,
    probes: &[(SegmentId, u32, u32)],
    segments: &[SegmentId],
) -> Vec<Walk> {
    let mut expected = Vec::new();
    for &(start, t, l) in probes {
        let want = oracle_bits(st, (start, t, l), segments);
        let core = VerifierCore::new(st, start, t, l).unwrap();
        assert!(
            core.active_days() > 0,
            "{label}: probe {start} at {t} is idle"
        );
        assert!(
            want.iter().any(|&p| p != 0),
            "{label}: {start} reaches nothing"
        );
        expected.push(want);
    }
    let mut walks = Vec::new();
    for ask in 0..ASKS {
        for (&(start, t, l), want) in probes.iter().zip(&expected) {
            let core = VerifierCore::new(st, start, t, l).unwrap();
            for workers in [1, 2] {
                let (got, walked) = walk(st, &core, segments, workers);
                assert_eq!(
                    &got, want,
                    "{label}: {start} at {t} L {l}, ask {ask}, {workers} workers"
                );
                if workers == 1 {
                    walks.push(walked);
                }
            }
            let walked = walks.last().expect("just pushed");
            if ask == ASKS - 1 {
                assert!(walked.pairs > 0, "{label}: {start} at {t}: {walked:?}");
                assert_eq!(
                    walked.decoded, 0,
                    "{label}: {start} at {t}, ask {ask} read segment-major"
                );
            }
        }
    }
    walks
}

/// Forward through the delta: a slot's view holds the slot as a
/// segment-major read sees it, delta lists overriding base lists. Every
/// step compares the segment-major read (a slot's first ask after a fold),
/// the view build (its second) and the view walk with the oracle, bit for
/// bit ([`assert_walks_match`]): after an ingest; after a re-ingest into the
/// same (slot, segment) pairs, which drops the touched slots' views until
/// two asks rebuild them; on a reopened delta; and across a compaction, on
/// cores that hold the old state's pin.
#[test]
fn forward_walks_through_the_delta_match_segment_major_reads_and_the_oracle() {
    let (network, engine, live) = delta_world();
    let st = engine.st_index();
    let segments: Vec<SegmentId> = network.segment_ids().collect();
    let probes = delta_probes(&live);
    assert_walks_match("built", st, &probes, &segments);
    let built = st.view_stats();

    engine.ingest(&live).unwrap();
    let dropped = st.view_stats();
    assert!(dropped.views_built < built.views_built, "{dropped:?}");
    let walks = assert_walks_match("after ingest", st, &probes, &segments);
    let ingested = st.view_stats();
    assert!(ingested.views_built > dropped.views_built, "{ingested:?}");
    // The first probe's first ask after the fold reads its slots
    // segment-major: it walks nothing and decodes.
    let first_ask_reads = |walks: &[Walk], label: &str| {
        assert!(
            walks[0].pairs == 0 && walks[0].decoded > 0,
            "{label}: {:?}",
            walks[0]
        );
    };
    first_ask_reads(&walks, "after ingest");

    // The same pairs, new trajectories on day 1: every touched slot's
    // view goes, and two asks rebuild it with the new pairs.
    engine.ingest(&redriven(&live, 1, 1_000_000)).unwrap();
    assert_eq!(st.view_stats().views_built, dropped.views_built);
    let walks = assert_walks_match("after re-ingest", st, &probes, &segments);
    first_ask_reads(&walks, "after re-ingest");
    assert_eq!(st.view_stats().views_built, ingested.views_built);

    // Reopened: the delta lists come from the snapshot's `delta` section.
    let dir = std::env::temp_dir().join(format!("streach-delta-walk-{}", std::process::id()));
    engine.save_snapshot(&dir).unwrap();
    let reopened = ReachabilityEngine::open_snapshot(&dir, network.clone()).unwrap();
    assert!(reopened.st_index().delta_stats().delta_lists > 0);
    let walks = assert_walks_match("reopened", reopened.st_index(), &probes, &segments);
    first_ask_reads(&walks, "reopened");
    reopened.ingest(&redriven(&live, 2, 2_000_000)).unwrap();
    assert_walks_match(
        "reopened, after ingest",
        reopened.st_index(),
        &probes,
        &segments,
    );
    std::fs::remove_dir_all(&dir).ok();

    // Cores pinned to the state with views keep walking them after a
    // compaction publishes a state with none.
    let held: Vec<_> = probes
        .iter()
        .map(|&(start, t, l)| {
            let core = VerifierCore::new(st, start, t, l).unwrap();
            core.probabilities(&segments).unwrap();
            core
        })
        .collect();
    engine.compact().unwrap();
    assert_eq!(st.view_stats(), Default::default());
    for (core, &probe) in held.iter().zip(&probes) {
        let (got, walked) = walk(st, core, &segments, 1);
        assert!(walked.pairs > 0 && walked.decoded == 0, "{walked:?}");
        assert_eq!(
            got,
            oracle_bits(st, probe, &segments),
            "held core {probe:?}"
        );
    }
    assert_walks_match("compacted", st, &probes, &segments);
}

/// The walk's work count is a function of the query list and the index
/// state alone: the same list, asked three times after an ingest on fresh
/// engines, walks the same pairs and decodes the same posting bytes on one
/// worker and on two, query by query. The third ask builds no view.
#[test]
fn walk_counts_do_not_depend_on_the_worker_count() {
    let run = |workers: usize| {
        streach_par::with_worker_override(workers, || {
            let (network, engine, live) = delta_world();
            engine.ingest(&live).unwrap();
            let center = network.bounds().center();
            let mut counts = Vec::new();
            for ask in 0..ASKS {
                let views = engine.st_index().view_stats();
                for &(start, t, l) in &delta_probes(&live) {
                    let q = SQuery {
                        location: network.segment(start).mbr.center(),
                        start_time_s: t,
                        duration_s: l,
                        prob: 0.2,
                    };
                    for q in [
                        q,
                        SQuery {
                            location: center,
                            ..q
                        },
                    ] {
                        for algorithm in [Algorithm::SqmbTbs, Algorithm::ExhaustiveSearch] {
                            let stats = engine.try_s_query(&q, algorithm).unwrap().stats;
                            counts.push((stats.view_pairs_walked, stats.io.bytes_decoded));
                        }
                    }
                }
                if ask == ASKS - 1 {
                    assert_eq!(engine.st_index().view_stats(), views, "ask {ask} built");
                }
            }
            counts
        })
    };
    let one = run(1);
    assert!(one.iter().any(|&(pairs, _)| pairs > 0));
    assert!(one.iter().any(|&(pairs, _)| pairs == 0));
    assert_eq!(one, run(2));
}
