//! Cross-midnight regression suite.
//!
//! The bounding phase (SQMB / Con-Index, `StIndex::lookup`) has always used
//! modular slot arithmetic — slots past midnight wrap onto the beginning of
//! the day — while the verifiers used to clamp the query window at
//! `SECONDS_PER_DAY`. A 23:55 query with a 10-minute duration was therefore
//! *bounded* over slots {287, 0, 1} but *verified* over slot 287 alone,
//! silently under-reporting probabilities near midnight. The wrap semantics
//! is now applied end to end; this suite pins it on both the optimized and
//! the reference paths.
//!
//! The optimized paths are asked [`ASKS`] times on fresh verifier cores, so
//! the window's slots are read segment-major, then build their trajectory
//! views, then are read forward.

use std::sync::Arc;

use streach_core::con_index::ConIndex;
use streach_core::config::IndexConfig;
use streach_core::query::es::exhaustive_search;
use streach_core::query::reference::{
    naive_exhaustive_search, naive_trace_back_search, NaiveVerifier,
};
use streach_core::query::sqmb::sqmb;
use streach_core::query::tbs::trace_back_search;
use streach_core::query::verifier::VerifierCore;
use streach_core::query::SQuery;
use streach_core::speed_stats::SpeedStats;
use streach_core::st_index::StIndex;
use streach_geo::GeoPoint;
use streach_roadnet::{GeneratorConfig, RoadNetwork, SegmentId, SyntheticCity};
use streach_traj::{FleetConfig, TrajectoryDataset};

/// 23:55, the canonical cross-midnight query start.
const LATE_START: u32 = 23 * 3600 + 55 * 60;
/// 10 minutes — the window ends at 00:05 (wrapped).
const DURATION: u32 = 600;
/// Times each optimized query is asked: segment-major, build, forward.
const ASKS: usize = 3;

struct Fixture {
    network: Arc<RoadNetwork>,
    dataset: TrajectoryDataset,
    st: StIndex,
    con: ConIndex,
    center: GeoPoint,
}

/// An around-the-clock fleet so that slots on both sides of midnight hold
/// data.
fn fixture() -> Fixture {
    let city = SyntheticCity::generate(GeneratorConfig::small());
    let center = city.central_point();
    let network = Arc::new(city.network);
    let dataset = TrajectoryDataset::simulate(
        &network,
        FleetConfig {
            num_taxis: 25,
            num_days: 4,
            day_start_s: 0,
            day_end_s: streach_traj::SECONDS_PER_DAY,
            seed: 99,
            ..FleetConfig::default()
        },
    );
    let config = IndexConfig::default();
    let st = StIndex::build(network.clone(), &dataset, &config);
    let stats = Arc::new(SpeedStats::from_dataset(&network, &dataset, config.slot_s));
    let con = ConIndex::new(network.clone(), stats, &config);
    Fixture {
        network,
        dataset,
        st,
        con,
        center,
    }
}

/// `ids_in_window` with a window crossing midnight reads the wrapped slots:
/// a trajectory seen only in the first minutes of the day is found by a
/// 23:55–00:05 window on the same date.
#[test]
fn ids_in_window_wraps_past_midnight() {
    let f = fixture();
    // Find a visit inside slot 0 (00:00–00:05).
    let (seg, date, id) = f
        .dataset
        .trajectories()
        .iter()
        .flat_map(|t| {
            t.visits
                .iter()
                .filter(|v| v.enter_time_s < 300)
                .map(move |v| (v.segment, t.date, t.traj_id))
        })
        .next()
        .expect("around-the-clock fleet must produce visits in slot 0");
    let wrapped =
        f.st.ids_in_window(seg, LATE_START, LATE_START + DURATION, date)
            .unwrap();
    assert!(
        wrapped.contains(&id),
        "wrapped window must reach slot 0 of the same date"
    );
    // A window stopping at midnight does not see it (unless the same
    // trajectory also drove the segment in the last slot of the day, which
    // the sorted result makes cheap to allow for).
    let clamped =
        f.st.ids_in_window(seg, LATE_START, streach_traj::SECONDS_PER_DAY, date)
            .unwrap();
    assert!(clamped.len() <= wrapped.len());
}

/// Optimized and reference verifiers agree probability-for-probability on
/// the cross-midnight window — and at least one probability is only
/// non-zero because of the wrap.
#[test]
fn verifier_matches_reference_across_midnight() {
    let f = fixture();
    let start = f.network.nearest_segment(&f.center).unwrap().0;
    let naive = NaiveVerifier::new(&f.st, start, LATE_START, DURATION).unwrap();
    let segments: Vec<SegmentId> = f.network.segment_ids().collect();
    for ask in 0..ASKS {
        let core = VerifierCore::new(&f.st, start, LATE_START, DURATION).unwrap();
        let mut nonzero = 0usize;
        for (&seg, got) in segments.iter().zip(core.probabilities(&segments).unwrap()) {
            let expected = naive.probability(seg).unwrap();
            assert_eq!(
                got, expected,
                "cross-midnight probability for {seg}, ask {ask}"
            );
            if got > 0.0 {
                nonzero += 1;
            }
        }
        assert!(
            nonzero > 0,
            "an around-the-clock fleet must make some segment reachable at 23:55"
        );
    }
    assert_eq!(
        f.st.view_stats().views_built,
        2,
        "slots 287 and 0 read forward"
    );
}

/// The full optimized SQMB+TBS pipeline and the naive reference pipeline
/// return bit-identical regions for the 23:55 + 10 min query.
#[test]
fn sqmb_tbs_matches_reference_across_midnight() {
    let f = fixture();
    let start = f.network.nearest_segment(&f.center).unwrap().0;
    for prob in [0.25, 0.5, 1.0] {
        let bounds = sqmb(
            &f.con,
            f.network.num_segments(),
            start,
            LATE_START,
            DURATION,
        );
        let naive = naive_trace_back_search(
            &f.network, &f.st, &bounds, start, LATE_START, DURATION, prob,
        )
        .unwrap();
        for ask in 0..ASKS {
            let core = VerifierCore::new(&f.st, start, LATE_START, DURATION).unwrap();
            let optimized = trace_back_search(&f.network, &core, &bounds, prob).unwrap();
            assert_eq!(
                optimized.region.segments, naive.segments,
                "cross-midnight TBS mismatch at prob={prob}, ask {ask}"
            );
        }
    }
}

/// Optimized and reference exhaustive search agree across midnight too.
#[test]
fn es_matches_reference_across_midnight() {
    let f = fixture();
    let start = f.network.nearest_segment(&f.center).unwrap().0;
    let q = SQuery {
        location: f.center,
        start_time_s: LATE_START,
        duration_s: DURATION,
        prob: 0.25,
    };
    let naive = naive_exhaustive_search(&f.network, &f.st, &q, start).unwrap();
    for ask in 0..ASKS {
        let optimized = exhaustive_search(&f.network, &f.st, &q, start).unwrap();
        assert_eq!(
            optimized.region.segments, naive.segments,
            "cross-midnight ES mismatch, ask {ask}"
        );
    }
}

/// The wrapped window is genuinely *larger* than the clamped one: verifying
/// with the full 10-minute wrap must never yield a lower probability than
/// stopping at midnight, and must yield a strictly higher one somewhere.
#[test]
fn wrap_extends_the_clamped_window() {
    let f = fixture();
    let start = f.network.nearest_segment(&f.center).unwrap().0;
    // Clamped semantics == a query whose duration stops exactly at midnight.
    let clamped_duration = streach_traj::SECONDS_PER_DAY - LATE_START;
    let wrapped = VerifierCore::new(&f.st, start, LATE_START, DURATION).unwrap();
    let clamped = VerifierCore::new(&f.st, start, LATE_START, clamped_duration).unwrap();
    let segments: Vec<SegmentId> = f.network.segment_ids().collect();
    let pws = wrapped.probabilities(&segments).unwrap();
    let pcs = clamped.probabilities(&segments).unwrap();
    let mut strictly_higher = 0usize;
    for ((&seg, pw), pc) in segments.iter().zip(pws).zip(pcs) {
        assert!(
            pw >= pc,
            "wrap lowered the probability of {seg}: {pw} < {pc}"
        );
        if pw > pc {
            strictly_higher += 1;
        }
    }
    assert!(
        strictly_higher > 0,
        "the post-midnight slots must contribute to at least one segment"
    );
}
