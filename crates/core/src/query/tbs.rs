//! Trace back search (TBS, Algorithm 2).
//!
//! The maximum and minimum bounding regions computed by SQMB/MQMB bound the
//! Prob-reachable region: segments inside the minimum bounding region are
//! reachable even at the historically slowest speeds, segments outside the
//! maximum bounding region cannot be reached even at the fastest. TBS
//! therefore only has to verify the segments *between* the two boundaries.
//!
//! Algorithm 2 phrases this as a queue working from the maximum bounding
//! region back toward the minimum one, but because the queue starts with the
//! *entire* annulus and a failed segment only enqueues annulus neighbours
//! (which are already queued), the fixed point it computes is simply "verify
//! every annulus segment exactly once". This implementation does exactly
//! that, as one sorted batch: [`VerifierCore::passing`] splits the annulus
//! into one range per worker and reads each range's postings a window slot
//! at a time, in heap order.
//!
//! Unless the start segment decides the query first: when its active days
//! cannot reach Prob ([`VerifierCore::decided`]), no annulus segment can
//! pass, the search reads nothing and answers the minimum bounding region.
//! The pipeline then hands it [`BoundingRegions::min_only`] bounds, since
//! the Far expansion would only feed an annulus nobody reads.
//!
//! The returned Prob-reachable region is the minimum bounding region plus
//! every verified segment that met the probability threshold. The expensive
//! step — reading trajectory postings — is never performed for the dense
//! core inside the minimum bounding region, which is where the exhaustive
//! baseline spends most of its I/O.

use streach_roadnet::RoadNetwork;
use streach_storage::StorageResult;

use crate::query::sqmb::BoundingRegions;
use crate::query::verifier::{PostingSource, VerifierCore};
use crate::region::ReachableRegion;

/// Outcome of a trace back search.
pub struct TbsOutcome {
    /// The Prob-reachable region.
    pub region: ReachableRegion,
    /// Number of probability verifications performed (posting reads): the
    /// annulus, or 0 when the start segment decided the query.
    pub verifications: usize,
    /// Number of annulus segments examined by the search (the same count).
    pub visited: usize,
    /// The start pairs this search's forward walks looked up
    /// ([`VerifierCore::view_pairs_walked`]).
    pub view_pairs_walked: u64,
}

/// Runs the trace back search for one start segment.
///
/// `core` must have been constructed for the same start segment and query
/// window; `bounds` are the SQMB bounding regions of that start.
///
/// Verification reads postings, so the search is fallible: a storage fault
/// in any worker fails the batch and no partial region is returned.
pub fn trace_back_search<I: PostingSource + ?Sized>(
    network: &RoadNetwork,
    core: &VerifierCore<'_, I>,
    bounds: &BoundingRegions,
    prob: f64,
) -> StorageResult<TbsOutcome> {
    let annulus = bounds.annulus();
    let walked = core.view_pairs_walked();
    let passing = core.passing(&annulus, prob)?;
    let view_pairs_walked = core.view_pairs_walked() - walked;
    let verifications = if passing.is_some() { annulus.len() } else { 0 };

    // Final region: everything reachable even at minimum speed plus the
    // verified annulus segments.
    let mut segments = bounds.min_region.clone();
    segments.extend(passing.into_iter().flatten());
    Ok(TbsOutcome {
        region: ReachableRegion::from_segments(network, segments),
        verifications,
        visited: verifications,
        view_pairs_walked,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::IndexConfig;
    use crate::query::sqmb::{sqmb, sqmb_min_only};
    use crate::speed_stats::SpeedStats;
    use crate::st_index::StIndex;
    use std::sync::Arc;
    use streach_roadnet::{GeneratorConfig, SegmentId, SyntheticCity};
    use streach_traj::{FleetConfig, TrajectoryDataset};

    struct Fixture {
        network: Arc<RoadNetwork>,
        st: StIndex,
        con: crate::con_index::ConIndex,
        start: SegmentId,
    }

    fn setup() -> Fixture {
        let city = SyntheticCity::generate(GeneratorConfig::small());
        let center = city.central_point();
        let network = Arc::new(city.network);
        let dataset = TrajectoryDataset::simulate(
            &network,
            FleetConfig {
                num_taxis: 30,
                num_days: 5,
                ..FleetConfig::tiny()
            },
        );
        let config = IndexConfig::default();
        let st = StIndex::build(network.clone(), &dataset, &config);
        let stats = Arc::new(SpeedStats::from_dataset(&network, &dataset, config.slot_s));
        let con = crate::con_index::ConIndex::new(network.clone(), stats, &config);
        let start = network.nearest_segment(&center).unwrap().0;
        Fixture {
            network,
            st,
            con,
            start,
        }
    }

    /// Runs SQMB + TBS with the full bounds; also says whether the start
    /// segment decided the query.
    fn run(
        f: &Fixture,
        start_time_s: u32,
        duration_s: u32,
        prob: f64,
    ) -> (TbsOutcome, BoundingRegions, bool) {
        let bounds = sqmb(
            &f.con,
            f.network.num_segments(),
            f.start,
            start_time_s,
            duration_s,
        );
        let core = VerifierCore::new(&f.st, f.start, start_time_s, duration_s).unwrap();
        let outcome = trace_back_search(&f.network, &core, &bounds, prob).unwrap();
        (outcome, bounds, core.decided(prob))
    }

    #[test]
    fn region_lies_between_min_and_max_bounds() {
        let f = setup();
        let (outcome, bounds, _) = run(&f, 9 * 3600, 600, 0.2);
        let max_set: std::collections::HashSet<_> = bounds.max_region.iter().copied().collect();
        for &seg in &outcome.region.segments {
            assert!(
                max_set.contains(&seg),
                "{seg} outside the maximum bounding region"
            );
        }
        // The minimum bounding region is always included.
        for seg in &bounds.min_region {
            assert!(outcome.region.contains(*seg));
        }
        assert!(outcome.region.contains(f.start));
    }

    #[test]
    fn verifications_bounded_by_annulus_size() {
        let f = setup();
        let (outcome, bounds, decided) = run(&f, 9 * 3600, 600, 0.2);
        let annulus = bounds.annulus().len();
        assert!(
            outcome.verifications <= annulus,
            "verified {} > annulus {}",
            outcome.verifications,
            annulus
        );
        assert!(outcome.visited <= annulus);
        // The start can pass at 09:00 and Prob 0.2, so it verifies; a start
        // that cannot pass verifies nothing.
        assert!(!decided, "the 09:00 start must be able to pass");
        assert!(outcome.verifications > 0, "some verification must happen");
        let (night, _, decided) = run(&f, 2 * 3600, 600, 0.2);
        assert!(decided, "the idle 02:00 start cannot pass");
        assert_eq!(night.verifications, 0);
    }

    #[test]
    fn higher_probability_shrinks_the_region() {
        let f = setup();
        let (low, _, _) = run(&f, 9 * 3600, 900, 0.2);
        let (high, _, _) = run(&f, 9 * 3600, 900, 0.95);
        assert!(high.region.len() <= low.region.len());
        assert!(low.region.is_superset_of(&high.region));
    }

    #[test]
    fn night_query_collapses_to_minimum_bound() {
        let f = setup();
        // 02:00 — the tiny fleet is idle, so no annulus segment can be verified.
        let (outcome, bounds, _) = run(&f, 2 * 3600, 600, 0.2);
        assert_eq!(outcome.region.len(), bounds.min_region.len());
    }

    #[test]
    fn verifications_equal_annulus_exactly_once() {
        let f = setup();
        let mut decisions = Vec::new();
        for prob in [0.2, 0.5, 1.0] {
            let (outcome, bounds, decided) = run(&f, 9 * 3600, 900, prob);
            // Every annulus segment is verified exactly once, never
            // re-verified — unless the start decided the query, when none is.
            let expected = if decided { 0 } else { bounds.annulus().len() };
            assert_eq!(outcome.verifications, expected, "prob {prob}");
            assert_eq!(outcome.visited, outcome.verifications, "prob {prob}");
            decisions.push(decided);
        }
        assert!(
            decisions.contains(&true) && decisions.contains(&false),
            "the sweep must hold a decided and an undecided query: {decisions:?}"
        );
    }

    #[test]
    fn a_decided_search_reads_nothing_and_answers_the_minimum_region() {
        let f = setup();
        let mut decided_queries = 0;
        for (t, prob) in [(9 * 3600, 0.5), (9 * 3600, 1.0), (2 * 3600, 0.2)] {
            let core = VerifierCore::new(&f.st, f.start, t, 900).unwrap();
            if !core.decided(prob) {
                continue;
            }
            decided_queries += 1;
            let full = sqmb(&f.con, f.network.num_segments(), f.start, t, 900);
            let min_only = sqmb_min_only(&f.con, f.start, t, 900);
            let minimum = ReachableRegion::from_segments(&f.network, full.min_region.clone());
            for bounds in [&full, &min_only] {
                let before = f.st.io_snapshot();
                let outcome = trace_back_search(&f.network, &core, bounds, prob).unwrap();
                assert_eq!(
                    f.st.io_snapshot().delta_since(&before),
                    Default::default(),
                    "T={t} prob {prob}: a decided search reads nothing"
                );
                assert_eq!(outcome.region, minimum, "T={t} prob {prob}");
                assert_eq!(outcome.verifications, 0);
            }
        }
        assert!(
            decided_queries >= 2,
            "only {decided_queries} decided queries"
        );
    }
}
