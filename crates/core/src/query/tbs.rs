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
//! that, as one sorted batch: [`VerifierCore::probabilities`] splits the
//! annulus into one range per worker and reads each range's postings a
//! window slot at a time, in heap order.
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
    /// Number of probability verifications performed (posting reads).
    pub verifications: usize,
    /// Number of annulus segments examined by the search.
    pub visited: usize,
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
    let probabilities = core.probabilities(&annulus)?;

    // Final region: everything reachable even at minimum speed plus the
    // verified annulus segments.
    let mut segments = bounds.min_region.clone();
    segments.extend(
        annulus
            .iter()
            .zip(&probabilities)
            .filter(|(_, p)| **p >= prob)
            .map(|(seg, _)| *seg),
    );
    Ok(TbsOutcome {
        region: ReachableRegion::from_segments(network, segments),
        verifications: annulus.len(),
        visited: annulus.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::IndexConfig;
    use crate::query::sqmb::sqmb;
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
        let config = IndexConfig {
            read_latency_us: 0,
            ..Default::default()
        };
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

    fn run(
        f: &Fixture,
        start_time_s: u32,
        duration_s: u32,
        prob: f64,
    ) -> (TbsOutcome, BoundingRegions) {
        let bounds = sqmb(
            &f.con,
            f.network.num_segments(),
            f.start,
            start_time_s,
            duration_s,
        );
        let core = VerifierCore::new(&f.st, f.start, start_time_s, duration_s).unwrap();
        let outcome = trace_back_search(&f.network, &core, &bounds, prob).unwrap();
        (outcome, bounds)
    }

    #[test]
    fn region_lies_between_min_and_max_bounds() {
        let f = setup();
        let (outcome, bounds) = run(&f, 9 * 3600, 600, 0.2);
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
        let (outcome, bounds) = run(&f, 9 * 3600, 600, 0.2);
        let annulus = bounds.annulus().len();
        assert!(
            outcome.verifications <= annulus,
            "verified {} > annulus {}",
            outcome.verifications,
            annulus
        );
        assert!(outcome.visited <= annulus);
        assert!(outcome.verifications > 0, "some verification must happen");
    }

    #[test]
    fn higher_probability_shrinks_the_region() {
        let f = setup();
        let (low, _) = run(&f, 9 * 3600, 900, 0.2);
        let (high, _) = run(&f, 9 * 3600, 900, 0.95);
        assert!(high.region.len() <= low.region.len());
        assert!(low.region.is_superset_of(&high.region));
    }

    #[test]
    fn night_query_collapses_to_minimum_bound() {
        let f = setup();
        // 02:00 — the tiny fleet is idle, so no annulus segment can be verified.
        let (outcome, bounds) = run(&f, 2 * 3600, 600, 0.2);
        assert_eq!(outcome.region.len(), bounds.min_region.len());
    }

    #[test]
    fn verifications_equal_annulus_exactly_once() {
        let f = setup();
        let (outcome, bounds) = run(&f, 9 * 3600, 900, 0.5);
        // Every annulus segment is verified exactly once, never re-verified.
        assert_eq!(outcome.verifications, bounds.annulus().len());
        assert_eq!(outcome.visited, outcome.verifications);
    }
}
