//! The exhaustive-search (ES) baseline.
//!
//! "For s-query, we choose baseline algorithm as exhaustive search (ES)
//! method, which starts from the querying location s and time T, to search
//! the neighboring road segments through the road network. The searching
//! process terminates until Prob-reachable road segments at all possible
//! branches on the road network." (Section 4.2)
//!
//! ES performs a plain network expansion from the start segment and verifies
//! **every** expanded segment against the trajectory postings, including the
//! dense area around the start location whose posting lists are the longest.
//! Expansion is bounded by the maximum distance any vehicle could cover in
//! the query duration (free-flow highway speed), which is what makes the
//! search exhaustive rather than unbounded.
//!
//! The expansion runs on the calling thread's reusable
//! [`DijkstraWorkspace`](streach_roadnet::DijkstraWorkspace) (dense arrays,
//! no hashing). The candidates are then sorted and verified as one batch
//! ([`VerifierCore::passing`]), like the trace back search's annulus.
//!
//! The start segment's postings are read first: when its active days
//! cannot reach Prob ([`VerifierCore::decided`]), no candidate can pass, so
//! the search skips the expansion and answers `{start}`.

use std::time::{Duration, Instant};

use streach_roadnet::{RoadClass, RoadNetwork, SegmentId};
use streach_storage::StorageResult;

use crate::query::verifier::{PostingSource, VerifierCore};
use crate::query::SQuery;
use crate::region::ReachableRegion;

/// Outcome of an exhaustive search.
pub struct EsOutcome {
    /// The Prob-reachable region.
    pub region: ReachableRegion,
    /// Number of probability verifications performed (posting reads).
    pub verifications: usize,
    /// Number of segments visited by the network expansion.
    pub visited: usize,
    /// Time spent expanding the network (the "bounding" stage of ES).
    pub expansion_time: Duration,
    /// Time spent verifying candidate segments against the postings.
    pub verify_time: Duration,
    /// The start pairs the verification's forward walks looked up
    /// ([`VerifierCore::view_pairs_walked`]).
    pub view_pairs_walked: u64,
}

/// Answers an s-query by exhaustive search. Fallible: every candidate
/// verification reads postings, and a storage fault anywhere in the batch
/// cancels the remaining work and surfaces as `Err`.
pub fn exhaustive_search<I: PostingSource + ?Sized>(
    network: &RoadNetwork,
    st_index: &I,
    query: &SQuery,
    start_segment: SegmentId,
) -> StorageResult<EsOutcome> {
    // Core construction (the start segment's posting reads) counts toward
    // verify_time, mirroring the SQMB+TBS and MQMB stat attribution.
    let t0 = Instant::now();
    let core = VerifierCore::new(
        st_index,
        start_segment,
        query.start_time_s,
        query.duration_s,
    )?;
    let core_time = t0.elapsed();

    // Upper bound on how far anything can travel during L: free-flow highway
    // speed with 10% slack. Everything the old breadth-first expansion could
    // reach within the cap is exactly the set Dijkstra settles. The run uses
    // the calling thread's long-lived workspace, so after the first query on
    // a thread the expansion allocates only the candidate list. A decided
    // query expands nothing: no candidate could pass.
    let t1 = Instant::now();
    let (candidates, visited) = if core.decided(query.prob) {
        (Vec::new(), 0)
    } else {
        let cap_m = query.duration_s as f64 * RoadClass::Highway.free_flow_ms() * 1.1;
        streach_roadnet::with_thread_workspace(|ws| {
            ws.run(network, start_segment, cap_m);
            let mut candidates: Vec<SegmentId> = ws
                .settled()
                .map(|(seg, _)| seg)
                .filter(|seg| *seg != start_segment)
                .collect();
            candidates.sort_unstable();
            (candidates, ws.num_settled())
        })
    };
    let expansion_time = t1.elapsed();

    // Verify against the trajectory postings (disk I/O), the sorted
    // candidates as one batch.
    let t2 = Instant::now();
    let passing = core.passing(&candidates, query.prob)?;
    let verify_time = core_time + t2.elapsed();

    let mut reachable: Vec<SegmentId> = vec![start_segment];
    reachable.extend(passing.into_iter().flatten());

    Ok(EsOutcome {
        region: ReachableRegion::from_segments(network, reachable),
        verifications: candidates.len(),
        visited,
        expansion_time,
        verify_time,
        view_pairs_walked: core.view_pairs_walked(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::IndexConfig;
    use crate::st_index::StIndex;
    use std::sync::Arc;
    use streach_geo::GeoPoint;
    use streach_roadnet::{segment_distances_from, GeneratorConfig, SyntheticCity};
    use streach_traj::{FleetConfig, TrajectoryDataset};

    fn setup() -> (Arc<RoadNetwork>, StIndex, GeoPoint) {
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
        let st = StIndex::build(network.clone(), &dataset, &IndexConfig::default());
        (network, st, center)
    }

    fn query(center: GeoPoint, duration_s: u32, prob: f64) -> SQuery {
        SQuery {
            location: center,
            start_time_s: 9 * 3600,
            duration_s,
            prob,
        }
    }

    #[test]
    fn region_contains_start_and_respects_distance_cap() {
        let (network, st, center) = setup();
        let q = query(center, 300, 0.2);
        let r0 = network.nearest_segment(&q.location).unwrap().0;
        let out = exhaustive_search(&network, &st, &q, r0).unwrap();
        assert!(out.region.contains(r0));
        assert!(out.verifications > 0);
        assert!(out.visited >= out.region.len());
        // Nothing in the region is farther than the free-flow cap.
        let cap_m = q.duration_s as f64 * RoadClass::Highway.free_flow_ms() * 1.1;
        let dist = segment_distances_from(&network, r0, cap_m * 2.0);
        for &seg in &out.region.segments {
            assert!(
                dist.get(&seg).copied().unwrap_or(f64::INFINITY) <= cap_m + 1.0,
                "{seg} beyond the cap"
            );
        }
    }

    #[test]
    fn longer_duration_reaches_at_least_as_much() {
        let (network, st, center) = setup();
        let r0 = network.nearest_segment(&center).unwrap().0;
        let short = exhaustive_search(&network, &st, &query(center, 300, 0.2), r0).unwrap();
        let long = exhaustive_search(&network, &st, &query(center, 1200, 0.2), r0).unwrap();
        assert!(long.region.total_length_km >= short.region.total_length_km);
        assert!(long.region.is_superset_of(&short.region));
    }

    #[test]
    fn higher_probability_gives_smaller_region() {
        let (network, st, center) = setup();
        let r0 = network.nearest_segment(&center).unwrap().0;
        let low = exhaustive_search(&network, &st, &query(center, 900, 0.2), r0).unwrap();
        let high = exhaustive_search(&network, &st, &query(center, 900, 0.9), r0).unwrap();
        assert!(high.region.len() <= low.region.len());
        assert!(low.region.is_superset_of(&high.region));
    }

    #[test]
    fn a_decided_search_reads_only_the_start_and_answers_it_alone() {
        let (network, st, center) = setup();
        let r0 = network.nearest_segment(&center).unwrap().0;
        let (mut decided, mut undecided) = (0, 0);
        for (t, prob) in [
            (9 * 3600, 0.2),
            (9 * 3600, 0.5),
            (9 * 3600, 1.0),
            (2 * 3600, 0.2),
        ] {
            let q = SQuery {
                location: center,
                start_time_s: t,
                duration_s: 600,
                prob,
            };
            // What core construction alone reads, from a cold cache.
            st.clear_cache();
            let before = st.io_snapshot();
            let core = VerifierCore::new(&st, r0, t, 600).unwrap();
            let core_io = st.io_snapshot().delta_since(&before);
            st.clear_cache();
            let before = st.io_snapshot();
            let out = exhaustive_search(&network, &st, &q, r0).unwrap();
            let io = st.io_snapshot().delta_since(&before);
            if core.decided(prob) {
                decided += 1;
                assert_eq!(io, core_io, "T={t} prob {prob}: read beyond the start");
                assert_eq!(out.region.segments, vec![r0], "T={t} prob {prob}");
                assert_eq!((out.verifications, out.visited), (0, 0));
            } else {
                undecided += 1;
                assert!(out.verifications > 0, "T={t} prob {prob}");
                assert!(
                    io.bytes_decoded > core_io.bytes_decoded,
                    "T={t} prob {prob}"
                );
            }
        }
        assert!(
            decided > 0 && undecided > 0,
            "{decided} decided, {undecided} not"
        );
    }

    #[test]
    fn query_outside_operating_hours_returns_only_start() {
        let (network, st, center) = setup();
        let r0 = network.nearest_segment(&center).unwrap().0;
        let q = SQuery {
            location: center,
            start_time_s: 2 * 3600,
            duration_s: 600,
            prob: 0.2,
        };
        let out = exhaustive_search(&network, &st, &q, r0).unwrap();
        // No trajectories at 02:00 in the tiny fleet, so only the start
        // segment (included by definition) is returned.
        assert_eq!(out.region.segments, vec![r0]);
    }
}
