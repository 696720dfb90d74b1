//! M-query maximum/minimum bounding region search (MQMB, Algorithm 3) and
//! the multi-location trace back search built on top of it.
//!
//! An m-query with `n` start locations could be answered by `n` independent
//! s-queries, but road segments in the overlap of several bounding regions
//! would then be verified (and their postings read) up to `n` times. MQMB
//! grows a *unified* bounding region instead: in every Con-Index hop, a newly
//! reached segment is kept only if the start location whose expansion reached
//! it is also the nearest start location (`rs = argmin dis(r0, b)`), so every
//! segment is owned by exactly one start location and verified exactly once.
//!
//! `dis(r0, b)` is the *network* distance: one bounded Dijkstra per start
//! location (on the thread's reusable dense
//! [`DijkstraWorkspace`](streach_roadnet::DijkstraWorkspace)) precomputes all
//! distances, instead of one shortest-path computation per (start, segment)
//! pair. Start locations whose road network cannot reach a segment within
//! the travel cap fall back to the euclidean distance between the query
//! point and the segment's memoized midpoint. The owner table itself is a
//! dense `Vec<u32>` keyed by segment index — no hashing on the hot path.
//!
//! # The hop is evaluated, not looked up
//!
//! Algorithm 3 walks the bounding set and, for each member `r`, offers every
//! `b ∈ Far(r, slot)` to `r`'s owner; `b` is claimed iff it is still unowned
//! and `nearest_start(b)` is that owner. Whether `b` ends the hop claimed —
//! and by whom — therefore depends only on whether *some* segment owned by
//! `nearest_start(b)` at the start of the hop has `b` in its list; the order
//! of the walk cannot matter. So each hop runs one multi-source expansion
//! per start over the segments that start currently owns (which reaches
//! exactly the union of their lists — see [`crate::query::sqmb`] for why
//! that is exact in floating point) and applies the unchanged claim rule:
//! regions *and* owners are bit-identical to the list walk, which survives
//! as [`crate::query::reference::naive_mqmb`].

use std::time::Instant;

use streach_geo::GeoPoint;
use streach_roadnet::{RoadClass, RoadNetwork, SegmentId};
use streach_storage::StorageResult;

use crate::con_index::{BoundingPass, ConIndex};
use crate::query::sqmb::hop_slots;
use crate::query::verifier::{PostingSource, VerifierCore, VerifierScratch};
use crate::region::ReachableRegion;

/// Sentinel for "segment not in the region / unowned".
pub(crate) const NO_OWNER: u32 = u32::MAX;

/// Unified bounding regions of an m-query.
#[derive(Debug, Clone)]
pub struct MqmbBounds {
    /// Unified maximum bounding region (sorted).
    pub max_region: Vec<SegmentId>,
    /// Unified minimum bounding region (sorted).
    pub min_region: Vec<SegmentId>,
    /// Owning start-location index per segment (dense, keyed by segment
    /// index; `u32::MAX` = not in the maximum bounding region).
    owner: Vec<u32>,
}

impl MqmbBounds {
    /// The start location owning `seg`, if the segment belongs to the
    /// maximum bounding region.
    pub fn owner_of(&self, seg: SegmentId) -> Option<usize> {
        match self.owner.get(seg.index()).copied().unwrap_or(NO_OWNER) {
            NO_OWNER => None,
            i => Some(i as usize),
        }
    }

    /// Segments of the maximum bounding region outside the minimum one.
    pub fn annulus(&self) -> Vec<SegmentId> {
        let mut out = Vec::with_capacity(self.max_region.len());
        let mut i = 0;
        for &seg in &self.max_region {
            while i < self.min_region.len() && self.min_region[i] < seg {
                i += 1;
            }
            if i >= self.min_region.len() || self.min_region[i] != seg {
                out.push(seg);
            }
        }
        out
    }
}

/// Per-start network distances used for the `rs = argmin dis(r0, b)`
/// ownership decisions, with a euclidean fallback for unreachable segments.
pub(crate) struct OwnershipDistances<'a> {
    network: &'a RoadNetwork,
    start_points: &'a [GeoPoint],
    /// Network-nearest start per segment (`NO_OWNER` = unreached by every
    /// start within the travel cap). Built from one Dijkstra per start on
    /// the calling thread's reused workspace, folded into this single dense
    /// table so n starts cost one O(num_segments) array rather than n
    /// workspaces.
    network_nearest: Vec<u32>,
}

impl<'a> OwnershipDistances<'a> {
    pub(crate) fn new(
        network: &'a RoadNetwork,
        starts: &[SegmentId],
        start_points: &'a [GeoPoint],
        duration_s: u32,
    ) -> Self {
        // The same travel cap the ES baseline uses: nothing relevant to the
        // bounding region lies farther than free-flow highway travel over the
        // query duration (10% slack).
        let cap_m = duration_s as f64 * RoadClass::Highway.free_flow_ms() * 1.1;
        let n = network.num_segments();
        let mut best_dist = vec![f64::INFINITY; n];
        let mut network_nearest = vec![NO_OWNER; n];
        streach_roadnet::with_thread_workspace(|ws| {
            for (i, &s) in starts.iter().enumerate() {
                ws.run(network, s, cap_m);
                for (seg, d) in ws.settled() {
                    let idx = seg.index();
                    // Strict < keeps the lowest start index on exact ties,
                    // so ownership is deterministic.
                    if d < best_dist[idx] {
                        best_dist[idx] = d;
                        network_nearest[idx] = i as u32;
                    }
                }
            }
        });
        Self {
            network,
            start_points,
            network_nearest,
        }
    }

    /// Index of the start location nearest to `seg` by network distance,
    /// falling back to euclidean midpoint distance when no start reaches the
    /// segment within the cap. Ties resolve to the lowest index, so the
    /// result is deterministic.
    pub(crate) fn nearest_start(&self, seg: SegmentId) -> usize {
        match self.network_nearest[seg.index()] {
            NO_OWNER => {
                let mid = self.network.segment_midpoint(seg);
                let mut best = 0usize;
                let mut best_d = f64::INFINITY;
                for (i, p) in self.start_points.iter().enumerate() {
                    let d = p.fast_distance_m(&mid);
                    if d < best_d {
                        best = i;
                        best_d = d;
                    }
                }
                best
            }
            i => i as usize,
        }
    }
}

fn expand(
    pass: &mut BoundingPass<'_>,
    distances: &OwnershipDistances<'_>,
    num_segments: usize,
    starts: &[SegmentId],
    hop_slots: &[u32],
    use_far: bool,
) -> (Vec<SegmentId>, Vec<u32>) {
    let mut owner: Vec<u32> = vec![NO_OWNER; num_segments];
    // The bounding set, split by owning start.
    let mut owned: Vec<Vec<SegmentId>> = vec![Vec::new(); starts.len()];
    for (i, &s) in starts.iter().enumerate() {
        if owner[s.index()] == NO_OWNER {
            owner[s.index()] = i as u32;
            owned[i].push(s);
        }
    }

    for &slot in hop_slots {
        for (i, mine) in owned.iter_mut().enumerate() {
            if mine.is_empty() {
                continue; // a duplicated start owns nothing
            }
            // Claims land in `mine` only after this start's expansion ran,
            // and no other start's claims ever do, so every start expands
            // exactly what it owned when the hop began.
            for next in pass.hop(mine, slot, use_far) {
                // Overlap elimination: keep `next` only if its nearest start
                // location is the one whose expansion reached it.
                if owner[next.index()] == NO_OWNER && distances.nearest_start(next) == i {
                    owner[next.index()] = i as u32;
                    mine.push(next);
                }
            }
        }
    }
    let mut bounding = owned.concat();
    bounding.sort_unstable();
    (bounding, owner)
}

/// Runs MQMB: computes the unified maximum/minimum bounding regions with
/// per-segment owners.
pub fn mqmb(
    con_index: &ConIndex,
    network: &RoadNetwork,
    starts: &[SegmentId],
    start_points: &[GeoPoint],
    start_time_s: u32,
    duration_s: u32,
) -> MqmbBounds {
    assert!(
        !starts.is_empty(),
        "m-query needs at least one start segment"
    );
    assert_eq!(starts.len(), start_points.len());
    // Finished before the bounding pass borrows the thread workspace.
    let distances = OwnershipDistances::new(network, starts, start_points, duration_s);
    let n = network.num_segments();
    let hop_slots = hop_slots(start_time_s, duration_s, con_index.slot_s());
    let ((max_region, owner), (min_region, _)) = con_index.bounding_pass(|pass| {
        (
            expand(pass, &distances, n, starts, &hop_slots, true),
            expand(pass, &distances, n, starts, &hop_slots, false),
        )
    });
    MqmbBounds::from_expansions(max_region, min_region, owner)
}

impl MqmbBounds {
    /// Assembles the bounds from a Far and a Near expansion.
    pub(crate) fn from_expansions(
        max_region: Vec<SegmentId>,
        min_region: Vec<SegmentId>,
        owner: Vec<u32>,
    ) -> Self {
        // The minimum bounding region is contained in the maximum one by
        // construction of the speed bounds; intersect defensively so the
        // annulus arithmetic stays valid even for degenerate speed
        // statistics. The max region's owner table doubles as its
        // membership test.
        let min_region = min_region
            .into_iter()
            .filter(|s| owner[s.index()] != NO_OWNER)
            .collect();
        Self {
            max_region,
            min_region,
            owner,
        }
    }
}

/// Outcome of the multi-location trace back search.
pub struct MqmbTbsOutcome {
    /// The Prob-reachable region of the m-query.
    pub region: ReachableRegion,
    /// Total probability verifications performed.
    pub verifications: usize,
    /// Number of annulus segments examined.
    pub visited: usize,
    /// Time spent constructing the per-start verifier cores.
    pub setup_time: std::time::Duration,
    /// Time spent verifying the unified annulus.
    pub verify_time: std::time::Duration,
}

/// Verifies the unified annulus: every segment is checked once, against the
/// verifier of the start location that owns it.
///
/// The verifications run in parallel; the per-start [`VerifierCore`]s are
/// shared read-only across workers and each worker reuses one scratch for
/// all segments of its chunk, whichever start they belong to. Fallible end
/// to end: core construction reads the start segments' postings and every
/// annulus verification reads the candidate's — a storage fault anywhere
/// cancels the remaining work and surfaces as `Err`.
pub fn mqmb_trace_back<I: PostingSource + ?Sized>(
    network: &RoadNetwork,
    st_index: &I,
    bounds: &MqmbBounds,
    starts: &[SegmentId],
    start_time_s: u32,
    duration_s: u32,
    prob: f64,
) -> StorageResult<MqmbTbsOutcome> {
    let t0 = Instant::now();
    let cores: Vec<VerifierCore<'_, I>> = starts
        .iter()
        .map(|&s| VerifierCore::new(st_index, s, start_time_s, duration_s))
        .collect::<StorageResult<_>>()?;
    let setup_time = t0.elapsed();

    let t1 = Instant::now();
    let annulus = bounds.annulus();
    let passed = streach_par::try_par_map_with(&annulus, VerifierScratch::new, |scratch, seg| {
        let owner = bounds.owner_of(*seg).unwrap_or(0);
        cores[owner].is_reachable(scratch, *seg, prob)
    })?;
    let verify_time = t1.elapsed();

    let mut result: Vec<SegmentId> = bounds.min_region.clone();
    result.extend_from_slice(starts);
    result.extend(
        annulus
            .iter()
            .zip(&passed)
            .filter(|(_, ok)| **ok)
            .map(|(seg, _)| *seg),
    );
    Ok(MqmbTbsOutcome {
        region: ReachableRegion::from_segments(network, result),
        verifications: annulus.len(),
        visited: annulus.len(),
        setup_time,
        verify_time,
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
    use streach_roadnet::{GeneratorConfig, SyntheticCity};
    use streach_traj::{FleetConfig, TrajectoryDataset};

    struct Fixture {
        network: Arc<RoadNetwork>,
        con: ConIndex,
        st: StIndex,
        starts: Vec<SegmentId>,
        start_points: Vec<GeoPoint>,
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
        let con = ConIndex::new(network.clone(), stats, &config);
        let start_points = vec![
            center,
            center.offset_m(1500.0, 0.0),
            center.offset_m(0.0, -1500.0),
        ];
        let starts: Vec<SegmentId> = start_points
            .iter()
            .map(|p| network.nearest_segment(p).unwrap().0)
            .collect();
        Fixture {
            network,
            con,
            st,
            starts,
            start_points,
        }
    }

    #[test]
    fn owners_are_assigned_and_regions_sorted() {
        let f = setup();
        let b = mqmb(
            &f.con,
            &f.network,
            &f.starts,
            &f.start_points,
            9 * 3600,
            600,
        );
        assert!(b.max_region.windows(2).all(|w| w[0] < w[1]));
        assert!(b.min_region.windows(2).all(|w| w[0] < w[1]));
        for seg in &b.max_region {
            let owner = b.owner_of(*seg);
            assert!(owner.is_some(), "segment {seg} has no owner");
            assert!(owner.unwrap() < f.starts.len());
        }
        // Segments outside the region have no owner.
        let member: std::collections::HashSet<_> = b.max_region.iter().copied().collect();
        for seg in f.network.segment_ids() {
            if !member.contains(&seg) {
                assert_eq!(b.owner_of(seg), None);
            }
        }
        // Every start segment is in the region and owns itself.
        for (i, s) in f.starts.iter().enumerate() {
            assert!(b.max_region.binary_search(s).is_ok());
            assert_eq!(b.owner_of(*s), Some(i));
        }
    }

    /// Ownership follows the paper's rule `rs = argmin dis(r0, b)`,
    /// re-derived here *independently* with the free-function Dijkstra (not
    /// the workspace path mqmb uses), so the assignment cannot drift without
    /// this test noticing.
    #[test]
    fn owners_are_the_network_nearest_start() {
        let f = setup();
        let duration_s = 600u32;
        let b = mqmb(
            &f.con,
            &f.network,
            &f.starts,
            &f.start_points,
            9 * 3600,
            duration_s,
        );
        let cap_m = duration_s as f64 * streach_roadnet::RoadClass::Highway.free_flow_ms() * 1.1;
        let dist_maps: Vec<std::collections::HashMap<SegmentId, f64>> = f
            .starts
            .iter()
            .map(|&s| streach_roadnet::segment_distances_from(&f.network, s, cap_m))
            .collect();
        for &seg in &b.max_region {
            let expected = {
                let mut best = None;
                let mut best_d = f64::INFINITY;
                for (i, map) in dist_maps.iter().enumerate() {
                    if let Some(&d) = map.get(&seg) {
                        if d < best_d {
                            best = Some(i);
                            best_d = d;
                        }
                    }
                }
                match best {
                    Some(i) => i,
                    None => {
                        // Euclidean fallback for segments no start reaches.
                        let mid = f.network.segment_midpoint(seg);
                        (0..f.start_points.len())
                            .min_by(|&a, &bi| {
                                f.start_points[a]
                                    .fast_distance_m(&mid)
                                    .total_cmp(&f.start_points[bi].fast_distance_m(&mid))
                            })
                            .unwrap()
                    }
                }
            };
            assert_eq!(
                b.owner_of(seg),
                Some(expected),
                "segment {seg} owned by the wrong start"
            );
        }
    }

    #[test]
    fn unified_region_is_subset_of_union_of_individual_regions() {
        let f = setup();
        let b = mqmb(
            &f.con,
            &f.network,
            &f.starts,
            &f.start_points,
            9 * 3600,
            600,
        );
        let mut union: std::collections::HashSet<SegmentId> = std::collections::HashSet::new();
        for &s in &f.starts {
            let single = sqmb(&f.con, f.network.num_segments(), s, 9 * 3600, 600);
            union.extend(single.max_region);
        }
        for seg in &b.max_region {
            assert!(
                union.contains(seg),
                "{seg} not in any individual bounding region"
            );
        }
        // The unified region is meaningfully smaller than n times one region
        // when the locations overlap (1.5 km apart, 10-minute budget).
        assert!(b.max_region.len() <= union.len());
    }

    #[test]
    fn single_location_mqmb_equals_sqmb() {
        let f = setup();
        let b = mqmb(
            &f.con,
            &f.network,
            &f.starts[..1],
            &f.start_points[..1],
            9 * 3600,
            600,
        );
        let s = sqmb(&f.con, f.network.num_segments(), f.starts[0], 9 * 3600, 600);
        assert_eq!(b.max_region, s.max_region);
        assert_eq!(b.min_region, s.min_region);
    }

    #[test]
    fn trace_back_verifies_each_annulus_segment_once() {
        let f = setup();
        let b = mqmb(
            &f.con,
            &f.network,
            &f.starts,
            &f.start_points,
            9 * 3600,
            600,
        );
        let outcome =
            mqmb_trace_back(&f.network, &f.st, &b, &f.starts, 9 * 3600, 600, 0.2).unwrap();
        assert_eq!(outcome.verifications, b.annulus().len());
        assert_eq!(outcome.visited, b.annulus().len());
        // All start segments are in the result.
        for s in &f.starts {
            assert!(outcome.region.contains(*s));
        }
        // The region stays within the maximum bounding region.
        let max_set: std::collections::HashSet<SegmentId> = b.max_region.iter().copied().collect();
        for seg in &outcome.region.segments {
            assert!(max_set.contains(seg) || f.starts.contains(seg));
        }
    }

    #[test]
    fn mqmb_result_close_to_union_of_squeries() {
        // The m-query region should roughly equal the union of the
        // single-location regions (Fig. 4.9): allow boundary differences
        // from the overlap-elimination heuristic.
        let f = setup();
        let b = mqmb(
            &f.con,
            &f.network,
            &f.starts,
            &f.start_points,
            9 * 3600,
            900,
        );
        let m_outcome =
            mqmb_trace_back(&f.network, &f.st, &b, &f.starts, 9 * 3600, 900, 0.2).unwrap();

        let mut union_segments: Vec<SegmentId> = Vec::new();
        for &s in &f.starts {
            let sb = sqmb(&f.con, f.network.num_segments(), s, 9 * 3600, 900);
            let core = VerifierCore::new(&f.st, s, 9 * 3600, 900).unwrap();
            let single = crate::query::tbs::trace_back_search(&f.network, &core, &sb, 0.2).unwrap();
            union_segments.extend(single.region.segments);
        }
        let union = ReachableRegion::from_segments(&f.network, union_segments);
        // The two agree on at least 60% of the union (Jaccard-style bound —
        // the heuristics differ only near ownership boundaries).
        let m_set: std::collections::HashSet<_> = m_outcome.region.segments.iter().collect();
        let common = union.segments.iter().filter(|s| m_set.contains(s)).count();
        assert!(
            common as f64 >= 0.6 * union.len() as f64,
            "m-query region diverges from the union: {} common of {}",
            common,
            union.len()
        );
    }
}
