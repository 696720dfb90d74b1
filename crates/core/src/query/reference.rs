//! Naive reference implementations of the query hot path.
//!
//! These mirror the pre-optimization code structure — per-call
//! `HashMap<date, Vec<u32>>` construction with sort+dedup in the verifier,
//! hash-map Dijkstra for the distance cap, strictly sequential verification,
//! and the literal Algorithm 1/3 walk over materialised Con-Index slot
//! tables ([`SlotTable`], the only place the paper's per-slot Near/Far
//! lists still exist) — and exist for two purposes:
//!
//! 1. **Equivalence regression**: the `equivalence` integration test asserts
//!    that the optimized ES/SQMB+TBS/MQMB pipeline returns bit-identical
//!    regions to these implementations across a grid of queries, so a perf
//!    refactor can never silently change results. [`naive_s_query`] and
//!    [`naive_m_query`] compose them into whole queries that verify every
//!    candidate, the oracle for a pipeline that skips work.
//! 2. **Benchmark answer check**: the benchmark (`benchmark/src/check.rs`)
//!    compares a share of every workload's answers against these pipelines
//!    in-run and fails the run on any difference.
//!
//! Keep this module boring. It is deliberately *not* written for speed. Like
//! the optimized pipeline, it propagates storage faults as `Err` — the
//! fault-injection campaign drives both paths through the same scripts.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::sync::Arc;

use parking_lot::Mutex;
use streach_geo::GeoPoint;
use streach_roadnet::{segment_distances_from, RoadClass, RoadNetwork, SegmentId};
use streach_storage::StorageResult;

use crate::con_index::ConIndex;
use crate::query::mqmb::{MqmbBounds, NO_OWNER};
use crate::query::sqmb::{hop_slots, BoundingRegions};
use crate::query::{Algorithm, MQuery, SQuery};
use crate::region::ReachableRegion;
use crate::speed_stats::SpeedStats;
use crate::st_index::StIndex;
use crate::time::slots_overlapping;

/// The connection table of one time slot (Section 3.2.2): per segment, the
/// Near and Far ID lists, each sorted and without the segment itself. Each
/// list is one textbook single-source expansion (`reach_within`) that
/// shares no code with the pipeline's bounding hops, so the table walks
/// below check the hops against the paper's definition.
#[derive(Debug, PartialEq, Eq)]
pub struct SlotTable {
    far: Vec<Vec<SegmentId>>,
    near: Vec<Vec<SegmentId>>,
}

impl SlotTable {
    /// Builds the table of `slot` over `con_index`'s current speed
    /// statistics.
    pub fn build(con_index: &ConIndex, slot: u32) -> Self {
        Self::build_over(con_index, &con_index.speed_stats(), slot)
    }

    fn build_over(con_index: &ConIndex, stats: &SpeedStats, slot: u32) -> Self {
        let network = con_index.network();
        let budget_s = con_index.slot_s() as f64;
        let fallback = con_index.fallback_min_speed_ms();
        let row = stats.row(slot);
        let far = |s| row.max_speed_ms(network, s);
        let near = |s| row.min_speed_ms(network, s, fallback);
        // One independent pair of single-source expansions per segment —
        // embarrassingly parallel.
        let seg_ids: Vec<u32> = (0..network.num_segments() as u32).collect();
        let (far, near) = streach_par::par_map(&seg_ids, |&seg_idx| {
            let seg = SegmentId(seg_idx);
            let mut dist = vec![f64::INFINITY; network.num_segments()];
            (
                reach_within(network, seg, budget_s, far, &mut dist),
                reach_within(network, seg, budget_s, near, &mut dist),
            )
        })
        .into_iter()
        .unzip();
        Self { far, near }
    }

    /// Far ID list (upper bound) of a segment.
    pub fn far(&self, segment: SegmentId) -> &[SegmentId] {
        &self.far[segment.index()]
    }

    /// Near ID list (lower bound) of a segment.
    pub fn near(&self, segment: SegmentId) -> &[SegmentId] {
        &self.near[segment.index()]
    }
}

/// The "modified conventional network expansion" of Section 3.2.2 as a
/// textbook single-source Dijkstra: from the head of `source` at time 0,
/// entering segment `s` takes `length_m / speed_ms(s)` seconds (a segment
/// whose speed is not positive is impassable), and no U-turn onto a twin.
/// Returns every other segment whose earliest arrival is within
/// `budget_s`, sorted. `dist` is a dense arrival array, all `+∞` on entry
/// and on return.
fn reach_within(
    network: &RoadNetwork,
    source: SegmentId,
    budget_s: f64,
    speed_ms: impl Fn(SegmentId) -> f64,
    dist: &mut [f64],
) -> Vec<SegmentId> {
    // Arrivals are non-negative and never NaN, so their bit patterns sort
    // like their values.
    let mut heap = BinaryHeap::new();
    let mut reached = Vec::new();
    dist[source.index()] = 0.0;
    heap.push(Reverse((0f64.to_bits(), source)));
    while let Some(Reverse((bits, seg))) = heap.pop() {
        let t = f64::from_bits(bits);
        if t > dist[seg.index()] {
            continue;
        }
        let here = network.segment(seg);
        for &next in network.segments_out_of(here.end_node) {
            if Some(next) == here.twin {
                continue;
            }
            let speed = speed_ms(next);
            if speed <= 0.0 {
                continue;
            }
            let nt = t + network.segment(next).length_m / speed;
            if nt <= budget_s && nt < dist[next.index()] {
                if dist[next.index()] == f64::INFINITY {
                    reached.push(next);
                }
                dist[next.index()] = nt;
                heap.push(Reverse((nt.to_bits(), next)));
            }
        }
    }
    dist[source.index()] = f64::INFINITY;
    for s in &reached {
        dist[s.index()] = f64::INFINITY;
    }
    reached.sort_unstable();
    reached
}

/// Counters of a [`ConIndex`]'s table memo.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConIndexStats {
    /// Number of tables in the memo.
    pub cached_slots: usize,
    /// Number of tables built since creation.
    pub slots_built: u64,
    /// Number of tables dropped because the speed statistics changed.
    pub slots_evicted: u64,
}

/// The tables of one [`ConIndex`], pinned to one version of its speed
/// statistics. A lookup under a different version drops every table and
/// re-pins. The pinned `Arc` makes ingest's `Arc::make_mut` copy, so a
/// changed version is always a different pointer, and a build in flight
/// keeps reading the version it is stored under. Tables build under the
/// lock, so a slot is never built twice for one version.
#[derive(Default)]
pub(crate) struct TableMemo(Mutex<Memo>);

#[derive(Default)]
struct Memo {
    pinned: Option<Arc<SpeedStats>>,
    tables: HashMap<u32, Arc<SlotTable>>,
    built: u64,
    evicted: u64,
}

impl TableMemo {
    /// The table of `slot` (wrapped into the day) over `con_index`'s
    /// current speed statistics, built on first use.
    pub(crate) fn get(&self, con_index: &ConIndex, slot: u32) -> Arc<SlotTable> {
        let mut memo = self.0.lock();
        let current = con_index.speed_stats();
        if memo
            .pinned
            .as_ref()
            .is_none_or(|p| !Arc::ptr_eq(p, &current))
        {
            memo.evicted += memo.tables.len() as u64;
            memo.tables.clear();
            memo.pinned = Some(Arc::clone(&current));
        }
        let slot = slot % streach_traj::SECONDS_PER_DAY.div_ceil(con_index.slot_s());
        if let Some(table) = memo.tables.get(&slot) {
            return Arc::clone(table);
        }
        let table = Arc::new(SlotTable::build_over(con_index, &current, slot));
        memo.built += 1;
        memo.tables.insert(slot, Arc::clone(&table));
        table
    }

    pub(crate) fn stats(&self) -> ConIndexStats {
        let memo = self.0.lock();
        ConIndexStats {
            cached_slots: memo.tables.len(),
            slots_built: memo.built,
            slots_evicted: memo.evicted,
        }
    }
}

/// Reads the per-day trajectory IDs of `segment` over `[start_s, end_s)`,
/// allocating a fresh map per call (the pre-optimization verifier layout).
fn ids_by_day(
    st_index: &StIndex,
    segment: SegmentId,
    start_s: u32,
    end_s: u32,
) -> StorageResult<HashMap<u16, Vec<u32>>> {
    let mut map: HashMap<u16, Vec<u32>> = HashMap::new();
    for slot in slots_overlapping(start_s, end_s, st_index.slot_s()) {
        if let Some(list) = st_index.time_list(segment, slot)? {
            for entry in &list.entries {
                map.entry(entry.date)
                    .or_default()
                    .extend_from_slice(&entry.traj_ids);
            }
        }
    }
    for ids in map.values_mut() {
        ids.sort_unstable();
        ids.dedup();
    }
    Ok(map)
}

fn sorted_intersects(a: &[u32], b: &[u32]) -> bool {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => return true,
        }
    }
    false
}

/// The pre-optimization verifier: one `HashMap` of freshly sorted ID lists
/// per probability evaluation.
pub struct NaiveVerifier<'a> {
    st_index: &'a StIndex,
    start_ids_by_day: HashMap<u16, Vec<u32>>,
    window: (u32, u32),
    num_days: u16,
}

impl<'a> NaiveVerifier<'a> {
    /// Builds a verifier for one (start segment, T, Δt, L) combination.
    pub fn new(
        st_index: &'a StIndex,
        start_segment: SegmentId,
        start_time_s: u32,
        duration_s: u32,
    ) -> StorageResult<Self> {
        // Same cross-midnight wrap semantics as the optimized verifier: the
        // window is half-open and may extend past midnight, in which case
        // `slots_overlapping` wraps onto the beginning of the day.
        let slot_s = st_index.slot_s();
        let t0_end = start_time_s.saturating_add(slot_s);
        let end = start_time_s.saturating_add(duration_s);
        Ok(Self {
            st_index,
            start_ids_by_day: ids_by_day(st_index, start_segment, start_time_s, t0_end)?,
            window: (start_time_s, end),
            num_days: st_index.num_days(),
        })
    }

    /// The reachable probability `probability(r, r0)` of Eq. 3.1.
    pub fn probability(&self, segment: SegmentId) -> StorageResult<f64> {
        if self.num_days == 0 || self.start_ids_by_day.is_empty() {
            return Ok(0.0);
        }
        let target_ids = ids_by_day(self.st_index, segment, self.window.0, self.window.1)?;
        if target_ids.is_empty() {
            return Ok(0.0);
        }
        let mut matching_days = 0u32;
        for (date, start_ids) in &self.start_ids_by_day {
            if let Some(ids) = target_ids.get(date) {
                if sorted_intersects(start_ids, ids) {
                    matching_days += 1;
                }
            }
        }
        Ok(matching_days as f64 / self.num_days as f64)
    }
}

/// The pre-optimization exhaustive search: hash-map Dijkstra for the travel
/// cap plus one sequential verification per expanded segment.
pub fn naive_exhaustive_search(
    network: &RoadNetwork,
    st_index: &StIndex,
    query: &SQuery,
    start_segment: SegmentId,
) -> StorageResult<ReachableRegion> {
    let verifier = NaiveVerifier::new(
        st_index,
        start_segment,
        query.start_time_s,
        query.duration_s,
    )?;
    let cap_m = query.duration_s as f64 * RoadClass::Highway.free_flow_ms() * 1.1;
    let distances = segment_distances_from(network, start_segment, cap_m);

    let mut reachable: Vec<SegmentId> = vec![start_segment];
    let mut visited: std::collections::HashSet<SegmentId> = std::collections::HashSet::new();
    let mut frontier: std::collections::VecDeque<SegmentId> = std::collections::VecDeque::new();
    frontier.push_back(start_segment);
    visited.insert(start_segment);
    while let Some(seg) = frontier.pop_front() {
        for &next in network.successors(seg) {
            if !visited.insert(next) {
                continue;
            }
            if !distances.contains_key(&next) {
                continue;
            }
            if verifier.probability(next)? >= query.prob {
                reachable.push(next);
            }
            frontier.push_back(next);
        }
    }
    Ok(ReachableRegion::from_segments(network, reachable))
}

/// The pre-optimization trace back search: the sequential annulus queue of
/// Algorithm 2, verifying through the [`NaiveVerifier`].
pub fn naive_trace_back_search(
    network: &RoadNetwork,
    st_index: &StIndex,
    bounds: &BoundingRegions,
    start_segment: SegmentId,
    start_time_s: u32,
    duration_s: u32,
    prob: f64,
) -> StorageResult<ReachableRegion> {
    let verifier = NaiveVerifier::new(st_index, start_segment, start_time_s, duration_s)?;
    let min_set: std::collections::HashSet<SegmentId> = bounds.min_region.iter().copied().collect();
    let max_set: std::collections::HashSet<SegmentId> = bounds.max_region.iter().copied().collect();
    let mut queue: std::collections::VecDeque<SegmentId> = bounds.annulus().into();
    let mut visited: std::collections::HashSet<SegmentId> = std::collections::HashSet::new();
    let mut result: Vec<SegmentId> = Vec::new();
    while let Some(r) = queue.pop_front() {
        if !visited.insert(r) {
            continue;
        }
        if verifier.probability(r)? >= prob {
            result.push(r);
        } else {
            for n in network.neighbors(r) {
                if max_set.contains(&n) && !min_set.contains(&n) && !visited.contains(&n) {
                    queue.push_back(n);
                }
            }
        }
    }
    let mut segments = bounds.min_region.clone();
    segments.extend_from_slice(&result);
    Ok(ReachableRegion::from_segments(network, segments))
}

/// Algorithm 1 as written: per hop, fetch the slot's connection table
/// (building all of it on a miss, see [`TableMemo`]) and union the Far (Near) ID lists of every
/// segment in the bounding set.
pub fn naive_sqmb(
    con_index: &ConIndex,
    num_segments: usize,
    start_segment: SegmentId,
    start_time_s: u32,
    duration_s: u32,
) -> BoundingRegions {
    let walk = |use_far: bool| {
        let mut member = vec![false; num_segments];
        member[start_segment.index()] = true;
        let mut bounding = vec![start_segment];
        for slot in hop_slots(start_time_s, duration_s, con_index.slot_s()) {
            let table = con_index.tables.get(con_index, slot);
            for idx in 0..bounding.len() {
                let r = bounding[idx];
                let list = if use_far { table.far(r) } else { table.near(r) };
                for &next in list {
                    if !member[next.index()] {
                        member[next.index()] = true;
                        bounding.push(next);
                    }
                }
            }
        }
        bounding.sort_unstable();
        bounding
    };
    BoundingRegions {
        max_region: walk(true),
        min_region: walk(false),
    }
}

/// The start nearest to every segment, by its own textbook Dijkstra that
/// shares no code with the pipeline's ownership distances: per start, dense
/// network distances that sum the lengths of the segments entered after the
/// start (0 at the start, no U-turn onto a twin), capped at free-flow
/// highway travel over the duration with 10 % slack. Strictly less keeps
/// the lowest start index on a tie. A segment no start reaches within the
/// cap goes to the start euclidean-nearest its midpoint, again the lowest
/// index on a tie.
fn nearest_starts(
    network: &RoadNetwork,
    starts: &[SegmentId],
    start_points: &[GeoPoint],
    duration_s: u32,
) -> Vec<usize> {
    let cap_m = duration_s as f64 * RoadClass::Highway.free_flow_ms() * 1.1;
    let n = network.num_segments();
    let mut best = vec![f64::INFINITY; n];
    let mut nearest = vec![None; n];
    let mut dist = vec![f64::INFINITY; n];
    for (i, &start) in starts.iter().enumerate() {
        dist.fill(f64::INFINITY);
        dist[start.index()] = 0.0;
        // Distances are non-negative and never NaN, so their bit patterns
        // sort like their values.
        let mut heap = BinaryHeap::from([Reverse((0f64.to_bits(), start))]);
        while let Some(Reverse((bits, seg))) = heap.pop() {
            let d = f64::from_bits(bits);
            if d > dist[seg.index()] {
                continue;
            }
            let here = network.segment(seg);
            for &next in network.segments_out_of(here.end_node) {
                let nd = d + network.segment(next).length_m;
                if Some(next) != here.twin && nd <= cap_m && nd < dist[next.index()] {
                    dist[next.index()] = nd;
                    heap.push(Reverse((nd.to_bits(), next)));
                }
            }
        }
        for (seg, &d) in dist.iter().enumerate() {
            if d < best[seg] {
                best[seg] = d;
                nearest[seg] = Some(i);
            }
        }
    }
    network
        .segment_ids()
        .zip(nearest)
        .map(|(seg, nearest)| {
            nearest.unwrap_or_else(|| {
                let mid = network.segment_midpoint(seg);
                let mut best = (0, f64::INFINITY);
                for (i, p) in start_points.iter().enumerate() {
                    let d = p.fast_distance_m(&mid);
                    if d < best.1 {
                        best = (i, d);
                    }
                }
                best.0
            })
        })
        .collect()
}

/// Algorithm 3 as written: the same table walk, a newly reached segment
/// kept only when the start whose expansion reached it is also its nearest
/// start ([`nearest_starts`]).
pub fn naive_mqmb(
    con_index: &ConIndex,
    network: &RoadNetwork,
    starts: &[SegmentId],
    start_points: &[GeoPoint],
    start_time_s: u32,
    duration_s: u32,
) -> MqmbBounds {
    assert!(!starts.is_empty() && starts.len() == start_points.len());
    let nearest = nearest_starts(network, starts, start_points, duration_s);
    let walk = |use_far: bool| {
        let mut owner = vec![NO_OWNER; network.num_segments()];
        let mut bounding: Vec<SegmentId> = Vec::new();
        for (i, &s) in starts.iter().enumerate() {
            if owner[s.index()] == NO_OWNER {
                owner[s.index()] = i as u32;
                bounding.push(s);
            }
        }
        for slot in hop_slots(start_time_s, duration_s, con_index.slot_s()) {
            let table = con_index.tables.get(con_index, slot);
            // Segments claimed during this hop expand in the next one.
            for idx in 0..bounding.len() {
                let r = bounding[idx];
                let owner_r = owner[r.index()];
                let list = if use_far { table.far(r) } else { table.near(r) };
                for &next in list {
                    if owner[next.index()] == NO_OWNER && nearest[next.index()] as u32 == owner_r {
                        owner[next.index()] = owner_r;
                        bounding.push(next);
                    }
                }
            }
        }
        bounding.sort_unstable();
        (bounding, owner)
    };
    let (max_region, owner) = walk(true);
    let (min_region, _) = walk(false);
    MqmbBounds::from_expansions(max_region, min_region, owner)
}

/// The whole reference s-query from `start`: naive SQMB bounds searched by
/// the naive trace back search, or the naive ES. Every annulus segment is
/// verified, so this pins the pipeline's early decision
/// ([`VerifierCore::decided`](crate::query::verifier::VerifierCore::decided))
/// as answer-neutral.
pub fn naive_s_query(
    network: &RoadNetwork,
    con_index: &ConIndex,
    st_index: &StIndex,
    query: &SQuery,
    start: SegmentId,
    algorithm: Algorithm,
) -> StorageResult<ReachableRegion> {
    let (t, l) = (query.start_time_s, query.duration_s);
    match algorithm {
        Algorithm::ExhaustiveSearch => naive_exhaustive_search(network, st_index, query, start),
        Algorithm::SqmbTbs => {
            let bounds = naive_sqmb(con_index, network.num_segments(), start, t, l);
            naive_trace_back_search(network, st_index, &bounds, start, t, l, query.prob)
        }
    }
}

/// The whole reference MQMB+TBS m-query over the located `starts`: naive
/// MQMB bounds, every annulus segment verified naively against its owning
/// start.
pub fn naive_m_query(
    network: &RoadNetwork,
    con_index: &ConIndex,
    st_index: &StIndex,
    query: &MQuery,
    starts: &[SegmentId],
) -> StorageResult<ReachableRegion> {
    let (t, l) = (query.start_time_s, query.duration_s);
    let bounds = naive_mqmb(con_index, network, starts, &query.locations, t, l);
    let verifiers: Vec<NaiveVerifier<'_>> = starts
        .iter()
        .map(|&s| NaiveVerifier::new(st_index, s, t, l))
        .collect::<StorageResult<_>>()?;
    let mut segments = bounds.min_region.clone();
    segments.extend_from_slice(starts);
    for segment in bounds.annulus() {
        let owner = bounds.owner_of(segment).unwrap_or(0);
        if verifiers[owner].probability(segment)? >= query.prob {
            segments.push(segment);
        }
    }
    Ok(ReachableRegion::from_segments(network, segments))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::IndexConfig;
    use streach_roadnet::{GeneratorConfig, SyntheticCity};
    use streach_traj::{FleetConfig, TrajectoryDataset};

    fn setup() -> (Arc<RoadNetwork>, ConIndex) {
        let city = SyntheticCity::generate(GeneratorConfig::small());
        let network = Arc::new(city.network);
        let dataset = TrajectoryDataset::simulate(&network, FleetConfig::tiny());
        let config = IndexConfig::default();
        let stats = Arc::new(SpeedStats::from_dataset(&network, &dataset, config.slot_s));
        let con = ConIndex::new(network.clone(), stats, &config);
        (network, con)
    }

    #[test]
    fn near_is_subset_of_far() {
        let (network, con) = setup();
        let slot = 100; // 08:20, inside the tiny fleet's operating window
        let table = con.slot_table(slot);
        for seg in network.segment_ids() {
            let (near, far) = (table.near(seg), table.far(seg));
            for n in near {
                assert!(
                    far.contains(n),
                    "near segment {n} missing from far list of {seg}"
                );
            }
            // Lists never contain the segment itself and are sorted.
            assert!(!far.contains(&seg));
            assert!(!near.contains(&seg));
            assert!(far.windows(2).all(|w| w[0] < w[1]));
            assert!(near.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn far_lists_are_nonempty_and_contain_successors() {
        let (network, con) = setup();
        let table = con.slot_table(110);
        for seg in network.segment_ids().take(50) {
            let far = table.far(seg);
            assert!(!far.is_empty(), "far list of {seg} empty");
            // Direct successors are always reachable within a 5-minute slot
            // on a 500 m grid.
            for &succ in network.successors(seg) {
                assert!(
                    far.contains(&succ),
                    "successor {succ} of {seg} not in far list"
                );
            }
        }
    }

    #[test]
    fn unchanged_statistics_serve_the_memoised_table() {
        let (_, con) = setup();
        let first = con.slot_table(100);
        let again = con.slot_table(100);
        assert!(Arc::ptr_eq(&first, &again), "same version, same table");
        let stats = con.stats();
        assert_eq!((stats.slots_built, stats.cached_slots), (1, 1));
        assert_eq!(stats.slots_evicted, 0);
    }

    #[test]
    fn build_slots_dedups() {
        let (_, con) = setup();
        con.build_slots(&[100, 101, 102, 100]);
        let stats = con.stats();
        assert_eq!((stats.slots_built, stats.cached_slots), (3, 3));
    }

    #[test]
    fn slot_wraps_around_day() {
        let (_, con) = setup();
        let a = con.slot_table(5);
        let b = con.slot_table(5 + 288);
        assert!(Arc::ptr_eq(&a, &b), "a wrapped slot is the same table");
        assert_eq!(con.stats().slots_built, 1);
    }

    /// An observation landing in slot `s` makes the memo re-pin: the next
    /// table of `s` is the one a fresh Con-Index builds over the new
    /// statistics, not the one built before.
    #[test]
    fn an_observation_in_the_slot_rebuilds_its_table() {
        let (network, con) = setup();
        let slot = 100;
        let before = con.slot_table(slot);
        let _other = con.slot_table(slot + 1);
        // Every segment traversed at close to the plausible maximum speed
        // within the slot: Far lists can only grow.
        let enter = slot * con.slot_s();
        let pairs: Vec<(SegmentId, u32, u32)> = network
            .segment_ids()
            .map(|seg| {
                let dt = (network.segment(seg).length_m / 40.0).ceil().max(1.0) as u32;
                (seg, enter, enter + dt)
            })
            .collect();
        assert!(con.apply_speed_pairs(&network, &pairs) > 0);

        let after = con.slot_table(slot);
        let fresh = ConIndex::new(network.clone(), con.speed_stats(), &IndexConfig::default());
        assert_eq!(*after, SlotTable::build(&fresh, slot));
        assert_ne!(*after, *before, "the observations moved the Far lists");
        let stats = con.stats();
        assert_eq!(stats.slots_evicted, 2, "both tables of the old version");
        assert_eq!((stats.slots_built, stats.cached_slots), (3, 1));
    }
}
