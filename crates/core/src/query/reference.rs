//! Naive reference implementations of the query hot path.
//!
//! These mirror the pre-optimization code structure — per-call
//! `HashMap<date, Vec<u32>>` construction with sort+dedup in the verifier,
//! hash-map Dijkstra for the distance cap, strictly sequential verification,
//! and the literal Algorithm 1/3 walk over materialised Con-Index slot
//! tables — and exist for two purposes:
//!
//! 1. **Equivalence regression**: the `equivalence` integration test asserts
//!    that the optimized ES/SQMB+TBS/MQMB pipeline returns bit-identical
//!    regions to these implementations across a grid of queries, so a perf
//!    refactor can never silently change results.
//! 2. **Benchmark baseline**: `crates/bench`'s hotpath harness measures the
//!    speedup of the optimized path against this code on the same scenario
//!    (recorded in `BENCH_hotpath.json`).
//!
//! Keep this module boring. It is deliberately *not* written for speed. Like
//! the optimized pipeline, it propagates storage faults as `Err` — the
//! fault-injection campaign drives both paths through the same scripts.

use std::collections::HashMap;

use streach_geo::GeoPoint;
use streach_roadnet::{segment_distances_from, RoadClass, RoadNetwork, SegmentId};
use streach_storage::StorageResult;

use crate::con_index::ConIndex;
use crate::query::mqmb::{MqmbBounds, OwnershipDistances, NO_OWNER};
use crate::query::sqmb::{hop_slots, BoundingRegions};
use crate::query::SQuery;
use crate::region::ReachableRegion;
use crate::st_index::StIndex;
use crate::time::slots_overlapping;

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
        for next in network.successors(seg) {
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
/// (building all of it on a miss) and union the Far (Near) ID lists of every
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
            let table = con_index.slot_table(slot);
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

/// Algorithm 3 as written: the same table walk, a newly reached segment
/// kept only when the start whose expansion reached it is also its nearest
/// start (the ownership distances are shared with the optimized path).
pub fn naive_mqmb(
    con_index: &ConIndex,
    network: &RoadNetwork,
    starts: &[SegmentId],
    start_points: &[GeoPoint],
    start_time_s: u32,
    duration_s: u32,
) -> MqmbBounds {
    assert!(!starts.is_empty() && starts.len() == start_points.len());
    let distances = OwnershipDistances::new(network, starts, start_points, duration_s);
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
            let table = con_index.slot_table(slot);
            // Segments claimed during this hop expand in the next one.
            for idx in 0..bounding.len() {
                let r = bounding[idx];
                let owner_r = owner[r.index()];
                let list = if use_far { table.far(r) } else { table.near(r) };
                for &next in list {
                    if owner[next.index()] == NO_OWNER
                        && distances.nearest_start(next) as u32 == owner_r
                    {
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
