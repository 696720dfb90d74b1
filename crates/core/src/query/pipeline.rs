//! The one query procedure every tier runs.
//!
//! Every s-query is answered as a member of a batch
//! ([`QueryContext::s_queries`]); a single query is a batch of one. An
//! SQMB+TBS member is answered in five steps:
//!
//! 1. locate the start segment on the road network;
//! 2. resolve the slots the query will read ([`QueryContext::resolve`]):
//!    the speed rows of its hop slots and the directory slots of its
//!    probability window, which a reopened snapshot decodes on first
//!    touch — a damaged one fails the query here, typed;
//! 3. build its [`VerifierCore`], which reads the start segment's postings
//!    and so knows on how many days the start was active;
//! 4. bound the reachable region over the Con-Index with SQMB — only the
//!    Near expansion ([`sqmb_min_only`]) when those active days cannot
//!    reach Prob ([`VerifierCore::decided`]), both expansions otherwise;
//! 5. verify the annulus between the bounds against the ST-Index postings
//!    with the trace back search; a decided query's annulus is empty, so
//!    its answer is the minimum bounding region, read-free.
//!
//! Members that share a start segment and a hop-slot sequence share step 4
//! and, per distinct `(T, L)`, step 3; each is verified with its own
//! `Prob`. The exhaustive search (ES) is the baseline that skips the
//! bounding; an ES member runs alone. It too builds the core first and
//! skips its network expansion when decided. Every answer carries its
//! [`ReadFootprint`], built from the slots step 2 resolved and the bounds
//! it was verified in, which the result cache and the subscriptions
//! intersect with each ingest batch.
//!
//! MQMB bounds several locations at once and keeps its Far expansion; each
//! start it owns skips its batch when that start decided it.
//!
//! [`QueryContext`] borrows the three inputs of that procedure: the network,
//! the Con-Index and a [`PostingSource`]. The single engine passes its
//! [`StIndex`](crate::StIndex); the sharded router passes its statistics
//! leader's Con-Index and a source that routes each posting read to the
//! owning shard. Both therefore run this code and nothing else, so a router
//! answers bit-identically to a single engine by construction. This module
//! is also the only place that builds [`QueryStats`]: every path measures
//! its I/O through [`PostingSource::io_snapshot`].

use std::time::{Duration, Instant};

use streach_geo::GeoPoint;
use streach_roadnet::{RoadNetwork, SegmentId};
use streach_storage::IoStatsSnapshot;

use crate::con_index::ConIndex;
use crate::engine::ReachabilityEngine;
use crate::ingest::IngestTouch;
use crate::query::es::exhaustive_search;
use crate::query::mqmb::{mqmb, mqmb_trace_back};
use crate::query::sqmb::{hop_slots, sqmb, sqmb_min_only, BoundingRegions};
use crate::query::tbs::trace_back_search;
use crate::query::verifier::{PostingSource, VerifierCore};
use crate::query::{Algorithm, MQuery, MQueryAlgorithm, QueryError, QueryOutcome, SQuery};
use crate::region::ReachableRegion;
use crate::stats::QueryStats;
use crate::time::{slots_overlapping, SlotWindow};

/// What an answered s-query read: everything an [`IngestTouch`] is
/// intersected with to decide whether the answer may have changed
/// ([`ReadFootprint::touched_by`]). The serving result cache drops an entry
/// by it, and a standing subscription re-evaluates by it.
#[derive(Debug, Clone, Default)]
pub struct ReadFootprint {
    /// The slots the query resolved (`read_window`): `num_slots` slots from
    /// `first_slot` on, wrapping after the day's `slots_per_day`. Kept as a
    /// span, so testing a touched slot takes no division and no search.
    first_slot: u32,
    num_slots: u32,
    slots_per_day: u32,
    /// The maximum bounding region, sorted: verification reads no segment
    /// outside it. A decided answer's is its minimum region, which holds
    /// the start segment. Empty means "any segment": ES reads wherever its
    /// expansion goes, so no sound segment scoping exists for it.
    max_region: Vec<SegmentId>,
}

impl ReadFootprint {
    /// What a query that resolved `window` read, in any segment.
    fn of_window(window: &SlotWindow, slot_s: u32) -> Self {
        Self {
            first_slot: window.clone().next().unwrap_or(0),
            num_slots: window.len() as u32,
            slots_per_day: streach_traj::SECONDS_PER_DAY.div_ceil(slot_s),
            max_region: Vec::new(),
        }
    }

    /// Whether the answer read `slot`, a slot of the day: the window's
    /// slots follow each other around the day.
    fn read_slot(&self, slot: u32) -> bool {
        let offset = if slot >= self.first_slot {
            slot - self.first_slot
        } else {
            slot + self.slots_per_day - self.first_slot
        };
        offset < self.num_slots
    }

    /// The maximum bounding region the answer was verified in, sorted;
    /// empty for ES, whose reads no region bounds.
    pub fn max_region(&self) -> &[SegmentId] {
        &self.max_region
    }

    /// Whether `touch` may have changed an answer with this footprint:
    /// a day raise always does; a moved speed slot the answer read does
    /// (speed feeds bounding, which may reach any segment on re-run); a
    /// touched posting pair does when its slot was read *and* its segment
    /// lies inside the maximum bounding region.
    pub(crate) fn touched_by(&self, touch: &IngestTouch) -> bool {
        touch.num_days_raised
            || touch.speed_slots.iter().any(|&slot| self.read_slot(slot))
            || touch.posting_pairs.iter().any(|&(slot, segment)| {
                self.read_slot(slot)
                    && (self.max_region.is_empty()
                        || self.max_region.binary_search(&SegmentId(segment)).is_ok())
            })
    }
}

/// One answer of an s-query batch
/// ([`ReachabilityEngine::try_s_query_batch`]).
#[derive(Debug, Clone)]
pub struct BatchAnswer {
    /// The caller's outcome; a failure is this caller's typed error.
    pub outcome: Result<QueryOutcome, QueryError>,
    /// What the answer read (empty on error).
    pub footprint: ReadFootprint,
    /// Whether the bounding pass was shared with another query of the batch.
    pub shared_bounding: bool,
}

impl BatchAnswer {
    fn failed(err: QueryError) -> Self {
        Self {
            outcome: Err(err),
            footprint: ReadFootprint::default(),
            shared_bounding: false,
        }
    }
}

/// The SQMB+TBS queries of a batch that share a start segment and a
/// hop-slot sequence. The bounding expansion reads exactly that sequence,
/// not just its first slot, so its equality is the condition under which
/// one bounding pass equals each member's own.
struct Group<'a, P: PostingSource + ?Sized> {
    start: SegmentId,
    hop_slots: Vec<u32>,
    /// One verifier core per distinct `(T, L)`, shared across thresholds.
    cores: Vec<((u32, u32), VerifierCore<'a, P>)>,
    members: Vec<Member>,
}

/// A resolved group member with its core, and what it cost so far.
struct Member {
    /// Its position in the batch.
    index: usize,
    /// Its core in [`Group::cores`].
    core: usize,
    /// What it resolved; the bounds add the region.
    footprint: ReadFootprint,
    resolve_time: Duration,
    /// Building its core, or finding the one it shares.
    core_time: Duration,
    /// The I/O of its resolve and core.
    io: IoStatsSnapshot,
}

/// Maps a query location to its start road segment ("with the start
/// location S and time stamp T from q, we identify the start road segment
/// r0 in the R-tree from ST-Index"): the nearest segment of `network`,
/// unless it lies farther than [`ReachabilityEngine::MAX_MATCH_DISTANCE_M`]
/// (a request from outside the serviced area must not silently snap to a
/// boundary segment). `index` names the location in an m-query's
/// [`QueryError::LocationOffNetwork`].
pub(crate) fn locate(
    network: &RoadNetwork,
    location: &GeoPoint,
    index: usize,
) -> Result<SegmentId, QueryError> {
    if !location.is_finite() {
        return Err(QueryError::InvalidQuery(
            "query location must be finite".into(),
        ));
    }
    match network.nearest_segment(location) {
        Some((segment, distance_m)) if distance_m <= ReachabilityEngine::MAX_MATCH_DISTANCE_M => {
            Ok(segment)
        }
        _ => Err(QueryError::LocationOffNetwork {
            index,
            location: *location,
        }),
    }
}

/// Every slot an s-query over `[T, T + L)` reads, wrapped into the day: its
/// probability window `[T, T + max(L, Δt))`. It holds the verifier's T0
/// window `[T, T + Δt)` and every bounding hop slot, since hop
/// `k < ⌈L/Δt⌉` reads the slot of `T + k·Δt < T + L`.
fn read_window(start_time_s: u32, duration_s: u32, slot_s: u32) -> SlotWindow {
    let end = start_time_s.saturating_add(duration_s.max(slot_s));
    slots_overlapping(start_time_s, end, slot_s)
}

/// Everything a query reads, borrowed: the road network, the Con-Index that
/// bounds it and the posting source that verifies it.
pub(crate) struct QueryContext<'a, P: PostingSource + ?Sized> {
    pub(crate) network: &'a RoadNetwork,
    pub(crate) con_index: &'a ConIndex,
    pub(crate) postings: &'a P,
}

impl<'a, P: PostingSource + ?Sized> QueryContext<'a, P> {
    /// Resolves what a query over `[T, T + L)` will read, before it bounds
    /// anything: the posting source's structures for the slots of its
    /// [`read_window`] and, when it bounds over the Con-Index, the speed
    /// rows of its hop slots. A slot that cannot be decoded fails
    /// the query here, typed, decided or not; afterwards the bounding and
    /// verification read only resolved slots, so they stay infallible
    /// about them. Returns the footprint of what it resolved and the hop
    /// slots (none without bounds).
    fn resolve(
        &self,
        start_time_s: u32,
        duration_s: u32,
        bounds: bool,
    ) -> Result<(ReadFootprint, Vec<u32>), QueryError> {
        let slot_s = self.con_index.slot_s();
        let window = read_window(start_time_s, duration_s, slot_s);
        let footprint = ReadFootprint::of_window(&window, slot_s);
        self.postings.resolve(window)?;
        if !bounds {
            return Ok((footprint, Vec::new()));
        }
        let hops = hop_slots(start_time_s, duration_s, slot_s);
        self.con_index.resolve_slots(&hops)?;
        Ok((footprint, hops))
    }

    /// Answers a single-location query as a batch of one; see
    /// [`ReachabilityEngine::try_s_query`] for the error contract.
    pub(crate) fn s_query(
        &self,
        query: &SQuery,
        algorithm: Algorithm,
    ) -> Result<QueryOutcome, QueryError> {
        let mut answers = self.s_queries(&[(*query, algorithm)]);
        answers.pop().expect("one answer per query").outcome
    }

    /// Answers a batch of s-queries, in input order. SQMB+TBS members that
    /// share a start segment and a hop-slot sequence share one bounding
    /// pass; ES members run alone. Every answer is the one its query gets
    /// alone, bit for bit (see [`crate::serve`]), with the same counts; a
    /// member's `wall_time` is its own resolve, bounding and verification,
    /// not the time it waited behind other members.
    pub(crate) fn s_queries(&self, queries: &[(SQuery, Algorithm)]) -> Vec<BatchAnswer> {
        let mut answers: Vec<Option<BatchAnswer>> = queries.iter().map(|_| None).collect();
        let mut groups: Vec<Group<'a, P>> = Vec::new();
        for (index, (query, algorithm)) in queries.iter().enumerate() {
            answers[index] = query
                .validate()
                .and_then(|()| locate(self.network, &query.location, 0))
                .and_then(|start| match algorithm {
                    Algorithm::ExhaustiveSearch => self.exhaustive(query, start).map(Some),
                    // Answered with its group below.
                    Algorithm::SqmbTbs => {
                        self.admit(index, query, start, &mut groups).map(|()| None)
                    }
                })
                .unwrap_or_else(|err| Some(BatchAnswer::failed(err)));
        }
        for group in groups {
            self.bound_and_verify(queries, group, &mut answers);
        }
        answers
            .into_iter()
            .map(|answer| answer.expect("every query answered"))
            .collect()
    }

    /// Answers an ES query from `start`. It bounds nothing, so its
    /// footprint's region is "any segment".
    fn exhaustive(&self, query: &SQuery, start: SegmentId) -> Result<BatchAnswer, QueryError> {
        let io_before = self.postings.io_snapshot();
        let t0 = Instant::now();
        let (footprint, _) = self.resolve(query.start_time_s, query.duration_s, false)?;
        let out = exhaustive_search(self.network, self.postings, query, start)?;
        let stats = QueryStats {
            wall_time: t0.elapsed(),
            bounding_time: out.expansion_time,
            verify_time: out.verify_time,
            io: self.postings.io_snapshot().delta_since(&io_before),
            segments_verified: out.verifications,
            segments_visited: out.visited,
            view_pairs_walked: out.view_pairs_walked,
            ..QueryStats::default()
        };
        Ok(BatchAnswer {
            outcome: Ok(QueryOutcome {
                region: out.region,
                stats,
            }),
            footprint,
            shared_bounding: false,
        })
    }

    /// Resolves an SQMB+TBS query from `start`, puts it into its group and
    /// builds its core, or takes the group's core for its `(T, L)`. The
    /// core comes before the bounds: it decides whether the Far expansion
    /// is needed at all.
    fn admit(
        &self,
        index: usize,
        query: &SQuery,
        start: SegmentId,
        groups: &mut Vec<Group<'a, P>>,
    ) -> Result<(), QueryError> {
        let (t, l) = (query.start_time_s, query.duration_s);
        let io_before = self.postings.io_snapshot();
        let began = Instant::now();
        let (footprint, hop_slots) = self.resolve(t, l, true)?;
        let resolve_time = began.elapsed();
        let same = |g: &Group<'a, P>| g.start == start && g.hop_slots == hop_slots;
        let group = match groups.iter().position(same) {
            Some(g) => &mut groups[g],
            None => {
                groups.push(Group {
                    start,
                    hop_slots,
                    cores: Vec::new(),
                    members: Vec::new(),
                });
                groups.last_mut().expect("just pushed")
            }
        };
        let core = match group.cores.iter().position(|(key, _)| *key == (t, l)) {
            Some(core) => core,
            None => {
                let core = VerifierCore::new(self.postings, start, t, l)?;
                group.cores.push(((t, l), core));
                group.cores.len() - 1
            }
        };
        group.members.push(Member {
            index,
            core,
            footprint,
            resolve_time,
            core_time: began.elapsed() - resolve_time,
            io: self.postings.io_snapshot().delta_since(&io_before),
        });
        Ok(())
    }

    /// Bounds `group` once and verifies each member against it with the
    /// trace back search. The Far expansion runs only when some member can
    /// pass; a decided member verifies against the minimum region alone,
    /// as its query does alone, so its annulus is empty and it reads
    /// nothing more. Each member's footprint takes its bounds' maximum
    /// region, moved to the last member that uses it and copied before.
    fn bound_and_verify(
        &self,
        queries: &[(SQuery, Algorithm)],
        group: Group<'a, P>,
        answers: &mut [Option<BatchAnswer>],
    ) {
        let Some(leader) = group.members.first() else {
            return;
        };
        let (t, l) = (
            queries[leader.index].0.start_time_s,
            queries[leader.index].0.duration_s,
        );
        let decided = |m: &Member| group.cores[m.core].1.decided(queries[m.index].0.prob);
        let mut full_left = group.members.iter().filter(|m| !decided(m)).count();
        let mut min_left = group.members.len() - full_left;

        let t_bound = Instant::now();
        let num_segments = self.network.num_segments();
        let mut full =
            (full_left > 0).then(|| sqmb(self.con_index, num_segments, group.start, t, l));
        let mut min_only = (min_left > 0).then(|| match &full {
            Some(full) => BoundingRegions::min_only(full.min_region.clone()),
            None => sqmb_min_only(self.con_index, group.start, t, l),
        });
        let bounding_time = t_bound.elapsed();
        let shared_bounding = group.members.len() > 1;

        for member in &group.members {
            let (bounds, left) = if decided(member) {
                (&mut min_only, &mut min_left)
            } else {
                (&mut full, &mut full_left)
            };
            let bounds = bounds.as_mut().expect("bounds for every member");
            *left -= 1;
            let query = &queries[member.index].0;
            let io_before = self.postings.io_snapshot();
            let t_verify = Instant::now();
            let core = &group.cores[member.core].1;
            answers[member.index] = Some(
                match trace_back_search(self.network, core, bounds, query.prob) {
                    Ok(out) => {
                        let verify_time = member.core_time + t_verify.elapsed();
                        let stats = QueryStats {
                            wall_time: member.resolve_time + bounding_time + verify_time,
                            bounding_time,
                            verify_time,
                            io: member.io + self.postings.io_snapshot().delta_since(&io_before),
                            segments_verified: out.verifications,
                            max_bounding_size: bounds.max_region.len(),
                            min_bounding_size: bounds.min_region.len(),
                            segments_visited: out.visited,
                            view_pairs_walked: out.view_pairs_walked,
                        };
                        let max_region = if *left == 0 {
                            std::mem::take(&mut bounds.max_region)
                        } else {
                            bounds.max_region.clone()
                        };
                        BatchAnswer {
                            outcome: Ok(QueryOutcome {
                                region: out.region,
                                stats,
                            }),
                            footprint: ReadFootprint {
                                max_region,
                                ..member.footprint.clone()
                            },
                            shared_bounding,
                        }
                    }
                    Err(err) => BatchAnswer::failed(err.into()),
                },
            );
        }
    }

    /// Answers a multi-location query; see
    /// [`ReachabilityEngine::try_m_query`] for the algorithm split and the
    /// error contract.
    pub(crate) fn m_query(
        &self,
        query: &MQuery,
        algorithm: MQueryAlgorithm,
    ) -> Result<QueryOutcome, QueryError> {
        query.validate()?;
        match algorithm {
            MQueryAlgorithm::RepeatedSQuery => {
                let mut region = ReachableRegion::empty();
                let mut stats = QueryStats::default();
                for i in 0..query.locations.len() {
                    let outcome = self
                        .s_query(&query.sub_query(i), Algorithm::SqmbTbs)
                        .map_err(|e| match e {
                            // Attribute an off-network location to its m-query index.
                            QueryError::LocationOffNetwork { location, .. } => {
                                QueryError::LocationOffNetwork { index: i, location }
                            }
                            other => other,
                        })?;
                    region = region.union(self.network, &outcome.region);
                    stats = stats.merge(&outcome.stats);
                }
                Ok(QueryOutcome { region, stats })
            }
            MQueryAlgorithm::MqmbTbs => {
                let starts: Vec<SegmentId> = query
                    .locations
                    .iter()
                    .enumerate()
                    .map(|(i, p)| locate(self.network, p, i))
                    .collect::<Result<_, _>>()?;
                let io_before = self.postings.io_snapshot();
                let t0 = Instant::now();
                self.resolve(query.start_time_s, query.duration_s, true)?;
                let bounds = mqmb(
                    self.con_index,
                    self.network,
                    &starts,
                    &query.locations,
                    query.start_time_s,
                    query.duration_s,
                );
                let bounding_time = t0.elapsed();
                let out = mqmb_trace_back(
                    self.network,
                    self.postings,
                    &bounds,
                    &starts,
                    query.start_time_s,
                    query.duration_s,
                    query.prob,
                )?;
                let wall_time = t0.elapsed();
                Ok(QueryOutcome {
                    region: out.region,
                    stats: QueryStats {
                        wall_time,
                        bounding_time,
                        verify_time: out.setup_time + out.verify_time,
                        io: self.postings.io_snapshot().delta_since(&io_before),
                        segments_verified: out.verifications,
                        max_bounding_size: bounds.max_region.len(),
                        min_bounding_size: bounds.min_region.len(),
                        segments_visited: out.visited,
                        view_pairs_walked: out.view_pairs_walked,
                    },
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn footprint(window: SlotWindow, max_region: Vec<u32>) -> ReadFootprint {
        ReadFootprint {
            max_region: max_region.into_iter().map(SegmentId).collect(),
            ..ReadFootprint::of_window(&window, 300)
        }
    }

    fn touch(posting_pairs: Vec<(u32, u32)>, speed_slots: Vec<u32>) -> IngestTouch {
        IngestTouch {
            posting_pairs,
            speed_slots,
            num_days_raised: false,
        }
    }

    /// The read window is the union the bounding, the verifier's T0 window
    /// and the probability window read, wrapped into the day, across
    /// midnight, for unaligned starts, durations under one slot and over a
    /// day, and a slot length that does not divide the day.
    #[test]
    fn the_read_window_holds_the_hop_t0_and_probability_slots() {
        for slot_s in [300u32, 420, 600] {
            let slots_per_day = streach_traj::SECONDS_PER_DAY.div_ceil(slot_s);
            for t in [0, 7, 9 * 3600, 9 * 3600 + 299, 23 * 3600 + 3300, 86_399] {
                for l in [1, 299, 300, 600, 901, 7200, 2 * 86_400] {
                    let mut want: Vec<u32> = hop_slots(t, l, slot_s)
                        .into_iter()
                        .map(|s| s % slots_per_day)
                        .chain(slots_overlapping(t, t + slot_s, slot_s))
                        .chain(slots_overlapping(t, t + l, slot_s))
                        .collect();
                    want.sort_unstable();
                    want.dedup();
                    let mut got: Vec<u32> = read_window(t, l, slot_s).collect();
                    got.sort_unstable();
                    assert_eq!(got, want, "slot_s {slot_s}, T {t}, L {l}");
                }
            }
        }
    }

    /// A footprint reads exactly the slots its window yields, across
    /// midnight and for a slot length that does not divide the day (its
    /// last slot is short).
    #[test]
    fn a_footprint_reads_exactly_its_window() {
        for slot_s in [300u32, 420, 3600] {
            let slots_per_day = streach_traj::SECONDS_PER_DAY.div_ceil(slot_s);
            for (start, len) in [
                (0, 1),
                (9 * 3600 + 7, 600),
                (23 * 3600 + 3300, 900),
                (86_399, 2),
                (600, 3 * 86_400),
                (500, 0),
            ] {
                let window = slots_overlapping(start, start + len, slot_s);
                let footprint = ReadFootprint::of_window(&window, slot_s);
                let yielded: Vec<u32> = window.collect();
                for slot in 0..slots_per_day {
                    assert_eq!(
                        footprint.read_slot(slot),
                        yielded.contains(&slot),
                        "slot_s {slot_s}, [{start}, +{len}), slot {slot}"
                    );
                }
            }
        }
    }

    #[test]
    fn footprint_touch_intersection() {
        let fp = footprint(slots_overlapping(3 * 300, 6 * 300, 300), vec![10, 20]);
        // Day raise always touches.
        assert!(fp.touched_by(&IngestTouch {
            num_days_raised: true,
            ..touch(vec![], vec![])
        }));
        // Speed slot inside the read window touches regardless of segment.
        assert!(fp.touched_by(&touch(vec![], vec![4])));
        // Posting pair needs slot AND segment inside the max region.
        assert!(fp.touched_by(&touch(vec![(4, 20)], vec![])));
        assert!(!fp.touched_by(&touch(vec![(4, 30)], vec![])));
        assert!(!fp.touched_by(&touch(vec![(7, 20)], vec![6])));
        // The empty max region is the any-segment sentinel (ES).
        let es = footprint(slots_overlapping(3 * 300, 4 * 300, 300), vec![]);
        assert!(es.touched_by(&touch(vec![(3, 999)], vec![])));
        // A failed answer's footprint read nothing.
        assert!(!ReadFootprint::default().touched_by(&touch(vec![(3, 999)], vec![3])));
    }
}
