//! The one query procedure every tier runs.
//!
//! An SQMB+TBS s-query is answered in five steps:
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
//! The exhaustive search (ES) is the baseline that skips the bounding; it
//! too builds the core first and skips its network expansion when decided.
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
use crate::query::es::exhaustive_search;
use crate::query::mqmb::{mqmb, mqmb_trace_back};
use crate::query::sqmb::{hop_slots, sqmb, sqmb_min_only, BoundingRegions};
use crate::query::tbs::trace_back_search;
use crate::query::verifier::{PostingSource, VerifierCore};
use crate::query::{Algorithm, MQuery, MQueryAlgorithm, QueryError, QueryOutcome, SQuery};
use crate::region::ReachableRegion;
use crate::stats::QueryStats;
use crate::time::slots_overlapping;

/// One per-query result of a coalesced batch: the caller's outcome plus the
/// bounding context a result cache needs for precise invalidation.
#[derive(Debug, Clone)]
pub struct CoalescedAnswer {
    /// The per-caller outcome; failures are this caller's typed error.
    pub outcome: Result<QueryOutcome, QueryError>,
    /// This answer's maximum bounding region (empty on error): the group's,
    /// or the minimum region when the start segment decided this query.
    /// Verification never reads outside it, so posting invalidation can be
    /// scoped to it.
    pub max_region: Vec<SegmentId>,
    /// Whether the bounding pass was shared with another query of the batch.
    pub shared_bounding: bool,
}

impl CoalescedAnswer {
    fn failed(err: QueryError) -> Self {
        Self {
            outcome: Err(err),
            max_region: Vec::new(),
            shared_bounding: false,
        }
    }
}

/// Maps a query location to its start road segment: the nearest segment of
/// `network`, unless it lies farther than
/// [`ReachabilityEngine::MAX_MATCH_DISTANCE_M`] (a request from outside the
/// serviced area must not silently snap to a boundary segment). `index`
/// names the location in an m-query's [`QueryError::LocationOffNetwork`].
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

/// Everything a query reads, borrowed: the road network, the Con-Index that
/// bounds it and the posting source that verifies it.
pub(crate) struct QueryContext<'a, P: PostingSource + ?Sized> {
    pub(crate) network: &'a RoadNetwork,
    pub(crate) con_index: &'a ConIndex,
    pub(crate) postings: &'a P,
}

impl<P: PostingSource + ?Sized> QueryContext<'_, P> {
    /// Resolves what a query over `[T, T + L)` will read, before it bounds
    /// anything: the posting source's structures for the slots of its
    /// probability window (which covers the start segment's
    /// `[T, T + Δt)` as well) and, when it bounds over the Con-Index, the
    /// speed rows of its hop slots. A slot that cannot be decoded fails
    /// the query here, typed, decided or not; afterwards the bounding and
    /// verification read only resolved slots, so they stay infallible
    /// about them.
    fn resolve(&self, start_time_s: u32, duration_s: u32, bounds: bool) -> Result<(), QueryError> {
        let slot_s = self.con_index.slot_s();
        let end = start_time_s.saturating_add(duration_s.max(slot_s));
        self.postings
            .resolve(slots_overlapping(start_time_s, end, slot_s))?;
        if bounds {
            self.con_index
                .resolve_slots(&hop_slots(start_time_s, duration_s, slot_s))?;
        }
        Ok(())
    }

    /// Answers a single-location query; see
    /// [`ReachabilityEngine::try_s_query`] for the error contract.
    pub(crate) fn s_query(
        &self,
        query: &SQuery,
        algorithm: Algorithm,
    ) -> Result<QueryOutcome, QueryError> {
        query.validate()?;
        let start = locate(self.network, &query.location, 0)?;

        let io_before = self.postings.io_snapshot();
        let t0 = Instant::now();
        let bounds = algorithm == Algorithm::SqmbTbs;
        self.resolve(query.start_time_s, query.duration_s, bounds)?;
        let (region, mut stats) = match algorithm {
            Algorithm::ExhaustiveSearch => {
                let out = exhaustive_search(self.network, self.postings, query, start)?;
                let stats = QueryStats {
                    bounding_time: out.expansion_time,
                    verify_time: out.verify_time,
                    segments_verified: out.verifications,
                    segments_visited: out.visited,
                    ..QueryStats::default()
                };
                (out.region, stats)
            }
            Algorithm::SqmbTbs => {
                // The core first: it decides whether the Far expansion is
                // needed at all. verify_time covers core construction (the
                // start segment's posting reads) plus the annulus sweep,
                // mirroring the setup_time + verify_time sum reported for
                // m-queries; bounding_time covers the expansions only.
                let core =
                    VerifierCore::new(self.postings, start, query.start_time_s, query.duration_s)?;
                let core_time = t0.elapsed();
                let tb = Instant::now();
                let bounds = self.sqmb_bounds(start, query, core.decided(query.prob));
                let bounding_time = tb.elapsed();
                let tv = Instant::now();
                let out = trace_back_search(self.network, &core, &bounds, query.prob)?;
                let stats = QueryStats {
                    bounding_time,
                    verify_time: core_time + tv.elapsed(),
                    segments_verified: out.verifications,
                    max_bounding_size: bounds.max_region.len(),
                    min_bounding_size: bounds.min_region.len(),
                    segments_visited: out.visited,
                    ..QueryStats::default()
                };
                (out.region, stats)
            }
        };
        stats.wall_time = t0.elapsed();
        stats.io = self.postings.io_snapshot().delta_since(&io_before);
        Ok(QueryOutcome { region, stats })
    }

    /// The SQMB bounds of an s-query from `start`: the minimum region alone
    /// when the start segment `decided` the query, both regions otherwise.
    fn sqmb_bounds(&self, start: SegmentId, query: &SQuery, decided: bool) -> BoundingRegions {
        let (t, l) = (query.start_time_s, query.duration_s);
        if decided {
            sqmb_min_only(self.con_index, start, t, l)
        } else {
            sqmb(self.con_index, self.network.num_segments(), start, t, l)
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
                    },
                })
            }
        }
    }

    /// Answers a batch of SQMB+TBS s-queries with one shared bounding pass
    /// per (origin segment, hop-slot sequence) group; results are in input
    /// order and bit-identical to [`QueryContext::s_query`] with
    /// [`Algorithm::SqmbTbs`] per query (see [`crate::serve`]).
    pub(crate) fn s_query_coalesced(&self, queries: &[SQuery]) -> Vec<CoalescedAnswer> {
        let slot_s = self.con_index.slot_s();
        let mut answers: Vec<Option<CoalescedAnswer>> = queries.iter().map(|_| None).collect();

        // Group by (origin segment, exact hop-slot sequence). The sequence —
        // not just the first slot — is what the bounding expansion reads, so
        // equality of the sequence is exactly the bit-identity condition.
        struct Group {
            segment: SegmentId,
            hop_slots: Vec<u32>,
            members: Vec<usize>,
        }
        let mut groups: Vec<Group> = Vec::new();
        for (i, q) in queries.iter().enumerate() {
            let segment = match q
                .validate()
                .and_then(|()| locate(self.network, &q.location, 0))
                .and_then(|segment| {
                    self.resolve(q.start_time_s, q.duration_s, true)?;
                    Ok(segment)
                }) {
                Ok(segment) => segment,
                Err(err) => {
                    answers[i] = Some(CoalescedAnswer::failed(err));
                    continue;
                }
            };
            let hop_slots = hop_slots(q.start_time_s, q.duration_s, slot_s);
            match groups
                .iter_mut()
                .find(|g| g.segment == segment && g.hop_slots == hop_slots)
            {
                Some(g) => g.members.push(i),
                None => groups.push(Group {
                    segment,
                    hop_slots,
                    members: vec![i],
                }),
            }
        }

        for group in &groups {
            // Every member's core first: one per distinct (T, L), shared
            // across probability thresholds; errors stay per caller. Each
            // member keeps the time and I/O of the core it built.
            let mut cores: Vec<((u32, u32), VerifierCore<'_, P>)> = Vec::new();
            let mut ready: Vec<(usize, usize, Duration, IoStatsSnapshot)> = Vec::new();
            for &i in &group.members {
                let q = &queries[i];
                let key = (q.start_time_s, q.duration_s);
                let io_before = self.postings.io_snapshot();
                let t_core = Instant::now();
                let core = match cores.iter().position(|(k, _)| *k == key) {
                    Some(core) => core,
                    None => match VerifierCore::new(self.postings, group.segment, key.0, key.1) {
                        Ok(core) => {
                            cores.push((key, core));
                            cores.len() - 1
                        }
                        Err(err) => {
                            answers[i] = Some(CoalescedAnswer::failed(err.into()));
                            continue;
                        }
                    },
                };
                let core_io = self.postings.io_snapshot().delta_since(&io_before);
                ready.push((i, core, t_core.elapsed(), core_io));
            }
            let Some(&(leader, ..)) = ready.first() else {
                continue;
            };
            let decided = |i: usize, core: usize| cores[core].1.decided(queries[i].prob);

            // One SQMB bounding pass for the whole group: every member shares
            // the hop-slot sequence, so these bounds equal each member's
            // serial bounds. The Far expansion runs only when some member
            // can pass; a decided member verifies against the minimum region
            // alone, exactly as its serial query does.
            let t_bound = Instant::now();
            let undecided = ready.iter().any(|&(i, core, ..)| !decided(i, core));
            let full = undecided.then(|| self.sqmb_bounds(group.segment, &queries[leader], false));
            let min_only = match &full {
                Some(full) => BoundingRegions::min_only(full.min_region.clone()),
                None => self.sqmb_bounds(group.segment, &queries[leader], true),
            };
            let bounding_time = t_bound.elapsed();
            let shared = group.members.len() > 1;

            for (i, core, core_time, core_io) in ready {
                let q = &queries[i];
                let bounds = match &full {
                    Some(full) if !decided(i, core) => full,
                    _ => &min_only,
                };
                let io_before = self.postings.io_snapshot();
                let t_verify = Instant::now();
                answers[i] = Some(
                    match trace_back_search(self.network, &cores[core].1, bounds, q.prob) {
                        Ok(out) => {
                            let verify_time = core_time + t_verify.elapsed();
                            let io = core_io + self.postings.io_snapshot().delta_since(&io_before);
                            CoalescedAnswer {
                                outcome: Ok(QueryOutcome {
                                    region: out.region,
                                    stats: QueryStats {
                                        wall_time: bounding_time + verify_time,
                                        bounding_time,
                                        verify_time,
                                        io,
                                        segments_verified: out.verifications,
                                        max_bounding_size: bounds.max_region.len(),
                                        min_bounding_size: bounds.min_region.len(),
                                        segments_visited: out.visited,
                                    },
                                }),
                                max_region: bounds.max_region.clone(),
                                shared_bounding: shared,
                            }
                        }
                        Err(err) => CoalescedAnswer::failed(err.into()),
                    },
                );
            }
        }

        answers
            .into_iter()
            .map(|a| a.expect("every query answered"))
            .collect()
    }
}
