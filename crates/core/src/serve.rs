//! Serving front end: cross-user query coalescing and an ingest-invalidated
//! result cache over a [`ReachabilityEngine`] or a [`ShardedEngine`].
//!
//! The paper's MQMB algorithm is multi-query batching, but as a library API
//! every caller batches only its own queries. A [`QueryServer`] promotes
//! batching to a *server policy*: callers submit s-queries into a bounded
//! queue, worker threads drain the queue in batches, and a **coalescer**
//! folds concurrent queries that share (origin segment, slot window) into
//! one MQMB bounding pass before fanning verification out per caller —
//! concurrent users sharing an origin and time window pay the bounding
//! phase once instead of once each.
//!
//! # Bit-identity
//!
//! Coalescing must not change answers. Two SQMB/MQMB facts make that easy:
//!
//! * the bounding expansion depends only on the start segment and the
//!   **hop-slot sequence** `slot_of(T + k·Δt)` for `k < num_hops(L)`, so
//!   queries grouped by (start segment, exact hop-slot sequence) share one
//!   bounding region that equals each member's serial `sqmb` result, and
//! * with a single start, `mqmb` reduces to `sqmb` exactly (pinned by
//!   `single_location_mqmb_equals_sqmb`), so the group's one bounding pass
//!   is the paper's MQMB with one location.
//!
//! Verification then runs per caller with its exact `(T, L, Prob)` — a
//! [`VerifierCore`] per distinct `(T, L)`, shared across probability
//! thresholds — so every answer is bit-identical to serial
//! [`ReachabilityEngine::try_s_query`], and per-caller failures surface as
//! that caller's typed [`QueryError`]. `tests/serving_equivalence.rs` and
//! the `--serving` bench gate pin this.
//!
//! # Result cache and why it is never stale
//!
//! The cache key is the exact query: (origin segment, `start_time_s`,
//! `duration_s`, probability bits, algorithm). Anything coarser is unsound:
//! the verifier's T0 window `slots_overlapping(T, T+Δt)` spans *two* slots
//! when `T` is not slot-aligned, so two queries in the same start slot can
//! legitimately differ.
//!
//! Invalidation is driven by [`IngestTouch`], delivered under the engine's
//! ingest lock after every applied batch (live, replayed or replicated):
//!
//! * **Posting pairs** — a touched (slot, segment) kills every entry whose
//!   slot set contains the slot *and* whose maximum bounding region
//!   contains the segment: postings only affect verification, and
//!   verification only reads segments inside the max region. ES entries
//!   keep an empty region sentinel and match any segment.
//! * **Speed slots** — a slot whose Con-Index statistics moved kills every
//!   entry whose slot set contains it, regardless of segment: speed stats
//!   feed the bounding expansion, which may reach any segment on re-run.
//! * **Day-count raise** — flushes the whole cache: the day count is every
//!   probability's denominator.
//!
//! An entry's slot set is the union of its bounding hop slots, the
//! verifier's T0 window and its probability window — every slot the answer
//! reads. Inserts are **epoch-guarded**: a worker snapshots the cache epoch
//! before computing and the insert is dropped if any invalidation ran in
//! between, so an answer computed from pre-ingest state can never be cached
//! over a newer invalidation. Compaction needs no hook — it is
//! answer-preserving by construction.
//!
//! # Threads
//!
//! A submission whose answer is cached is served on the submitting thread
//! and never enters the queue. Everything else goes to the workers: the
//! server runs `workers` long-lived threads; each drained batch's
//! verification stage fans out on `streach_par` inside
//! [`trace_back_search`] exactly like a serial query, so a single large
//! query still uses all cores while independent groups proceed on separate
//! workers.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Instant;

use streach_geo::GeoPoint;
use streach_roadnet::{RoadNetwork, SegmentId};

use crate::con_index::ConIndex;
use crate::engine::ReachabilityEngine;
use crate::ingest::{IngestObserver, IngestTouch};
use crate::query::mqmb::mqmb;
use crate::query::sqmb::{hop_slots, BoundingRegions};
use crate::query::tbs::trace_back_search;
use crate::query::verifier::{PostingSource, VerifierCore};
use crate::query::{Algorithm, QueryError, QueryOutcome, SQuery};
use crate::sharded::ShardedEngine;
use crate::stats::QueryStats;
use crate::time::slots_overlapping;

/// Tuning knobs of a [`QueryServer`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads draining the submission queue. Each worker's
    /// verification stage additionally fans out on `streach_par`.
    pub workers: usize,
    /// Bound of the submission queue; [`QueryServer::submit`] blocks while
    /// the queue is full (backpressure, counted into open-loop latency).
    pub queue_depth: usize,
    /// Maximum requests one worker drains per pass — the coalescing window.
    pub max_batch: usize,
    /// Fold concurrent s-queries sharing (origin segment, slot window)
    /// into one bounding pass. Off, every request runs the serial path.
    pub coalesce: bool,
    /// Result-cache capacity in entries; `0` disables the cache.
    pub cache_capacity: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            workers: 2,
            queue_depth: 256,
            max_batch: 64,
            coalesce: true,
            cache_capacity: 4096,
        }
    }
}

/// Counters describing what a [`QueryServer`] did so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Queries accepted into the submission queue.
    pub submitted: u64,
    /// Queries answered (from cache or computed).
    pub completed: u64,
    /// Queries answered by a bounding pass shared with at least one other
    /// concurrent query.
    pub coalesced: u64,
    /// Cache lookups that returned a stored answer.
    pub cache_hits: u64,
    /// Cache lookups that missed (including with the cache disabled).
    pub cache_misses: u64,
    /// Entries removed by targeted (slot, segment) invalidation.
    pub cache_invalidated: u64,
    /// Whole-cache flushes caused by a day-count raise.
    pub cache_flushes: u64,
}

/// One per-query result of a coalesced batch: the caller's outcome plus the
/// bounding context a result cache needs for precise invalidation.
#[derive(Debug, Clone)]
pub struct CoalescedAnswer {
    /// The per-caller outcome; failures are this caller's typed error.
    pub outcome: Result<QueryOutcome, QueryError>,
    /// The group's maximum bounding region (empty on error). Verification
    /// never reads outside it, so posting invalidation can be scoped to it.
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

/// Answers a batch of SQMB+TBS s-queries with one shared bounding pass per
/// (origin segment, hop-slot sequence) group; results are in input order
/// and bit-identical to the serial per-query path (see the module docs).
pub(crate) fn answer_coalesced<I: PostingSource + ?Sized>(
    network: &RoadNetwork,
    con_index: &ConIndex,
    postings: &I,
    locate: &dyn Fn(&GeoPoint) -> Result<SegmentId, QueryError>,
    queries: &[SQuery],
) -> Vec<CoalescedAnswer> {
    let slot_s = con_index.slot_s();
    let mut answers: Vec<Option<CoalescedAnswer>> = queries.iter().map(|_| None).collect();

    // Group by (origin segment, exact hop-slot sequence). The sequence —
    // not just the first slot — is what the bounding expansion reads, so
    // equality of the sequence is exactly the bit-identity condition.
    struct Group {
        segment: SegmentId,
        hop_slots: Vec<u32>,
        location: GeoPoint,
        members: Vec<usize>,
    }
    let mut groups: Vec<Group> = Vec::new();
    for (i, q) in queries.iter().enumerate() {
        let segment = match q.validate().and_then(|()| locate(&q.location)) {
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
                location: q.location,
                members: vec![i],
            }),
        }
    }

    for group in &groups {
        // One MQMB bounding pass for the whole group: with a single start
        // mqmb equals sqmb, and every member shares the hop-slot sequence,
        // so these bounds equal each member's serial sqmb bounds.
        let leader = &queries[group.members[0]];
        let t_bound = Instant::now();
        let mb = mqmb(
            con_index,
            network,
            std::slice::from_ref(&group.segment),
            std::slice::from_ref(&group.location),
            leader.start_time_s,
            leader.duration_s,
        );
        let bounds = BoundingRegions {
            max_region: mb.max_region,
            min_region: mb.min_region,
        };
        let bounding_time = t_bound.elapsed();
        let shared = group.members.len() > 1;

        // Fan verification out per caller: one core per distinct (T, L),
        // shared across probability thresholds; errors stay per caller.
        let mut cores: Vec<((u32, u32), VerifierCore<'_, I>)> = Vec::new();
        for &i in &group.members {
            let q = &queries[i];
            let io_before = postings.io_stats().snapshot();
            let t_verify = Instant::now();
            let key = (q.start_time_s, q.duration_s);
            if !cores.iter().any(|(k, _)| *k == key) {
                match VerifierCore::new(postings, group.segment, q.start_time_s, q.duration_s) {
                    Ok(core) => cores.push((key, core)),
                    Err(err) => {
                        answers[i] = Some(CoalescedAnswer::failed(err.into()));
                        continue;
                    }
                }
            }
            let core = &cores.iter().find(|(k, _)| *k == key).expect("just built").1;
            answers[i] = Some(match trace_back_search(network, core, &bounds, q.prob) {
                Ok(out) => {
                    let verify_time = t_verify.elapsed();
                    let io_after = postings.io_stats().snapshot();
                    CoalescedAnswer {
                        outcome: Ok(QueryOutcome {
                            region: out.region,
                            stats: QueryStats {
                                wall_time: bounding_time + verify_time,
                                bounding_time,
                                verify_time,
                                io: io_after.delta_since(&io_before),
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
            });
        }
    }

    answers
        .into_iter()
        .map(|a| a.expect("every query answered"))
        .collect()
}

/// A query target a [`QueryServer`] can front: the single engine or the
/// sharded scatter-gather router.
pub trait ServeBackend: Send + Sync + 'static {
    /// Δt slot length of the backing index.
    fn slot_s(&self) -> u32;
    /// Snaps a query location to its road segment (the cache-key origin).
    fn try_locate(&self, location: &GeoPoint) -> Result<SegmentId, QueryError>;
    /// The serial (uncoalesced) s-query path.
    fn try_s_query(&self, query: &SQuery, algorithm: Algorithm)
        -> Result<QueryOutcome, QueryError>;
    /// The batched SQMB path sharing one bounding pass per group.
    fn try_s_query_coalesced(&self, queries: &[SQuery]) -> Vec<CoalescedAnswer>;
    /// Registers an ingest observer on every underlying leader engine.
    fn observe_ingest(&self, observer: &Arc<IngestObserver>);
}

impl ServeBackend for ReachabilityEngine {
    fn slot_s(&self) -> u32 {
        self.st_index().slot_s()
    }

    fn try_locate(&self, location: &GeoPoint) -> Result<SegmentId, QueryError> {
        ReachabilityEngine::try_locate(self, location)
    }

    fn try_s_query(
        &self,
        query: &SQuery,
        algorithm: Algorithm,
    ) -> Result<QueryOutcome, QueryError> {
        ReachabilityEngine::try_s_query(self, query, algorithm)
    }

    fn try_s_query_coalesced(&self, queries: &[SQuery]) -> Vec<CoalescedAnswer> {
        ReachabilityEngine::try_s_query_coalesced(self, queries)
    }

    fn observe_ingest(&self, observer: &Arc<IngestObserver>) {
        ReachabilityEngine::observe_ingest(self, observer);
    }
}

impl ServeBackend for ShardedEngine {
    fn slot_s(&self) -> u32 {
        ShardedEngine::slot_s(self)
    }

    fn try_locate(&self, location: &GeoPoint) -> Result<SegmentId, QueryError> {
        ShardedEngine::try_locate(self, location)
    }

    fn try_s_query(
        &self,
        query: &SQuery,
        algorithm: Algorithm,
    ) -> Result<QueryOutcome, QueryError> {
        ShardedEngine::try_s_query(self, query, algorithm)
    }

    fn try_s_query_coalesced(&self, queries: &[SQuery]) -> Vec<CoalescedAnswer> {
        ShardedEngine::try_s_query_coalesced(self, queries)
    }

    fn observe_ingest(&self, observer: &Arc<IngestObserver>) {
        ShardedEngine::observe_ingest(self, observer);
    }
}

// ---------------------------------------------------------------------------
// Result cache
// ---------------------------------------------------------------------------

/// The exact-parameter cache key; see the module docs for why nothing
/// coarser is sound.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
struct CacheKey {
    segment: u32,
    start_time_s: u32,
    duration_s: u32,
    prob_bits: u64,
    algorithm: Algorithm,
}

/// The recorded read footprint of one answered s-query — everything an
/// [`IngestTouch`] needs to be intersected against to decide whether the
/// answer may have changed. Shared by the result cache (invalidation) and
/// by standing subscriptions ([`crate::subscribe`], wakeup filtering).
#[derive(Debug, Clone, Default)]
pub(crate) struct ReadFootprint {
    /// Every wrapped day slot the answer read (bounding hops + T0 +
    /// probability window), sorted — the slot overlap test.
    pub slots: Vec<u32>,
    /// Maximum bounding region for segment-scoped posting invalidation,
    /// sorted; empty means "any segment" (ES reads wherever its expansion
    /// goes, so no sound segment scoping exists for it).
    pub max_region: Vec<SegmentId>,
}

impl ReadFootprint {
    /// The footprint of query `q` answered under bounding region
    /// `max_region` (already sorted, as `BoundingRegions` produces it).
    pub(crate) fn record(q: &SQuery, slot_s: u32, max_region: Vec<SegmentId>) -> Self {
        Self {
            slots: query_slots(q, slot_s),
            max_region,
        }
    }

    /// Whether `touch` may have changed an answer with this footprint:
    /// a day raise always does; a moved speed slot the answer read does
    /// (speed feeds bounding, which may reach any segment on re-run); a
    /// touched posting pair does when its slot was read *and* its segment
    /// lies inside the maximum bounding region (verification never reads
    /// outside it).
    pub(crate) fn touched_by(&self, touch: &IngestTouch) -> bool {
        if touch.num_days_raised {
            return true;
        }
        if touch
            .speed_slots
            .iter()
            .any(|slot| self.slots.binary_search(slot).is_ok())
        {
            return true;
        }
        touch.posting_pairs.iter().any(|&(slot, segment)| {
            self.slots.binary_search(&slot).is_ok()
                && (self.max_region.is_empty()
                    || self.max_region.binary_search(&SegmentId(segment)).is_ok())
        })
    }
}

struct CacheEntry {
    outcome: QueryOutcome,
    /// What the answer read; an [`IngestTouch`] intersecting it kills the
    /// entry.
    footprint: ReadFootprint,
    /// Lookups this entry served.
    hits: u64,
    /// Cache-clock stamp of the last hit (the insert stamp until then) —
    /// the eviction order: least-recently-hit goes first.
    last_hit: u64,
}

impl CacheEntry {
    fn new(outcome: QueryOutcome, footprint: ReadFootprint) -> Self {
        Self {
            outcome,
            footprint,
            hits: 0,
            last_hit: 0,
        }
    }
}

struct CacheState {
    map: HashMap<CacheKey, CacheEntry>,
    /// Bumped by every invalidation; guards inserts computed before it.
    epoch: u64,
    /// Bumped by every lookup hit and insert; stamps `CacheEntry::last_hit`.
    clock: u64,
}

struct ResultCache {
    state: Mutex<CacheState>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    invalidated: AtomicU64,
    flushes: AtomicU64,
}

/// Every day slot query `q` reads: bounding hop slots, the verifier's T0
/// window and the probability window, wrapped into the day grid.
fn query_slots(q: &SQuery, slot_s: u32) -> Vec<u32> {
    let slots_per_day = streach_traj::SECONDS_PER_DAY.div_ceil(slot_s);
    let mut slots = hop_slots(q.start_time_s, q.duration_s, slot_s);
    slots.iter_mut().for_each(|s| *s %= slots_per_day);
    let t0_end = q.start_time_s.saturating_add(slot_s);
    slots.extend(slots_overlapping(q.start_time_s, t0_end, slot_s).map(|s| s % slots_per_day));
    slots.extend(
        slots_overlapping(q.start_time_s, q.end_time_s(), slot_s).map(|s| s % slots_per_day),
    );
    slots.sort_unstable();
    slots.dedup();
    slots
}

impl ResultCache {
    fn new(capacity: usize) -> Self {
        Self {
            state: Mutex::new(CacheState {
                map: HashMap::new(),
                epoch: 0,
                clock: 0,
            }),
            capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            invalidated: AtomicU64::new(0),
            flushes: AtomicU64::new(0),
        }
    }

    fn lock(&self) -> MutexGuard<'_, CacheState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn key_of(query: &SQuery, segment: SegmentId, algorithm: Algorithm) -> CacheKey {
        CacheKey {
            segment: segment.0,
            start_time_s: query.start_time_s,
            duration_s: query.duration_s,
            prob_bits: query.prob.to_bits(),
            algorithm,
        }
    }

    fn epoch(&self) -> u64 {
        self.lock().epoch
    }

    /// A lookup that counts only when it hits: the submit-side probe. A
    /// request it misses goes on to a worker, whose [`ResultCache::get`]
    /// counts the miss once.
    fn probe(&self, key: &CacheKey) -> Option<QueryOutcome> {
        let mut state = self.lock();
        state.clock += 1;
        let stamp = state.clock;
        let entry = state.map.get_mut(key)?;
        entry.hits += 1;
        entry.last_hit = stamp;
        self.hits.fetch_add(1, Ordering::Relaxed);
        Some(entry.outcome.clone())
    }

    fn get(&self, key: &CacheKey) -> Option<QueryOutcome> {
        let hit = self.probe(key);
        if hit.is_none() {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    /// Inserts an answer computed while the cache was at `epoch_at_read`;
    /// dropped when any invalidation ran since — an answer computed from
    /// pre-ingest state must never outlive the ingest's invalidation.
    ///
    /// A full cache evicts the **least-recently-hit** entry: a hot entry
    /// keeps refreshing its stamp on every lookup and survives a flood of
    /// one-shot cold entries, which FIFO would let push it out.
    fn insert(&self, key: CacheKey, mut entry: CacheEntry, epoch_at_read: u64) {
        let mut state = self.lock();
        if state.epoch != epoch_at_read || self.capacity == 0 {
            return;
        }
        state.clock += 1;
        entry.last_hit = state.clock;
        while state.map.len() >= self.capacity && !state.map.contains_key(&key) {
            let coldest = state
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_hit)
                .map(|(k, _)| *k);
            match coldest {
                Some(old) => {
                    state.map.remove(&old);
                }
                None => break,
            }
        }
        state.map.insert(key, entry);
    }

    fn invalidate(&self, touch: &IngestTouch) {
        let mut state = self.lock();
        state.epoch += 1;
        if touch.num_days_raised {
            let dropped = state.map.len() as u64;
            state.map.clear();
            self.invalidated.fetch_add(dropped, Ordering::Relaxed);
            self.flushes.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let before = state.map.len();
        state
            .map
            .retain(|_, entry| !entry.footprint.touched_by(touch));
        self.invalidated
            .fetch_add((before - state.map.len()) as u64, Ordering::Relaxed);
    }
}

// ---------------------------------------------------------------------------
// Submission queue and tickets
// ---------------------------------------------------------------------------

struct Request {
    query: SQuery,
    algorithm: Algorithm,
    /// The key the request caches under, resolved once at submission;
    /// `None` without a cache or for a query that is never cached.
    key: Option<CacheKey>,
    slot: Arc<ResponseSlot>,
}

struct ResponseSlot {
    state: Mutex<Option<(Result<QueryOutcome, QueryError>, Instant)>>,
    done: Condvar,
}

impl ResponseSlot {
    fn new() -> Self {
        Self {
            state: Mutex::new(None),
            done: Condvar::new(),
        }
    }

    fn fulfill(&self, result: Result<QueryOutcome, QueryError>) {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if state.is_none() {
            *state = Some((result, Instant::now()));
            self.done.notify_all();
        }
    }
}

/// Handle to one submitted query; redeem it with [`Ticket::wait`].
pub struct Ticket {
    slot: Arc<ResponseSlot>,
}

impl Ticket {
    /// Blocks until the server answered and returns the caller's outcome.
    pub fn wait(self) -> Result<QueryOutcome, QueryError> {
        self.wait_timed().0
    }

    /// Like [`Ticket::wait`], additionally returning the instant the answer
    /// was produced — open-loop latency harnesses subtract their scheduled
    /// send time from it without blocking a client thread per request.
    pub fn wait_timed(self) -> (Result<QueryOutcome, QueryError>, Instant) {
        let mut state = self.slot.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(answer) = state.take() {
                return answer;
            }
            state = self
                .slot
                .done
                .wait(state)
                .unwrap_or_else(|e| e.into_inner());
        }
    }
}

struct QueueState {
    queue: VecDeque<Request>,
    shutdown: bool,
}

struct ServerInner<B: ServeBackend> {
    backend: Arc<B>,
    config: ServeConfig,
    queue: Mutex<QueueState>,
    not_empty: Condvar,
    not_full: Condvar,
    cache: Option<Arc<ResultCache>>,
    submitted: AtomicU64,
    completed: AtomicU64,
    coalesced: AtomicU64,
}

// ---------------------------------------------------------------------------
// The server
// ---------------------------------------------------------------------------

/// The serving front end; see the module docs for the design.
///
/// Dropping the server shuts it down: queued requests are drained and
/// answered first, then the workers exit and are joined.
pub struct QueryServer<B: ServeBackend> {
    inner: Arc<ServerInner<B>>,
    workers: Vec<std::thread::JoinHandle<()>>,
    /// Keeps the invalidation observer alive exactly as long as the server;
    /// the engine holds it weakly and drops it with us.
    _observer: Option<Arc<IngestObserver>>,
    /// Standing-query manager, spawned lazily on the first `subscribe` so
    /// servers without subscriptions pay no extra thread or observer.
    subscriptions: std::sync::OnceLock<crate::subscribe::SubscriptionManager<B>>,
}

impl<B: ServeBackend> QueryServer<B> {
    /// Starts a server over `backend` and registers its cache-invalidation
    /// observer on the backend's leader engines.
    pub fn start(backend: Arc<B>, config: ServeConfig) -> Self {
        let cache =
            (config.cache_capacity > 0).then(|| Arc::new(ResultCache::new(config.cache_capacity)));
        let workers = config.workers.max(1);
        let inner = Arc::new(ServerInner {
            backend: backend.clone(),
            config,
            queue: Mutex::new(QueueState {
                queue: VecDeque::new(),
                shutdown: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            cache: cache.clone(),
            submitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
        });
        let observer = cache.map(|cache| {
            let observer: Arc<IngestObserver> =
                Arc::new(move |touch: &IngestTouch| cache.invalidate(touch));
            backend.observe_ingest(&observer);
            observer
        });
        let handles = (0..workers)
            .map(|i| {
                let inner = inner.clone();
                std::thread::Builder::new()
                    .name(format!("streach-serve-{i}"))
                    .spawn(move || inner.worker_loop())
                    .expect("spawn query-server worker")
            })
            .collect();
        Self {
            inner,
            workers: handles,
            _observer: observer,
            subscriptions: std::sync::OnceLock::new(),
        }
    }

    /// Enqueues one s-query; blocks while the submission queue is full.
    /// After shutdown began the ticket resolves to a typed error.
    ///
    /// A cached answer is served right here, on the caller's thread: it
    /// needs no worker, and the queue hand-off (a condvar wake-up, tens of
    /// microseconds and at the mercy of whatever else the cores are doing)
    /// would cost an order of magnitude more than the lookup itself.
    pub fn submit(&self, query: SQuery, algorithm: Algorithm) -> Ticket {
        let slot = Arc::new(ResponseSlot::new());
        let ticket = Ticket { slot: slot.clone() };
        let cache = self.inner.cache.as_ref();
        let key = cache.and_then(|_| self.inner.lookup_key(&query, algorithm));
        let request = Request {
            query,
            algorithm,
            key,
            slot,
        };
        if let Some(outcome) = cache.zip(key).and_then(|(cache, key)| cache.probe(&key)) {
            request.slot.fulfill(Ok(outcome));
            self.inner.submitted.fetch_add(1, Ordering::Relaxed);
            self.inner.completed.fetch_add(1, Ordering::Relaxed);
            return ticket;
        }
        let mut state = self.inner.lock_queue();
        while state.queue.len() >= self.inner.config.queue_depth && !state.shutdown {
            state = self
                .inner
                .not_full
                .wait(state)
                .unwrap_or_else(|e| e.into_inner());
        }
        if state.shutdown {
            drop(state);
            request.slot.fulfill(Err(QueryError::InvalidQuery(
                "query server is shutting down".into(),
            )));
            return ticket;
        }
        state.queue.push_back(request);
        self.inner.submitted.fetch_add(1, Ordering::Relaxed);
        drop(state);
        self.inner.not_empty.notify_one();
        ticket
    }

    /// Submits and waits: the synchronous convenience path.
    pub fn query(&self, query: SQuery, algorithm: Algorithm) -> Result<QueryOutcome, QueryError> {
        self.submit(query, algorithm).wait()
    }

    /// Counters of everything the server did so far.
    pub fn stats(&self) -> ServerStats {
        let (cache_hits, cache_misses, cache_invalidated, cache_flushes) = match &self.inner.cache {
            Some(c) => (
                c.hits.load(Ordering::Relaxed),
                c.misses.load(Ordering::Relaxed),
                c.invalidated.load(Ordering::Relaxed),
                c.flushes.load(Ordering::Relaxed),
            ),
            None => (0, 0, 0, 0),
        };
        ServerStats {
            submitted: self.inner.submitted.load(Ordering::Relaxed),
            completed: self.inner.completed.load(Ordering::Relaxed),
            coalesced: self.inner.coalesced.load(Ordering::Relaxed),
            cache_hits,
            cache_misses,
            cache_invalidated,
            cache_flushes,
        }
    }

    /// The server's standing-query manager, spawned (worker thread +
    /// ingest observer) on first use. See [`crate::subscribe`].
    pub fn subscriptions(&self) -> &crate::subscribe::SubscriptionManager<B> {
        self.subscriptions.get_or_init(|| {
            crate::subscribe::SubscriptionManager::spawn(
                self.inner.backend.clone(),
                crate::subscribe::SubscribeConfig::default(),
            )
        })
    }

    /// Registers a standing s-query, kept current incrementally against
    /// the ingest stream; events arrive via
    /// [`subscriptions`](Self::subscriptions).
    pub fn subscribe(
        &self,
        query: SQuery,
        algorithm: Algorithm,
        trigger: crate::subscribe::Trigger,
    ) -> Result<crate::subscribe::SubscriptionId, crate::subscribe::SubscribeError> {
        self.subscriptions().subscribe(query, algorithm, trigger)
    }

    /// Removes a standing s-query registered with [`subscribe`](Self::subscribe).
    pub fn unsubscribe(
        &self,
        id: crate::subscribe::SubscriptionId,
    ) -> Result<(), crate::subscribe::SubscribeError> {
        self.subscriptions().unsubscribe(id)
    }

    /// Stops accepting work, answers what is queued, joins the workers.
    pub fn shutdown(self) {
        drop(self);
    }
}

impl<B: ServeBackend> Drop for QueryServer<B> {
    fn drop(&mut self) {
        {
            let mut state = self.inner.lock_queue();
            state.shutdown = true;
        }
        self.inner.not_empty.notify_all();
        self.inner.not_full.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl<B: ServeBackend> ServerInner<B> {
    fn lock_queue(&self) -> MutexGuard<'_, QueueState> {
        self.queue.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn worker_loop(&self) {
        while let Some(batch) = self.pop_batch() {
            self.process(batch);
        }
    }

    /// Blocks for the next batch; `None` once shut down and drained.
    fn pop_batch(&self) -> Option<Vec<Request>> {
        let mut state = self.lock_queue();
        loop {
            if !state.queue.is_empty() {
                let take = state.queue.len().min(self.config.max_batch.max(1));
                let batch: Vec<Request> = state.queue.drain(..take).collect();
                drop(state);
                self.not_full.notify_all();
                return Some(batch);
            }
            if state.shutdown {
                return None;
            }
            state = self
                .not_empty
                .wait(state)
                .unwrap_or_else(|e| e.into_inner());
        }
    }

    /// The key a query caches under, when its location resolves. Invalid
    /// or off-network queries are never cached (errors are cheap to recompute
    /// and carry no staleness risk). Locating twice (here and inside the
    /// query) is redundant work, but locate is an in-memory spatial probe —
    /// accepting it keeps the engine's query entry points untouched.
    fn lookup_key(&self, query: &SQuery, algorithm: Algorithm) -> Option<CacheKey> {
        query.validate().ok()?;
        let segment = self.backend.try_locate(&query.location).ok()?;
        Some(ResultCache::key_of(query, segment, algorithm))
    }

    fn process(&self, batch: Vec<Request>) {
        let cache = self.cache.as_ref();
        let mut to_compute: Vec<Request> = Vec::with_capacity(batch.len());
        for request in batch {
            if let (Some(cache), Some(key)) = (cache, request.key) {
                if let Some(outcome) = cache.get(&key) {
                    request.slot.fulfill(Ok(outcome));
                    self.completed.fetch_add(1, Ordering::Relaxed);
                    continue;
                }
            }
            to_compute.push(request);
        }
        if to_compute.is_empty() {
            return;
        }

        let (coalescable, serial): (Vec<Request>, Vec<Request>) = to_compute
            .into_iter()
            .partition(|r| self.config.coalesce && r.algorithm == Algorithm::SqmbTbs);

        // Serial path: ES queries (no bounding pass to share) and everything
        // when coalescing is off.
        for request in serial {
            let epoch = cache.map(|c| c.epoch());
            // SQMB runs as a singleton coalesced group — bit-identical to
            // the per-query path — so the bounding region is reported and
            // the cache entry's posting invalidation stays segment-precise
            // instead of falling back to the any-segment sentinel. ES has
            // no bounding region; its entries keep the sentinel (that one
            // is genuinely "any segment").
            let (result, max_region) = match request.algorithm {
                Algorithm::SqmbTbs => {
                    let answer = self
                        .backend
                        .try_s_query_coalesced(std::slice::from_ref(&request.query))
                        .pop()
                        .expect("one answer per query");
                    (answer.outcome, answer.max_region)
                }
                Algorithm::ExhaustiveSearch => (
                    self.backend.try_s_query(&request.query, request.algorithm),
                    Vec::new(),
                ),
            };
            if let (Some(cache), Some(epoch), Ok(outcome), Some(key)) =
                (cache, epoch, &result, request.key)
            {
                cache.insert(
                    key,
                    CacheEntry::new(
                        outcome.clone(),
                        ReadFootprint::record(&request.query, self.backend.slot_s(), max_region),
                    ),
                    epoch,
                );
            }
            request.slot.fulfill(result);
            self.completed.fetch_add(1, Ordering::Relaxed);
        }

        if coalescable.is_empty() {
            return;
        }
        let epoch = cache.map(|c| c.epoch());
        let queries: Vec<SQuery> = coalescable.iter().map(|r| r.query).collect();
        let answers = self.backend.try_s_query_coalesced(&queries);
        debug_assert_eq!(answers.len(), coalescable.len());
        for (request, answer) in coalescable.into_iter().zip(answers) {
            if answer.shared_bounding {
                self.coalesced.fetch_add(1, Ordering::Relaxed);
            }
            if let (Some(cache), Some(epoch), Ok(outcome), Some(key)) =
                (cache, epoch, &answer.outcome, request.key)
            {
                cache.insert(
                    key,
                    CacheEntry::new(
                        outcome.clone(),
                        ReadFootprint::record(
                            &request.query,
                            self.backend.slot_s(),
                            answer.max_region,
                        ),
                    ),
                    epoch,
                );
            }
            request.slot.fulfill(answer.outcome);
            self.completed.fetch_add(1, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::region::ReachableRegion;

    fn key(i: u32) -> CacheKey {
        CacheKey {
            segment: i,
            start_time_s: 9 * 3600,
            duration_s: 600,
            prob_bits: 0.2f64.to_bits(),
            algorithm: Algorithm::SqmbTbs,
        }
    }

    fn entry() -> CacheEntry {
        CacheEntry::new(
            QueryOutcome {
                region: ReachableRegion::empty(),
                stats: QueryStats::default(),
            },
            ReadFootprint::default(),
        )
    }

    #[test]
    fn hot_entry_survives_cold_entry_flood() {
        let cache = ResultCache::new(4);
        let epoch = cache.epoch();
        cache.insert(key(0), entry(), epoch);
        // Flood with cold entries, touching the hot key between inserts —
        // the flood exceeds capacity many times over, so FIFO would have
        // evicted the hot entry long before the end.
        for i in 1..64 {
            assert!(cache.get(&key(0)).is_some(), "hot entry evicted at {i}");
            cache.insert(key(i), entry(), epoch);
        }
        assert!(cache.get(&key(0)).is_some(), "hot entry must survive");
        let state = cache.lock();
        assert!(state.map.len() <= 4, "capacity respected");
        // The survivors besides the hot key are the most recent cold ones.
        assert!(state.map.contains_key(&key(63)));
    }

    #[test]
    fn least_recently_hit_goes_first() {
        let cache = ResultCache::new(2);
        let epoch = cache.epoch();
        cache.insert(key(1), entry(), epoch);
        cache.insert(key(2), entry(), epoch);
        // Hit key 1; key 2 is now the least-recently-hit.
        assert!(cache.get(&key(1)).is_some());
        cache.insert(key(3), entry(), epoch);
        let state = cache.lock();
        assert!(state.map.contains_key(&key(1)));
        assert!(!state.map.contains_key(&key(2)));
        assert!(state.map.contains_key(&key(3)));
        assert_eq!(state.map[&key(1)].hits, 1);
    }

    #[test]
    fn footprint_touch_intersection() {
        let fp = ReadFootprint {
            slots: vec![3, 4, 5],
            max_region: vec![SegmentId(10), SegmentId(20)],
        };
        // Day raise always touches.
        assert!(fp.touched_by(&IngestTouch {
            posting_pairs: vec![],
            speed_slots: vec![],
            num_days_raised: true,
        }));
        // Speed slot inside the read window touches regardless of segment.
        assert!(fp.touched_by(&IngestTouch {
            posting_pairs: vec![],
            speed_slots: vec![4],
            num_days_raised: false,
        }));
        // Posting pair needs slot AND segment inside the max region.
        assert!(fp.touched_by(&IngestTouch {
            posting_pairs: vec![(4, 20)],
            speed_slots: vec![],
            num_days_raised: false,
        }));
        assert!(!fp.touched_by(&IngestTouch {
            posting_pairs: vec![(4, 30)],
            speed_slots: vec![],
            num_days_raised: false,
        }));
        assert!(!fp.touched_by(&IngestTouch {
            posting_pairs: vec![(7, 20)],
            speed_slots: vec![6],
            num_days_raised: false,
        }));
        // The empty max region is the any-segment sentinel (ES).
        let es = ReadFootprint {
            slots: vec![3],
            max_region: Vec::new(),
        };
        assert!(es.touched_by(&IngestTouch {
            posting_pairs: vec![(3, 999)],
            speed_slots: vec![],
            num_days_raised: false,
        }));
    }
}
