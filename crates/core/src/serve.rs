//! Serving front end: cross-user query coalescing and an ingest-invalidated
//! result cache over a [`ReachabilityEngine`] or a [`ShardedEngine`].
//!
//! The paper's MQMB algorithm is multi-query batching, but as a library API
//! every caller batches only its own queries. A [`QueryServer`] promotes
//! batching to a *server policy*: callers submit s-queries into a bounded
//! queue, worker threads drain the queue in batches, and the pipeline
//! folds concurrent queries that share (origin segment, hop-slot sequence)
//! into one SQMB bounding pass before verifying per caller —
//! concurrent users sharing an origin and time window pay the bounding
//! phase once instead of once each.
//!
//! # Bit-identity
//!
//! Coalescing must not change answers, and it cannot: the server hands each
//! drained batch to the query pipeline's one s-query procedure
//! (`crate::query::pipeline`), which answers a single query as a batch of
//! one. Two SQMB facts make sharing sound there:
//!
//! * the bounding expansion depends only on the start segment and the
//!   **hop-slot sequence** `slot_of(T + k·Δt)` for `k < num_hops(L)`, so
//!   queries grouped by (start segment, exact hop-slot sequence) share one
//!   bounding region that equals each member's own `sqmb` result, and
//! * verification then runs per caller with its exact `(T, L, Prob)` — a
//!   [`VerifierCore`](crate::query::verifier::VerifierCore) per distinct
//!   `(T, L)`, shared across probability thresholds.
//!
//! So every answer is bit-identical to [`ReachabilityEngine::try_s_query`]
//! on its query, and a failure is that caller's typed [`QueryError`]. ES
//! queries have no bounding pass to share and run alone inside the batch.
//! The engine and the router both run the pipeline over their own posting
//! source. `tests/serving_equivalence.rs` pins this against the naive
//! reference, which shares no code with the pipeline.
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
//! ingest lock after every applied batch (live, replayed or replicated).
//! Each entry keeps the [`ReadFootprint`] the pipeline returned with its
//! answer — the slots it resolved and the maximum bounding region it was
//! verified in — and [`ReadFootprint::touched_by`] decides:
//!
//! * **Posting pairs** — a touched (slot, segment) kills every entry that
//!   read the slot *and* whose maximum bounding region contains the
//!   segment: postings only affect verification, and verification only
//!   reads segments inside the max region. A decided answer (its start
//!   segment's active days cannot reach Prob) records its minimum region:
//!   only the start segment's own postings, which lie inside it, or a
//!   day-count raise can undecide it. ES entries record an empty region,
//!   which matches any segment.
//! * **Speed slots** — a slot whose Con-Index statistics moved kills every
//!   entry that read it, regardless of segment: speed stats feed the
//!   bounding expansion, which may reach any segment on re-run.
//! * **Day-count raise** — flushes the whole cache: the day count is every
//!   probability's denominator.
//!
//! Inserts are **epoch-guarded**: a worker snapshots the cache epoch
//! before computing and the insert is dropped if any invalidation ran in
//! between, so an answer computed from pre-ingest state can never be cached
//! over a newer invalidation. Compaction needs no hook — it is
//! answer-preserving by construction.
//!
//! # Threads
//!
//! A submission whose answer is cached is served on the submitting thread
//! and never enters the queue. Everything else goes to the workers: the
//! server runs `workers` long-lived threads. A worker drains up to
//! [`MAX_BATCH`] queued requests at once and answers them with one backend
//! call, except while another worker is idle: then it takes the head
//! request and the queued ones with the same origin segment (those that
//! can share a bounding pass), and leaves the unrelated rest to the idle
//! worker. Each drained batch's verification stage fans out on
//! `streach_par` inside
//! [`trace_back_search`](crate::query::tbs::trace_back_search) exactly like
//! a single query, so a single large query still uses all cores while
//! independent groups proceed on separate workers.
//!
//! An uncached query costs two hand-offs: the submitter wakes a worker, and
//! the worker wakes the ticket's waiter. A parked thread's wake-up takes
//! tens of microseconds, and on a virtual machine, where waking an idle
//! vCPU goes through the hypervisor, that time swings with the host's load.
//! With most window slots read forward, a miss costs about half a
//! millisecond, so the wake-ups became a visible and unsteady share of it.
//! An idle worker and a waiting ticket therefore poll for up to [`SPIN`]
//! (1 ms), yielding the CPU between polls, before they park. A steady
//! stream of misses is handed over and answered without parking anyone.
//! A server with no requests parks all its workers 1 ms after its last
//! one. The price is up to 1 ms of polling per wait.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use streach_geo::GeoPoint;
use streach_roadnet::SegmentId;

use crate::engine::ReachabilityEngine;
use crate::ingest::{IngestObserver, IngestTouch};
use crate::query::{Algorithm, BatchAnswer, QueryError, QueryOutcome, ReadFootprint, SQuery};
use crate::sharded::ShardedEngine;

/// Maximum requests one worker drains per pass — the coalescing window.
const MAX_BATCH: usize = 64;

/// Tuning knobs of a [`QueryServer`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads draining the submission queue. Each worker's
    /// verification stage additionally fans out on `streach_par`.
    pub workers: usize,
    /// Bound of the submission queue; [`QueryServer::submit`] blocks while
    /// the queue is full (backpressure, counted into open-loop latency).
    pub queue_depth: usize,
    /// Result-cache capacity in entries; `0` disables the cache.
    pub cache_capacity: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            workers: 2,
            queue_depth: 256,
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

/// A query target a [`QueryServer`] can front: the single engine or the
/// sharded scatter-gather router.
pub trait ServeBackend: Send + Sync + 'static {
    /// Snaps a query location to its road segment (the cache-key origin).
    fn try_locate(&self, location: &GeoPoint) -> Result<SegmentId, QueryError>;
    /// Answers a batch of s-queries in input order, each with its footprint
    /// ([`ReachabilityEngine::try_s_query_batch`]).
    fn try_s_query_batch(&self, queries: &[(SQuery, Algorithm)]) -> Vec<BatchAnswer>;
    /// Registers an ingest observer on every underlying leader engine.
    fn observe_ingest(&self, observer: &Arc<IngestObserver>);
}

impl ServeBackend for ReachabilityEngine {
    fn try_locate(&self, location: &GeoPoint) -> Result<SegmentId, QueryError> {
        ReachabilityEngine::try_locate(self, location)
    }

    fn try_s_query_batch(&self, queries: &[(SQuery, Algorithm)]) -> Vec<BatchAnswer> {
        ReachabilityEngine::try_s_query_batch(self, queries)
    }

    fn observe_ingest(&self, observer: &Arc<IngestObserver>) {
        ReachabilityEngine::observe_ingest(self, observer);
    }
}

impl ServeBackend for ShardedEngine {
    fn try_locate(&self, location: &GeoPoint) -> Result<SegmentId, QueryError> {
        ShardedEngine::try_locate(self, location)
    }

    fn try_s_query_batch(&self, queries: &[(SQuery, Algorithm)]) -> Vec<BatchAnswer> {
        ShardedEngine::try_s_query_batch(self, queries)
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

struct CacheEntry {
    outcome: QueryOutcome,
    /// What the answer read; an [`IngestTouch`] intersecting it kills the
    /// entry.
    footprint: ReadFootprint,
    /// Cache-clock stamp of the last hit (the insert stamp until then) —
    /// the eviction order: least-recently-hit goes first.
    last_hit: u64,
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
    fn insert(
        &self,
        key: CacheKey,
        outcome: QueryOutcome,
        footprint: ReadFootprint,
        epoch_at_read: u64,
    ) {
        let mut state = self.lock();
        if state.epoch != epoch_at_read || self.capacity == 0 {
            return;
        }
        state.clock += 1;
        let last_hit = state.clock;
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
        let entry = CacheEntry {
            outcome,
            footprint,
            last_hit,
        };
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

/// Removes the head request and, up to [`MAX_BATCH`] in all, the
/// queued requests with its origin segment, keeping the others in
/// order. A head with no key (an uncached or invalid query) goes alone.
fn take_origin(queue: &mut VecDeque<Request>) -> Vec<Request> {
    let head = queue.pop_front().expect("a non-empty queue");
    let Some(origin) = head.key.map(|key| key.segment) else {
        return vec![head];
    };
    let mut batch = vec![head];
    // One turn of the queue: each request is taken or put back behind
    // the ones not yet looked at, so the rest keep their order.
    for _ in 0..queue.len() {
        let request = queue.pop_front().expect("a request not yet looked at");
        if batch.len() < MAX_BATCH && request.key.is_some_and(|key| key.segment == origin) {
            batch.push(request);
        } else {
            queue.push_back(request);
        }
    }
    batch
}

/// How long a waiting ticket or an idle worker polls before it parks on
/// its condition variable (see "Threads" in the module docs).
const SPIN: Duration = Duration::from_millis(1);

/// Polls `ready`, yielding the CPU between polls, until it holds or
/// [`SPIN`] has passed.
fn spin_until(ready: impl Fn() -> bool) {
    let began = Instant::now();
    while !ready() && began.elapsed() < SPIN {
        std::thread::yield_now();
    }
}

struct ResponseSlot {
    state: Mutex<Option<(Result<QueryOutcome, QueryError>, Instant)>>,
    done: Condvar,
    /// Set once `state` holds the answer; what a spinning waiter polls.
    answered: AtomicBool,
}

impl ResponseSlot {
    fn new() -> Self {
        Self {
            state: Mutex::new(None),
            done: Condvar::new(),
            answered: AtomicBool::new(false),
        }
    }

    fn fulfill(&self, result: Result<QueryOutcome, QueryError>) {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if state.is_none() {
            *state = Some((result, Instant::now()));
            self.answered.store(true, Ordering::Release);
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
        spin_until(|| self.slot.answered.load(Ordering::Acquire));
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
    /// `queue.len()`, written under the queue lock; what a spinning idle
    /// worker polls.
    queued: AtomicUsize,
    /// Workers waiting for a request, spinning or parked: a hint for how
    /// much a worker takes (see `pop_batch`), so it publishes nothing.
    idle: AtomicUsize,
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
            queued: AtomicUsize::new(0),
            idle: AtomicUsize::new(0),
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
        self.inner
            .queued
            .store(state.queue.len(), Ordering::Relaxed);
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
    ///
    /// With no worker idle, a batch is the queue's head, up to
    /// [`MAX_BATCH`] requests. While another worker is idle, a batch is the
    /// head request and the queued requests with its origin segment, the
    /// ones that can share its bounding pass; the rest is left to the idle
    /// worker instead of waiting behind this batch.
    fn pop_batch(&self) -> Option<Vec<Request>> {
        let mut state = self.lock_queue();
        loop {
            if !state.queue.is_empty() {
                let batch = if self.idle.load(Ordering::Relaxed) > 0 {
                    take_origin(&mut state.queue)
                } else {
                    let take = state.queue.len().min(MAX_BATCH);
                    state.queue.drain(..take).collect()
                };
                let left = state.queue.len();
                self.queued.store(left, Ordering::Relaxed);
                drop(state);
                self.not_full.notify_all();
                if left > 0 {
                    self.not_empty.notify_one();
                }
                return Some(batch);
            }
            if state.shutdown {
                return None;
            }
            self.idle.fetch_add(1, Ordering::Relaxed);
            drop(state);
            spin_until(|| self.queued.load(Ordering::Relaxed) > 0);
            state = self.lock_queue();
            if state.queue.is_empty() && !state.shutdown {
                state = self
                    .not_empty
                    .wait(state)
                    .unwrap_or_else(|e| e.into_inner());
            }
            self.idle.fetch_sub(1, Ordering::Relaxed);
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

        let epoch = cache.map(|c| c.epoch());
        let queries: Vec<(SQuery, Algorithm)> =
            to_compute.iter().map(|r| (r.query, r.algorithm)).collect();
        let answers = self.backend.try_s_query_batch(&queries);
        debug_assert_eq!(answers.len(), to_compute.len());
        for (request, answer) in to_compute.into_iter().zip(answers) {
            if answer.shared_bounding {
                self.coalesced.fetch_add(1, Ordering::Relaxed);
            }
            if let (Some(cache), Some(epoch), Ok(outcome), Some(key)) =
                (cache, epoch, &answer.outcome, request.key)
            {
                cache.insert(key, outcome.clone(), answer.footprint, epoch);
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
    use crate::stats::QueryStats;

    fn key(i: u32) -> CacheKey {
        CacheKey {
            segment: i,
            start_time_s: 9 * 3600,
            duration_s: 600,
            prob_bits: 0.2f64.to_bits(),
            algorithm: Algorithm::SqmbTbs,
        }
    }

    fn outcome() -> QueryOutcome {
        QueryOutcome {
            region: ReachableRegion::empty(),
            stats: QueryStats::default(),
        }
    }

    fn insert(cache: &ResultCache, key: CacheKey, epoch: u64) {
        cache.insert(key, outcome(), ReadFootprint::default(), epoch);
    }

    #[test]
    fn an_origin_batch_takes_the_heads_segment_and_leaves_the_rest_in_order() {
        let queue_of = |requests: &[(Option<u32>, u32)]| -> VecDeque<Request> {
            requests
                .iter()
                .map(|&(segment, start_time_s)| Request {
                    query: SQuery {
                        location: GeoPoint::new(0.0, 0.0),
                        start_time_s,
                        duration_s: 600,
                        prob: 0.2,
                    },
                    algorithm: Algorithm::SqmbTbs,
                    key: segment.map(key),
                    slot: Arc::new(ResponseSlot::new()),
                })
                .collect()
        };
        let starts = |requests: &mut dyn Iterator<Item = &Request>| -> Vec<u32> {
            requests.map(|r| r.query.start_time_s).collect()
        };
        let mut queue = queue_of(&[
            (Some(1), 0),
            (Some(2), 1),
            (Some(1), 2),
            (None, 3),
            (Some(1), 4),
            (Some(3), 5),
        ]);
        let batch = take_origin(&mut queue);
        assert_eq!(starts(&mut batch.iter()), [0, 2, 4]);
        assert_eq!(starts(&mut queue.iter()), [1, 3, 5]);
        // A head with no key goes alone.
        let mut queue = queue_of(&[(None, 0), (None, 1), (Some(1), 2)]);
        assert_eq!(starts(&mut take_origin(&mut queue).iter()), [0]);
        assert_eq!(starts(&mut queue.iter()), [1, 2]);
        // At most MAX_BATCH requests.
        let mut queue = queue_of(&vec![(Some(7), 0); MAX_BATCH + 3]);
        assert_eq!(take_origin(&mut queue).len(), MAX_BATCH);
        assert_eq!(queue.len(), 3);
    }

    #[test]
    fn hot_entry_survives_cold_entry_flood() {
        let cache = ResultCache::new(4);
        let epoch = cache.epoch();
        insert(&cache, key(0), epoch);
        // Flood with cold entries, touching the hot key between inserts —
        // the flood exceeds capacity many times over, so FIFO would have
        // evicted the hot entry long before the end.
        for i in 1..64 {
            assert!(cache.get(&key(0)).is_some(), "hot entry evicted at {i}");
            insert(&cache, key(i), epoch);
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
        insert(&cache, key(1), epoch);
        insert(&cache, key(2), epoch);
        // Hit key 1; key 2 is now the least-recently-hit.
        assert!(cache.get(&key(1)).is_some());
        insert(&cache, key(3), epoch);
        let state = cache.lock();
        assert!(state.map.contains_key(&key(1)));
        assert!(!state.map.contains_key(&key(2)));
        assert!(state.map.contains_key(&key(3)));
    }

    /// Answers every query with an empty region and counts the batches.
    struct Echo {
        batches: AtomicU64,
    }

    impl ServeBackend for Echo {
        fn try_locate(&self, _: &GeoPoint) -> Result<SegmentId, QueryError> {
            Ok(SegmentId(0))
        }
        fn try_s_query_batch(&self, queries: &[(SQuery, Algorithm)]) -> Vec<BatchAnswer> {
            self.batches.fetch_add(1, Ordering::Relaxed);
            queries
                .iter()
                .map(|_| BatchAnswer {
                    outcome: Ok(outcome()),
                    footprint: ReadFootprint::default(),
                    shared_bounding: false,
                })
                .collect()
        }
        fn observe_ingest(&self, _: &Arc<IngestObserver>) {}
    }

    fn query(start_time_s: u32) -> SQuery {
        SQuery {
            location: GeoPoint::new(0.0, 0.0),
            start_time_s,
            duration_s: 600,
            prob: 0.2,
        }
    }

    #[test]
    fn a_ticket_answered_after_its_spin_parks_and_still_wakes() {
        let slot = Arc::new(ResponseSlot::new());
        let ticket = Ticket { slot: slot.clone() };
        let answerer = std::thread::spawn(move || {
            std::thread::sleep(SPIN * 20);
            slot.fulfill(Ok(outcome()));
        });
        let began = Instant::now();
        assert!(ticket.wait().is_ok());
        assert!(began.elapsed() >= SPIN * 20, "answered before it was given");
        answerer.join().unwrap();
    }

    #[test]
    fn parked_workers_wake_for_a_late_submission() {
        let backend = Arc::new(Echo {
            batches: AtomicU64::new(0),
        });
        let server = QueryServer::start(
            backend.clone(),
            ServeConfig {
                workers: 2,
                queue_depth: 4,
                cache_capacity: 0,
            },
        );
        for round in 0..3 {
            // Past every worker's spin: all of them are parked.
            std::thread::sleep(SPIN * 20);
            assert!(server
                .query(query(9 * 3600 + round), Algorithm::SqmbTbs)
                .is_ok());
        }
        assert_eq!(backend.batches.load(Ordering::Relaxed), 3);
        assert_eq!(server.stats().completed, 3);
    }
}
