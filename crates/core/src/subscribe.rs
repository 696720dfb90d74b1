//! Continuous reachability subscriptions: standing s-queries evaluated
//! **incrementally** against the ingest stream.
//!
//! A one-shot query answers "what is reachable now"; a subscription keeps
//! that answer current as trajectory batches land. The machinery is the
//! serving stack's invalidation signal turned into a *re-evaluation*
//! signal: every applied ingest batch reports an
//! [`IngestTouch`] (touched posting pairs, moved speed slots, day-count
//! raise), and every subscription records the **read footprint** of its
//! last answer — the same wrapped slot set + maximum bounding region the
//! result cache stores ([`crate::serve`]). A batch whose touch does not
//! intersect a subscription's footprint provably cannot have changed that
//! subscription's answer, so the background worker re-runs **only the
//! affected subscriptions**:
//!
//! * a touched (slot, segment) posting pair affects a subscription when
//!   the slot is in its read window *and* the segment lies inside its
//!   maximum bounding region (verification never reads outside it),
//! * a moved speed slot in the read window always affects it (speed
//!   statistics feed the bounding expansion, which may reach any segment
//!   on re-run),
//! * a raised day count affects **everything** — it is every reachability
//!   probability's denominator,
//! * and a batch touching nothing a subscription read triggers **zero
//!   engine queries** for it (observable via
//!   [`SubscribeStats::engine_queries`]).
//!
//! Re-evaluation is bit-identical to re-running every subscription from
//! scratch after every batch (`tests/subscription_equivalence.rs` pins
//! this): a pass hands every affected subscription to one
//! [`ServeBackend::try_s_query_batch`] call, so co-located SQMB
//! subscriptions share one bounding, and keeps the footprint each answer
//! comes back with.
//!
//! The worker runs on `worker::Worker`, the crate's one kick / run_now /
//! shutdown protocol: a dedicated thread woken by ingest observers (the
//! observer callback runs under the engine's ingest lock and only enqueues
//! the touch + kicks the worker — it never queries), a deterministic
//! [`SubscriptionManager::run_now`] for tests, typed [`SubscribeError`]s,
//! and clean shutdown on drop. Changed answers are delivered as
//! [`ReachabilityEvent`]s (old region, new region, fired trigger,
//! generation stamp) through a **bounded** event queue: on overflow the
//! oldest event is dropped and the next drain leads with a typed
//! [`SubscriptionEvent::Lagged`] carrying the miss count. A storage fault
//! during re-evaluation surfaces as a typed
//! [`SubscriptionEvent::EvaluationFailed`]; the subscription stays
//! registered and marked dirty, so the next batch (or `run_now`)
//! converges it.
//!
//! Both backends work: a single [`crate::ReachabilityEngine`] or a
//! [`crate::ShardedEngine`] — the sharded router registers the observer on
//! every shard leader and merges the per-shard touches into one queue, so
//! cross-shard subscriptions wake exactly when a shard they read from
//! changed. [`crate::serve::QueryServer`] fronts the manager with
//! `subscribe`/`unsubscribe`, serving one-shot and standing traffic from
//! the same process.

use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

use crate::ingest::{IngestObserver, IngestTouch};
use crate::query::{Algorithm, QueryError, ReadFootprint, SQuery};
use crate::region::ReachableRegion;
use crate::serve::ServeBackend;
use crate::worker::Worker;

/// Identifier of one registered subscription, unique within its manager.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SubscriptionId(pub u64);

impl std::fmt::Display for SubscriptionId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "subscription #{}", self.0)
    }
}

/// When a subscription's re-evaluation should raise `trigger_fired`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Trigger {
    /// Fire whenever the reachable region changed at all (segment set or
    /// total length).
    AnyRegionChange,
    /// Fire when the region's total length **crosses below** the threshold
    /// (previous answer at or above it, new answer below): "alert when the
    /// reachable area around the depot collapses". Fires exactly at the
    /// crossing batch, not on every batch while below.
    LengthBelowKm(f64),
}

impl Trigger {
    /// Whether the transition `old -> new` fires this trigger. The initial
    /// evaluation (`old` is `None`) never fires — there is no transition.
    fn fired(&self, old: Option<&ReachableRegion>, new: &ReachableRegion) -> bool {
        match (self, old) {
            (_, None) => false,
            (Trigger::AnyRegionChange, Some(old)) => old != new,
            (Trigger::LengthBelowKm(threshold), Some(old)) => {
                old.total_length_km >= *threshold && new.total_length_km < *threshold
            }
        }
    }
}

/// A changed (or first) answer of one subscription.
#[derive(Debug, Clone)]
pub struct ReachabilityEvent {
    /// The subscription this event belongs to.
    pub id: SubscriptionId,
    /// The previous answer; `None` on the registration evaluation.
    pub old_region: Option<ReachableRegion>,
    /// The current answer.
    pub new_region: ReachableRegion,
    /// Whether the subscription's [`Trigger`] fired on this transition.
    pub trigger_fired: bool,
    /// Ingest generation stamp: the number of ingest touches the manager
    /// had observed when this answer was computed. Monotonic per manager.
    pub generation: u64,
}

/// Everything a subscription consumer can receive.
#[derive(Debug, Clone)]
pub enum SubscriptionEvent {
    /// A subscription's answer changed (or was computed for the first
    /// time); `trigger_fired` tells whether its trigger condition fired.
    Update(ReachabilityEvent),
    /// Re-evaluating a subscription failed (typically
    /// [`QueryError::Storage`], a disk fault mid-verification). The
    /// subscription stays registered and dirty; the next batch or
    /// [`SubscriptionManager::run_now`] retries it.
    EvaluationFailed {
        /// The subscription whose evaluation failed.
        id: SubscriptionId,
        /// The typed failure.
        error: QueryError,
        /// Ingest generation stamp of the failed pass.
        generation: u64,
    },
    /// The bounded event queue overflowed since the last drain: `missed`
    /// events were dropped (oldest first). Consumers that must not miss a
    /// transition should re-read current answers via
    /// [`SubscriptionManager::last_region`].
    Lagged {
        /// Number of events dropped.
        missed: u64,
    },
}

/// A typed subscription-layer failure.
#[derive(Debug, Clone, PartialEq)]
pub enum SubscribeError {
    /// Registration failed: the standing query is invalid, off-network, or
    /// its initial evaluation hit a storage fault. Nothing was registered.
    Query(QueryError),
    /// The named subscription is not registered (already unsubscribed, or
    /// never existed).
    UnknownSubscription(SubscriptionId),
}

impl std::fmt::Display for SubscribeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubscribeError::Query(e) => write!(f, "subscription rejected: {e}"),
            SubscribeError::UnknownSubscription(id) => write!(f, "{id} is not registered"),
        }
    }
}

impl std::error::Error for SubscribeError {}

impl From<QueryError> for SubscribeError {
    fn from(e: QueryError) -> Self {
        SubscribeError::Query(e)
    }
}

/// Tuning knobs of a [`SubscriptionManager`].
#[derive(Debug, Clone)]
pub struct SubscribeConfig {
    /// How often the worker re-checks for pending touches when nobody
    /// kicks it (ingest observers kick it immediately; this is a safety
    /// net, not the latency floor).
    pub poll_interval: Duration,
    /// Bound of the event queue; on overflow the oldest event is dropped
    /// and the next drain reports [`SubscriptionEvent::Lagged`].
    pub event_capacity: usize,
}

impl Default for SubscribeConfig {
    fn default() -> Self {
        Self {
            poll_interval: Duration::from_millis(200),
            event_capacity: 1024,
        }
    }
}

/// Counters of a manager's activity so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SubscribeStats {
    /// Worker evaluation passes completed (kicked or on the poll cadence).
    pub passes: u64,
    /// Per-subscription engine evaluations issued — registration
    /// evaluations plus incremental re-evaluations. A batch touching no
    /// subscription's footprint adds **zero** here.
    pub engine_queries: u64,
    /// Events pushed into the queue (including ones later dropped).
    pub events_emitted: u64,
    /// Events dropped by the bounded queue.
    pub events_dropped: u64,
    /// Failed evaluations (each also emitted an
    /// [`SubscriptionEvent::EvaluationFailed`]).
    pub errors: u64,
}

/// One registered standing query and its incremental-evaluation state.
struct SubState {
    query: (SQuery, Algorithm),
    trigger: Trigger,
    /// What the last answer read; an [`IngestTouch`] intersecting it
    /// schedules a re-evaluation.
    footprint: ReadFootprint,
    /// The last successfully computed answer.
    last_region: Option<ReachableRegion>,
    /// Must re-evaluate on the next pass regardless of touches: set after
    /// a failed evaluation, and at registration when a touch raced the
    /// initial evaluation.
    dirty: bool,
}

struct State {
    /// `BTreeMap` so passes evaluate in stable id order — deterministic
    /// coalescing groups, deterministic event order.
    subs: BTreeMap<u64, SubState>,
    next_id: u64,
    /// Touches enqueued by ingest observers, drained by the next pass.
    pending: Vec<IngestTouch>,
    /// Total touches ever observed — the generation stamp on events.
    touch_seq: u64,
    events: VecDeque<SubscriptionEvent>,
    /// Events dropped since the last drain (reported as one `Lagged`).
    undrained_drops: u64,
    stats: SubscribeStats,
}

struct Shared<B: ServeBackend> {
    backend: Arc<B>,
    config: SubscribeConfig,
    state: Mutex<State>,
    /// Wakes [`SubscriptionManager::next_event`] waiters when an event is
    /// queued.
    events_cv: Condvar,
}

impl<B: ServeBackend> Shared<B> {
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn push_event(state: &mut State, capacity: usize, event: SubscriptionEvent) {
        state.stats.events_emitted += 1;
        if state.events.len() >= capacity.max(1) {
            state.events.pop_front();
            state.undrained_drops += 1;
            state.stats.events_dropped += 1;
        }
        state.events.push_back(event);
    }
}

/// Registers standing s-queries against a [`ServeBackend`] and keeps their
/// answers current by incremental re-evaluation on each ingest batch. See
/// the module docs for the design. Dropping the manager (or calling
/// [`SubscriptionManager::shutdown`]) stops the worker cleanly.
pub struct SubscriptionManager<B: ServeBackend> {
    shared: Arc<Shared<B>>,
    worker: Worker,
    /// Keeps the ingest observer alive exactly as long as the manager; the
    /// backend's leader engines hold it weakly and drop it with us.
    _observer: Arc<IngestObserver>,
}

impl<B: ServeBackend> SubscriptionManager<B> {
    /// Spawns the evaluation worker and registers the touch observer on
    /// `backend`'s leader engines (every shard leader on a sharded
    /// backend; their touches merge into one queue).
    pub fn spawn(backend: Arc<B>, config: SubscribeConfig) -> Self {
        let shared = Arc::new(Shared {
            backend: backend.clone(),
            config,
            state: Mutex::new(State {
                subs: BTreeMap::new(),
                next_id: 1,
                pending: Vec::new(),
                touch_seq: 0,
                events: VecDeque::new(),
                undrained_drops: 0,
                stats: SubscribeStats::default(),
            }),
            events_cv: Condvar::new(),
        });
        let worker = {
            let shared = Arc::clone(&shared);
            let poll_interval = shared.config.poll_interval;
            Worker::spawn(
                "streach-subscribe",
                move || poll_interval,
                move || Self::run_pass(&shared),
            )
        };
        // The observer runs under the engine's ingest lock: enqueue the
        // touch, stamp the generation, kick the worker — nothing else.
        let observer: Arc<IngestObserver> = {
            let shared = Arc::clone(&shared);
            let kicker = worker.kicker();
            Arc::new(move |touch: &IngestTouch| {
                {
                    let mut state = shared.lock();
                    state.touch_seq += 1;
                    state.pending.push(touch.clone());
                }
                kicker.kick();
            })
        };
        backend.observe_ingest(&observer);
        Self {
            shared,
            worker,
            _observer: observer,
        }
    }

    /// One evaluation pass: drain the pending touches, intersect them with
    /// every subscription's footprint, re-evaluate the affected ones as one
    /// batch, and apply the results — events, updated footprints, dirty
    /// marks for failures. Unaffected subscriptions do zero work.
    /// Evaluation runs **outside** the state lock, so subscribing,
    /// unsubscribing and event draining never block on engine I/O.
    fn run_pass(shared: &Shared<B>) {
        let (to_eval, generation) = {
            let mut state = shared.lock();
            let touches = std::mem::take(&mut state.pending);
            let generation = state.touch_seq;
            let mut to_eval: Vec<(u64, (SQuery, Algorithm))> = Vec::new();
            for (&id, sub) in state.subs.iter_mut() {
                let affected =
                    sub.dirty || touches.iter().any(|touch| sub.footprint.touched_by(touch));
                if affected {
                    sub.dirty = false;
                    to_eval.push((id, sub.query));
                }
            }
            (to_eval, generation)
        };
        if to_eval.is_empty() {
            return;
        }

        let queries: Vec<(SQuery, Algorithm)> = to_eval.iter().map(|&(_, q)| q).collect();
        let answers = shared.backend.try_s_query_batch(&queries);

        let mut state = shared.lock();
        state.stats.engine_queries += to_eval.len() as u64;
        for ((id, _), answer) in to_eval.iter().zip(answers) {
            // Unsubscribed while we evaluated: drop the result.
            let Some(sub) = state.subs.get_mut(id) else {
                continue;
            };
            match answer.outcome {
                Ok(outcome) => {
                    let new_region = outcome.region;
                    sub.footprint = answer.footprint;
                    let old = sub.last_region.take();
                    let fired = sub.trigger.fired(old.as_ref(), &new_region);
                    let changed = old.as_ref() != Some(&new_region);
                    sub.last_region = Some(new_region.clone());
                    if changed || fired {
                        let event = SubscriptionEvent::Update(ReachabilityEvent {
                            id: SubscriptionId(*id),
                            old_region: old,
                            new_region,
                            trigger_fired: fired,
                            generation,
                        });
                        Shared::<B>::push_event(&mut state, shared.config.event_capacity, event);
                    }
                }
                Err(error) => {
                    // Keep the subscription registered and dirty: the next
                    // pass retries, so the next batch converges it.
                    sub.dirty = true;
                    state.stats.errors += 1;
                    let event = SubscriptionEvent::EvaluationFailed {
                        id: SubscriptionId(*id),
                        error,
                        generation,
                    };
                    Shared::<B>::push_event(&mut state, shared.config.event_capacity, event);
                }
            }
        }
        shared.events_cv.notify_all();
    }

    /// Registers a standing query. The initial answer is computed
    /// synchronously (so the footprint exists before the next batch lands)
    /// and delivered as the subscription's first
    /// [`SubscriptionEvent::Update`] with `old_region: None`. Fails typed
    /// — nothing registered — when the query is invalid, off-network, or
    /// the initial evaluation hits a storage fault.
    pub fn subscribe(
        &self,
        query: SQuery,
        algorithm: Algorithm,
        trigger: Trigger,
    ) -> Result<SubscriptionId, SubscribeError> {
        // Stamp the touch sequence before evaluating: if a batch lands
        // while we evaluate (the observer enqueues concurrently), the new
        // subscription is marked dirty so the next pass re-converges it —
        // its footprint may describe pre-batch state.
        let seq_before = self.shared.lock().touch_seq;
        let mut answers = self.shared.backend.try_s_query_batch(&[(query, algorithm)]);
        let answer = answers.pop().expect("one answer per query");
        let region = answer.outcome?.region;

        let mut state = self.shared.lock();
        let id = state.next_id;
        state.next_id += 1;
        state.stats.engine_queries += 1;
        let generation = state.touch_seq;
        let raced_ingest = state.touch_seq != seq_before;
        state.subs.insert(
            id,
            SubState {
                query: (query, algorithm),
                trigger,
                footprint: answer.footprint,
                last_region: Some(region.clone()),
                dirty: raced_ingest,
            },
        );
        let event = SubscriptionEvent::Update(ReachabilityEvent {
            id: SubscriptionId(id),
            old_region: None,
            new_region: region,
            trigger_fired: false,
            generation,
        });
        Shared::<B>::push_event(&mut state, self.shared.config.event_capacity, event);
        self.shared.events_cv.notify_all();
        Ok(SubscriptionId(id))
    }

    /// Removes a subscription; its queued events stay in the queue.
    pub fn unsubscribe(&self, id: SubscriptionId) -> Result<(), SubscribeError> {
        match self.shared.lock().subs.remove(&id.0) {
            Some(_) => Ok(()),
            None => Err(SubscribeError::UnknownSubscription(id)),
        }
    }

    /// Number of registered subscriptions.
    pub fn subscriptions(&self) -> usize {
        self.shared.lock().subs.len()
    }

    /// The last successfully computed answer of a subscription — the
    /// "current state" a consumer re-reads after a `Lagged` notice.
    /// `None` only when every evaluation so far failed.
    pub fn last_region(
        &self,
        id: SubscriptionId,
    ) -> Result<Option<ReachableRegion>, SubscribeError> {
        match self.shared.lock().subs.get(&id.0) {
            Some(sub) => Ok(sub.last_region.clone()),
            None => Err(SubscribeError::UnknownSubscription(id)),
        }
    }

    /// Drains every queued event, oldest first. When the bounded queue
    /// overflowed since the last drain, the result leads with one
    /// [`SubscriptionEvent::Lagged`] carrying the total miss count.
    pub fn poll_events(&self) -> Vec<SubscriptionEvent> {
        let mut state = self.shared.lock();
        let mut out = Vec::with_capacity(state.events.len() + 1);
        if state.undrained_drops > 0 {
            out.push(SubscriptionEvent::Lagged {
                missed: std::mem::take(&mut state.undrained_drops),
            });
        }
        out.extend(state.events.drain(..));
        out
    }

    /// Blocks up to `timeout` for the next event ([`SubscriptionEvent::Lagged`]
    /// first when the queue overflowed); `None` on timeout.
    pub fn next_event(&self, timeout: Duration) -> Option<SubscriptionEvent> {
        let deadline = std::time::Instant::now() + timeout;
        let mut state = self.shared.lock();
        loop {
            if state.undrained_drops > 0 {
                return Some(SubscriptionEvent::Lagged {
                    missed: std::mem::take(&mut state.undrained_drops),
                });
            }
            if let Some(event) = state.events.pop_front() {
                return Some(event);
            }
            let now = std::time::Instant::now();
            if now >= deadline {
                return None;
            }
            let (guard, _) = self
                .shared
                .events_cv
                .wait_timeout(state, deadline - now)
                .unwrap_or_else(|e| e.into_inner());
            state = guard;
        }
    }

    /// Marks every subscription dirty: the next pass re-evaluates all of
    /// them regardless of footprints. This is the "full re-evaluation"
    /// mode — what every batch would cost without incremental filtering —
    /// the baseline the incremental answers are compared against.
    pub fn invalidate_all(&self) {
        let mut state = self.shared.lock();
        for sub in state.subs.values_mut() {
            sub.dirty = true;
        }
    }

    /// Wakes the worker for an immediate evaluation pass without waiting.
    pub fn kick(&self) {
        self.worker.kick();
    }

    /// Kicks the worker and blocks until that pass completed — the
    /// deterministic hook: after `run_now` returns, every subscription an
    /// already-applied batch affected has been re-evaluated (or its
    /// failure recorded as an event).
    pub fn run_now(&self) {
        self.worker.run_now();
    }

    /// Activity counters so far.
    pub fn stats(&self) -> SubscribeStats {
        SubscribeStats {
            passes: self.worker.passes(),
            ..self.shared.lock().stats
        }
    }

    /// Stops the worker cleanly (the in-flight pass finishes first) and
    /// returns every event still queued.
    pub fn shutdown(mut self) -> Vec<SubscriptionEvent> {
        self.worker.stop();
        self.poll_events()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::region::ReachableRegion;
    use streach_roadnet::SegmentId;

    fn region(segments: Vec<u32>, km: f64) -> ReachableRegion {
        ReachableRegion {
            segments: segments.into_iter().map(SegmentId).collect(),
            total_length_km: km,
        }
    }

    #[test]
    fn trigger_semantics() {
        let a = region(vec![1, 2], 5.0);
        let b = region(vec![1], 3.0);
        // No transition on the initial evaluation.
        assert!(!Trigger::AnyRegionChange.fired(None, &a));
        assert!(!Trigger::LengthBelowKm(10.0).fired(None, &b));
        // Region change.
        assert!(Trigger::AnyRegionChange.fired(Some(&a), &b));
        assert!(!Trigger::AnyRegionChange.fired(Some(&a), &a.clone()));
        // Threshold crossing fires exactly at the crossing, not while below.
        assert!(Trigger::LengthBelowKm(4.0).fired(Some(&a), &b));
        assert!(!Trigger::LengthBelowKm(4.0).fired(Some(&b), &b.clone()));
        assert!(!Trigger::LengthBelowKm(2.0).fired(Some(&a), &b));
    }
}
