//! WAL shipping: leader → follower replication for read replicas.
//!
//! A serving leader already writes every ingest batch to a CRC-framed,
//! generation-stamped WAL before applying it. Replication reuses that log
//! as the shipping medium:
//!
//! * [`streach_storage::WalTail`] polls the leader's WAL file and yields
//!   contiguous, CRC-verified record batches (a torn tail is simply "not
//!   yet" — the leader's in-flight append completes on the next poll),
//! * each replica persists the shipped frames **verbatim** into a
//!   [`streach_storage::FollowerLog`] — byte-compatible with a leader WAL,
//!   so the follower's log is always a valid `attach_wal` target — and
//! * applies the decoded batches through
//!   [`ReachabilityEngine::apply_replicated`], the same normalization and
//!   posting path batch ingest uses, gated exactly-once by (generation,
//!   ordinal) so a re-shipped prefix (replica bootstrapped from a snapshot
//!   that already covers it) is skipped, and a gap is a hard error instead
//!   of a silently diverging replica.
//!
//! Shipping is interior-mutability-safe (`&self` behind one lock), so a
//! background [`ReplicationController`], an explicit
//! [`ReplicaSet::checkpoint_leader`], and serving reads coexist on one
//! `Arc<ReplicaSet>`. A record whose *apply* faults (replica disk hiccup)
//! stays queued — persisted in the follower log and retried by the next
//! shipping pass through the exactly-once gate — so a transient EIO delays
//! convergence instead of wedging or re-replaying the stream.
//!
//! Convergence is observable: [`ReplicaSet::status`] reports each
//! replica's shipped and applied (generation, records), and
//! [`ReplicaSet::converged`] compares them against the leader's WAL
//! position. Two engines at the same applied position hold byte-identical
//! postings — the bit-equality `tests/sharded_equivalence.rs` pins.
//!
//! # Background shipping with a lag SLO
//!
//! [`ReplicationController::spawn`] owns [`ReplicaSet::ship`] on a cadence
//! ([`ReplicationConfig::poll_interval`]): ship faults are retried with
//! exponential backoff (capped at [`ReplicationConfig::max_backoff`]; a
//! kick bypasses the backoff, so a healed disk re-converges immediately
//! under [`ReplicationController::run_now`]), per-replica lag against the
//! leader is observable ([`ReplicationController::lag`]), and crossing
//! [`ReplicationConfig::lag_slo_records`] surfaces an **edge-triggered**
//! typed [`ReplicationEvent::SloBreached`] (with a matching
//! [`ReplicationEvent::SloRecovered`] when the replica catches back up).
//! The controller runs on `worker::Worker`: `run_now()` is the
//! deterministic test hook, and shutdown is clean (the in-flight pass
//! finishes, then the thread joins).
//!
//! # Checkpoints: ship before rotate
//!
//! A leader checkpoint rotates its WAL (new generation, records reset)
//! once every record is folded into the snapshot. Records of the retiring
//! generation that were never shipped would be lost to followers, so
//! [`ReplicaSet::checkpoint_leader`] drains the tail to every follower
//! *first*, then saves. Followers observe the rotation as a generation
//! change on the next shipped batch and reset their local log.
//!
//! # Fenced failover
//!
//! When a leader dies (or is partitioned away), [`ReplicaSet::promote`]
//! turns a follower into a leader — **with a fence**. Promotion bumps the
//! fleet's fence epoch, persists it in the promoted follower log's header
//! ([`streach_storage::FollowerLog::set_epoch`]), and fences the deposed
//! leader's WAL handle ([`streach_storage::Wal::fence`]) *before* the new
//! leader accepts its first write: any later append or fsync on the old
//! leader fails with a typed [`StorageError::Fenced`] before the record
//! could be acked. A partitioned-but-alive old leader therefore rejects
//! writes loudly instead of silently diverging from the promoted fleet —
//! no out-of-band "the leader is really gone" guarantee needed. The
//! promoted engine attaches its own follower log (a byte-compatible WAL
//! whose applied prefix is recorded in the engine) and replays nothing
//! when it was converged, exactly the shipped-but-unapplied suffix
//! otherwise. The remaining set is retired: further shipping reports the
//! fence instead of feeding replicas from a deposed leader's log.

use std::collections::VecDeque;
use std::path::Path;
use std::sync::{Arc, Mutex as StdMutex, MutexGuard as StdMutexGuard};
use std::time::Duration;

use parking_lot::Mutex;
use streach_storage::{FollowerLog, ShippedBatch, StorageError, StorageResult, WalTail};

use crate::engine::ReachabilityEngine;
use crate::ingest::WalAttach;
use crate::worker::Worker;

/// One follower: an engine applying shipped records plus its local
/// byte-compatible copy of the leader's WAL.
struct Follower {
    engine: Arc<ReachabilityEngine>,
    log: FollowerLog,
    /// Records persisted in the log but not yet applied — a faulted apply
    /// parks the suffix here and the next shipping pass retries it through
    /// the exactly-once gate (so nothing is lost and nothing re-replays).
    pending: VecDeque<(u64, u64, Vec<u8>)>,
}

impl Follower {
    /// Persists a polled batch (log frames + pending queue) **without**
    /// applying. Staging every follower before any apply runs means an
    /// apply fault on one follower can never lose the batch for another —
    /// the tail cursor only moves forward.
    fn accept(&mut self, batch: &ShippedBatch) -> StorageResult<()> {
        if batch.generation != self.log.generation() {
            // A generation change always starts at record 0 (the leader
            // rotated); anything else means this follower missed a
            // rotation's worth of records.
            if batch.start_record != 0 {
                return Err(StorageError::corrupt(format!(
                    "follower log at generation {} cannot accept generation {} \
                     starting mid-stream at record {}",
                    self.log.generation(),
                    batch.generation,
                    batch.start_record
                )));
            }
            if !self.pending.is_empty() {
                // The leader rotated while shipped records of the retiring
                // generation were still unapplied here (its checkpoint only
                // waits for its *own* applies). Dropping them would diverge
                // this replica silently; surface it instead.
                return Err(StorageError::corrupt(format!(
                    "leader rotated to generation {} while {} shipped records \
                     of generation {} were still unapplied on this follower",
                    batch.generation,
                    self.pending.len(),
                    self.log.generation()
                )));
            }
            self.log.reset(batch.generation)?;
        }
        self.log.append_shipped(batch)?;
        for (i, payload) in batch.payloads.iter().enumerate() {
            self.pending.push_back((
                batch.generation,
                batch.start_record + i as u64,
                payload.clone(),
            ));
        }
        Ok(())
    }

    /// Applies queued records in order through the exactly-once gate. On a
    /// fault the failing record stays at the front for the next pass.
    fn drain_pending(&mut self) -> StorageResult<()> {
        while let Some((generation, ordinal, payload)) = self.pending.front() {
            let record = crate::ingest::decode_record(payload)?;
            self.engine.apply_replicated(
                *generation,
                *ordinal,
                &record.points,
                record.prenormalized,
            )?;
            self.pending.pop_front();
        }
        Ok(())
    }
}

/// Observable replication state of one follower.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplicaStatus {
    /// Generation of the follower's local log (the last shipped one).
    pub shipped_generation: u64,
    /// Records persisted in the follower's local log.
    pub shipped_records: u64,
    /// WAL generation the follower's engine has applied into.
    pub applied_generation: u64,
    /// Records of that generation the engine has applied (its offset).
    pub applied_records: u64,
}

impl ReplicaStatus {
    /// Records shipped to this follower but not yet applied by its engine.
    /// When shipped and applied generations disagree — the follower is
    /// mid-rotation, exactly when it is most behind — the true pending
    /// count is not derivable from the counters alone, so this reports the
    /// saturating conservative bound: every record of the shipped
    /// generation's log, and never less than 1 (the rotation itself is
    /// still pending), so a lagging follower can never read as converged.
    pub fn lag_records(&self) -> u64 {
        if self.shipped_generation == self.applied_generation {
            self.shipped_records.saturating_sub(self.applied_records)
        } else {
            self.shipped_records.max(1)
        }
    }
}

/// Interior state of a [`ReplicaSet`]: the shared tail cursor, the
/// followers, and the fence latch a promotion leaves behind.
struct Shipping {
    tail: WalTail,
    followers: Vec<Follower>,
    /// Set by [`ReplicaSet::promote`]: `(deposed epoch, promoted epoch)`.
    /// A retired set refuses to ship — its source log belongs to a deposed
    /// leader.
    retired: Option<(u64, u64)>,
}

/// A leader engine, its WAL tail, and the set of followers records are
/// shipped to. Shipping, status and checkpointing take `&self` (one
/// internal lock), so a background [`ReplicationController`], an explicit
/// checkpoint, and serving reads coexist on one `Arc<ReplicaSet>`; the
/// follower engines serve reads concurrently — apply goes through the same
/// ingest lock batch ingest takes.
pub struct ReplicaSet {
    leader: Arc<ReachabilityEngine>,
    shipping: Mutex<Shipping>,
}

impl ReplicaSet {
    /// Starts a replica set for `leader`, whose WAL lives at `leader_wal`
    /// (the path passed to [`ReachabilityEngine::attach_wal`]).
    pub fn new<P: AsRef<Path>>(leader: Arc<ReachabilityEngine>, leader_wal: P) -> Self {
        Self {
            leader,
            shipping: Mutex::new(Shipping {
                tail: WalTail::new(leader_wal),
                followers: Vec::new(),
                retired: None,
            }),
        }
    }

    /// The leader engine.
    pub fn leader(&self) -> &Arc<ReachabilityEngine> {
        &self.leader
    }

    /// Registers a follower and creates its local log at `log_path`.
    /// `engine` must be a replica of the leader's state — typically opened
    /// from a copy of the leader's snapshot
    /// ([`ReachabilityEngine::open_snapshot_standalone`] when the snapshot
    /// was saved self-contained) — and must **not** have a WAL attached
    /// (followers are read-only until promoted). Register followers before
    /// the first [`ReplicaSet::ship`] call (or right after a leader
    /// checkpoint): the tail cursor is shared, so records polled earlier
    /// are not re-shipped to late joiners.
    pub fn add_replica<P: AsRef<Path>>(
        &self,
        engine: Arc<ReachabilityEngine>,
        log_path: P,
    ) -> StorageResult<usize> {
        let (generation, _) = engine.wal_position();
        let log = FollowerLog::create(log_path, generation)?;
        let mut shipping = self.shipping.lock();
        shipping.followers.push(Follower {
            engine,
            log,
            pending: VecDeque::new(),
        });
        Ok(shipping.followers.len() - 1)
    }

    /// The follower engine registered as `index` (serving reads).
    pub fn replica(&self, index: usize) -> Arc<ReachabilityEngine> {
        Arc::clone(&self.shipping.lock().followers[index].engine)
    }

    /// Number of registered followers.
    pub fn num_replicas(&self) -> usize {
        self.shipping.lock().followers.len()
    }

    /// Polls the leader's WAL and ships every newly durable record to
    /// every follower: frames are persisted verbatim into each local log,
    /// then applied through the exactly-once replicated-apply gate.
    /// Returns the number of records shipped. A torn leader tail stops the
    /// batch early and is retried on the next call; a faulted *apply*
    /// leaves the record persisted-but-pending and the next call retries
    /// it (never re-reading it from the leader). After a promotion the set
    /// is retired and shipping fails with the typed fence error.
    pub fn ship(&self) -> StorageResult<u64> {
        let mut guard = self.shipping.lock();
        let shipping = &mut *guard;
        if let Some((epoch, required)) = shipping.retired {
            return Err(StorageError::Fenced { epoch, required });
        }
        // Retry records a faulted earlier pass left persisted-but-pending
        // before polling for new ones — order is everything here.
        for follower in &mut shipping.followers {
            follower.drain_pending()?;
        }
        let mut shipped = 0u64;
        while let Some(batch) = shipping.tail.poll()? {
            // Stage into every follower first, then apply: the tail cursor
            // has already moved past this batch, so every follower must
            // hold it before any apply is allowed to fault.
            for follower in &mut shipping.followers {
                follower.accept(&batch)?;
            }
            for follower in &mut shipping.followers {
                follower.drain_pending()?;
            }
            shipped += batch.payloads.len() as u64;
        }
        // A drained poll still latches a rotated header: when the leader
        // checkpointed and its fresh generation holds no records yet,
        // propagate the rotation so caught-up followers converge on the new
        // generation instead of reporting the retired one until the next
        // record arrives. Generations only move forward, so a tail that has
        // not latched onto the leader's log yet (generation 0) is ignored.
        let (tail_generation, tail_records) = shipping.tail.position();
        if tail_records == 0 {
            for follower in &mut shipping.followers {
                if follower.pending.is_empty() && tail_generation > follower.log.generation() {
                    follower.log.reset(tail_generation)?;
                    follower
                        .engine
                        .observe_replicated_rotation(tail_generation)?;
                }
            }
        }
        Ok(shipped)
    }

    /// Replication state of every follower, in registration order.
    pub fn status(&self) -> Vec<ReplicaStatus> {
        self.shipping
            .lock()
            .followers
            .iter()
            .map(|f| {
                let (applied_generation, applied_records) = f.engine.wal_position();
                ReplicaStatus {
                    shipped_generation: f.log.generation(),
                    shipped_records: f.log.records(),
                    applied_generation,
                    applied_records,
                }
            })
            .collect()
    }

    /// Per-follower lag **against the leader**, in records: how many
    /// records each follower's engine has yet to apply to reach the
    /// leader's WAL position. This is the SLO observable — unlike
    /// [`ReplicaStatus::lag_records`] (shipped vs applied), it also counts
    /// records the shipper has not even polled yet. A follower whose
    /// applied generation trails the leader's reports the saturating
    /// conservative bound (everything in the leader's current generation,
    /// never less than 1).
    pub fn leader_lag(&self) -> Vec<u64> {
        let (leader_generation, leader_applied) = self.leader.wal_position();
        self.shipping
            .lock()
            .followers
            .iter()
            .map(|f| {
                let (applied_generation, applied_records) = f.engine.wal_position();
                if applied_generation == leader_generation {
                    leader_applied.saturating_sub(applied_records)
                } else {
                    leader_applied.max(1)
                }
            })
            .collect()
    }

    /// `true` when every follower has applied exactly the leader's WAL
    /// position — at which point leader and followers answer every query
    /// bit-identically.
    pub fn converged(&self) -> bool {
        let (generation, applied) = self.leader.wal_position();
        self.status()
            .iter()
            .all(|s| s.applied_generation == generation && s.applied_records == applied)
    }

    /// Checkpoints the leader into `dir` with the **ship-before-rotate**
    /// protocol: first drains the WAL tail to every follower, then saves —
    /// the save may rotate the leader's WAL (retiring records followers
    /// could otherwise never receive). Incremental, so a periodic
    /// checkpoint of a serving leader stays cheap.
    pub fn checkpoint_leader<P: AsRef<Path>>(&self, dir: P) -> StorageResult<()> {
        self.ship()?;
        self.leader.save_incremental_snapshot(&dir)?;
        // The save may have rotated the leader's WAL; ship again so
        // followers observe the new (empty) generation right away instead
        // of on the next scheduled shipping round.
        self.ship()?;
        Ok(())
    }

    /// Fails over to follower `index` — **fenced**. The promotion:
    ///
    /// 1. bumps the fleet's fence epoch past the deposed leader's,
    /// 2. fences the old leader's WAL handle, so any write it still tries
    ///    to ack fails with a typed [`StorageError::Fenced`] from here on,
    /// 3. persists the new epoch in the follower log's header, and
    /// 4. attaches that log to the follower's engine, making it the
    ///    writable new leader at the new epoch.
    ///
    /// The follower's log is a byte-compatible WAL, so the attach replays
    /// exactly the shipped-but-unapplied suffix (nothing, for a converged
    /// follower). Call [`ReplicaSet::ship`] first if the old leader's WAL
    /// is still readable, to shrink the data-loss window to records the
    /// old leader never made durable.
    ///
    /// The set is **retired**: later [`ReplicaSet::ship`] calls fail with
    /// the fence error (the source log belongs to a deposed leader), and a
    /// second promotion is refused. Rebuild a [`ReplicaSet`] around the
    /// promoted engine to resume replication.
    pub fn promote(&self, index: usize) -> StorageResult<(Arc<ReachabilityEngine>, WalAttach)> {
        let mut shipping = self.shipping.lock();
        if let Some((epoch, required)) = shipping.retired {
            return Err(StorageError::Fenced { epoch, required });
        }
        let follower = shipping.followers.swap_remove(index);
        let Follower {
            engine,
            mut log,
            pending,
        } = follower;
        // Unapplied-but-shipped records are persisted in the log: the
        // attach below replays them, so the queue can simply go.
        drop(pending);
        let deposed_epoch = self
            .leader
            .wal_handle()
            .map(|wal| wal.epoch())
            .unwrap_or(0)
            .max(log.epoch());
        let promoted_epoch = deposed_epoch + 1;
        // Fence the deposed leader BEFORE the new leader can accept a
        // write: from this point the old leader cannot ack anything, so
        // there is no window in which both sides ack.
        if let Some(wal) = self.leader.wal_handle() {
            wal.fence(promoted_epoch);
        }
        shipping.retired = Some((deposed_epoch, promoted_epoch));
        log.set_epoch(promoted_epoch)?;
        let log_path = log.path().to_path_buf();
        // Close our handle before the engine reopens the file as its WAL.
        drop(log);
        let attach = engine.attach_wal(&log_path)?;
        Ok((engine, attach))
    }
}

/// Tuning for the background [`ReplicationController`].
#[derive(Debug, Clone)]
pub struct ReplicationConfig {
    /// Cadence of shipping passes when nothing kicks the worker.
    pub poll_interval: Duration,
    /// Per-replica lag (records behind the leader, see
    /// [`ReplicaSet::leader_lag`]) above which an edge-triggered
    /// [`ReplicationEvent::SloBreached`] fires. 0 disables the check.
    pub lag_slo_records: u64,
    /// First retry delay after a failed shipping pass; doubles per
    /// consecutive failure. A kick ([`ReplicationController::run_now`])
    /// bypasses the backoff.
    pub retry_backoff: Duration,
    /// Ceiling for the failure backoff.
    pub max_backoff: Duration,
}

impl Default for ReplicationConfig {
    fn default() -> Self {
        Self {
            poll_interval: Duration::from_millis(100),
            lag_slo_records: 512,
            retry_backoff: Duration::from_millis(25),
            max_backoff: Duration::from_secs(1),
        }
    }
}

/// Typed events the background shipping worker surfaces (drain with
/// [`ReplicationController::take_events`]).
#[derive(Debug, Clone)]
pub enum ReplicationEvent {
    /// A shipping pass failed; the worker retries with backoff.
    ShipFailed {
        /// Rendered error of the failed pass.
        error: String,
        /// Failed passes since the last success (this one included).
        consecutive_failures: u64,
    },
    /// A replica's lag against the leader crossed the configured SLO.
    /// Edge-triggered: fires once per excursion, not once per pass.
    SloBreached {
        /// Index of the replica in registration order.
        replica: usize,
        /// Its lag, in records behind the leader, when the breach fired.
        lag_records: u64,
        /// The configured [`ReplicationConfig::lag_slo_records`].
        slo_records: u64,
    },
    /// A previously breached replica caught back up under the SLO.
    SloRecovered {
        /// Index of the replica in registration order.
        replica: usize,
        /// Its lag when it recovered.
        lag_records: u64,
    },
    /// The set was retired by a promotion: the worker stops shipping (the
    /// source log belongs to a deposed leader) and parks.
    Fenced {
        /// The deposed leader's fence epoch.
        epoch: u64,
        /// The promoted leader's fence epoch.
        required: u64,
    },
}

/// Activity counters of a [`ReplicationController`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplicationStats {
    /// Shipping passes completed (successful or not).
    pub passes: u64,
    /// Records shipped to every follower in total.
    pub records_shipped: u64,
    /// Shipping passes that failed.
    pub ship_errors: u64,
    /// SLO breach events fired (edge-triggered excursions, not passes).
    pub slo_breaches: u64,
}

struct ReplWorkerState {
    stats: ReplicationStats,
    events: Vec<ReplicationEvent>,
    consecutive_failures: u64,
    /// Per-replica latched breach flag — the SLO events edge-trigger.
    breached: Vec<bool>,
    /// The set was retired by a promotion; passes become no-ops.
    retired: bool,
}

struct ReplShared {
    set: Arc<ReplicaSet>,
    config: ReplicationConfig,
    state: StdMutex<ReplWorkerState>,
}

impl ReplShared {
    fn lock(&self) -> StdMutexGuard<'_, ReplWorkerState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// Owns background WAL shipping for one [`ReplicaSet`]: a worker (it runs
/// on `worker::Worker`, the crate's one kick / run_now / shutdown
/// protocol) calls [`ReplicaSet::ship`] on a cadence, retries faults
/// with exponential backoff, watches per-replica lag against a configured
/// SLO, and surfaces everything as typed [`ReplicationEvent`]s. Dropping
/// the controller (or calling [`ReplicationController::shutdown`]) stops
/// the worker cleanly: the in-flight pass finishes, then the thread joins.
pub struct ReplicationController {
    shared: Arc<ReplShared>,
    worker: Worker,
}

impl ReplicationController {
    /// Spawns the background shipping worker over `set`.
    pub fn spawn(set: Arc<ReplicaSet>, config: ReplicationConfig) -> Self {
        let replicas = set.num_replicas();
        let shared = Arc::new(ReplShared {
            set,
            config,
            state: StdMutex::new(ReplWorkerState {
                stats: ReplicationStats::default(),
                events: Vec::new(),
                consecutive_failures: 0,
                breached: vec![false; replicas],
                retired: false,
            }),
        });
        let worker = {
            let idle = Arc::clone(&shared);
            let pass = Arc::clone(&shared);
            Worker::spawn(
                "streach-replication",
                move || Self::wait_for(&idle.config, idle.lock().consecutive_failures),
                move || Self::run_pass(&pass),
            )
        };
        Self { shared, worker }
    }

    /// Idle wait before the next pass: the poll cadence, stretched by the
    /// failure backoff (doubled per consecutive failure, capped). Kicks
    /// bypass it.
    fn wait_for(config: &ReplicationConfig, consecutive_failures: u64) -> Duration {
        if consecutive_failures == 0 {
            return config.poll_interval;
        }
        let factor = 1u32 << consecutive_failures.min(16) as u32;
        config
            .retry_backoff
            .saturating_mul(factor)
            .min(config.max_backoff)
            .max(config.poll_interval)
    }

    /// One shipping pass: ship, classify the outcome, then re-check every
    /// replica's lag against the SLO. Errors are recorded as events, never
    /// propagated — the worker retries with backoff (or parks, once the
    /// set is retired by a promotion).
    fn run_pass(shared: &ReplShared) {
        let retired = shared.lock().retired;
        if !retired {
            match shared.set.ship() {
                Ok(shipped) => {
                    let mut state = shared.lock();
                    state.stats.records_shipped += shipped;
                    state.consecutive_failures = 0;
                }
                Err(StorageError::Fenced { epoch, required }) => {
                    let mut state = shared.lock();
                    state.retired = true;
                    state
                        .events
                        .push(ReplicationEvent::Fenced { epoch, required });
                }
                Err(error) => {
                    let mut state = shared.lock();
                    state.stats.ship_errors += 1;
                    state.consecutive_failures += 1;
                    let consecutive_failures = state.consecutive_failures;
                    state.events.push(ReplicationEvent::ShipFailed {
                        error: error.to_string(),
                        consecutive_failures,
                    });
                }
            }
        }

        let lags = shared.set.leader_lag();
        let slo = shared.config.lag_slo_records;
        if slo == 0 {
            return;
        }
        let mut state = shared.lock();
        if state.breached.len() < lags.len() {
            state.breached.resize(lags.len(), false);
        }
        for (replica, &lag_records) in lags.iter().enumerate() {
            if lag_records > slo && !state.breached[replica] {
                state.breached[replica] = true;
                state.stats.slo_breaches += 1;
                state.events.push(ReplicationEvent::SloBreached {
                    replica,
                    lag_records,
                    slo_records: slo,
                });
            } else if lag_records <= slo && state.breached[replica] {
                state.breached[replica] = false;
                state.events.push(ReplicationEvent::SloRecovered {
                    replica,
                    lag_records,
                });
            }
        }
    }

    /// Wakes the worker for an immediate shipping pass without waiting for
    /// it. Bypasses any failure backoff in progress.
    pub fn kick(&self) {
        self.worker.kick();
    }

    /// Kicks the worker and blocks until that pass has completed — the
    /// deterministic hook: after `run_now` returns, every record durable
    /// in the leader's WAL before the call has been shipped and applied to
    /// every reachable follower (or the failure is recorded as an event).
    pub fn run_now(&self) {
        self.worker.run_now();
    }

    /// Activity counters so far.
    pub fn stats(&self) -> ReplicationStats {
        ReplicationStats {
            passes: self.worker.passes(),
            ..self.shared.lock().stats
        }
    }

    /// Per-replica lag against the leader right now (see
    /// [`ReplicaSet::leader_lag`]).
    pub fn lag(&self) -> Vec<u64> {
        self.shared.set.leader_lag()
    }

    /// Drains the recorded events (oldest first).
    pub fn take_events(&self) -> Vec<ReplicationEvent> {
        std::mem::take(&mut self.shared.lock().events)
    }

    /// The replica set this controller ships for.
    pub fn set(&self) -> &Arc<ReplicaSet> {
        &self.shared.set
    }

    /// Stops the worker (the in-flight pass finishes), joins the thread,
    /// and returns any undrained events.
    pub fn shutdown(mut self) -> Vec<ReplicationEvent> {
        self.worker.stop();
        self.take_events()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::EngineBuilder;
    use crate::config::IndexConfig;
    use crate::query::{Algorithm, SQuery};
    use streach_roadnet::{GeneratorConfig, SegmentId, SyntheticCity};
    use streach_traj::{FleetConfig, TrajPoint, TrajectoryDataset};

    fn tmp_dir(name: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("streach-replicate-{}-{}", name, std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn copy_dir(src: &Path, dst: &Path) {
        std::fs::create_dir_all(dst).unwrap();
        for entry in std::fs::read_dir(src).unwrap().flatten() {
            if entry.file_type().unwrap().is_file() {
                std::fs::copy(entry.path(), dst.join(entry.file_name())).unwrap();
            }
        }
    }

    #[test]
    fn wait_for_backs_off_from_the_poll_interval_up_to_the_cap() {
        let config = ReplicationConfig {
            poll_interval: Duration::from_millis(10),
            retry_backoff: Duration::from_millis(25),
            max_backoff: Duration::from_secs(1),
            ..ReplicationConfig::default()
        };
        let ms = |failures| ReplicationController::wait_for(&config, failures).as_millis();
        assert_eq!(ms(0), 10, "no failure: the poll interval");
        assert_eq!(ms(1), 50);
        assert_eq!(ms(2), 100, "doubles per failure");
        assert_eq!(ms(3), 200);
        assert_eq!(ms(6), 1000, "capped at max_backoff");
        assert_eq!(ms(u64::MAX), 1000, "no overflow at any failure count");
        // A backoff shorter than the poll interval never shortens the wait.
        let slow = ReplicationConfig {
            poll_interval: Duration::from_secs(2),
            ..config
        };
        for failures in [0, 1, 5, 40] {
            assert_eq!(
                ReplicationController::wait_for(&slow, failures),
                Duration::from_secs(2)
            );
        }
    }

    /// The mid-rotation lag fix: a follower whose applied generation
    /// trails its shipped generation must never read as converged — it is
    /// exactly when it is most behind.
    #[test]
    fn lag_records_reports_a_conservative_bound_mid_rotation() {
        // Same generation: the plain difference.
        let aligned = ReplicaStatus {
            shipped_generation: 2,
            shipped_records: 9,
            applied_generation: 2,
            applied_records: 4,
        };
        assert_eq!(aligned.lag_records(), 5);
        // Mid-rotation with records already shipped into the new log:
        // every one of them may be unapplied.
        let rotating = ReplicaStatus {
            shipped_generation: 2,
            shipped_records: 5,
            applied_generation: 1,
            applied_records: 7,
        };
        assert_eq!(
            rotating.lag_records(),
            5,
            "records of the new generation's log are all potentially pending"
        );
        // Mid-rotation with an empty new log: the rotation itself is still
        // pending — never 0.
        let fresh = ReplicaStatus {
            shipped_generation: 2,
            shipped_records: 0,
            applied_generation: 1,
            applied_records: 7,
        };
        assert!(
            fresh.lag_records() >= 1,
            "a mid-rotation follower must not report converged"
        );
        // Converged is still 0.
        let converged = ReplicaStatus {
            shipped_generation: 3,
            shipped_records: 6,
            applied_generation: 3,
            applied_records: 6,
        };
        assert_eq!(converged.lag_records(), 0);
    }

    #[test]
    fn shipped_replica_converges_and_answers_identically() {
        let root = tmp_dir("converge");
        let city = SyntheticCity::generate(GeneratorConfig::small());
        let network = Arc::new(city.network);
        let dataset = TrajectoryDataset::simulate(
            &network,
            FleetConfig {
                num_taxis: 8,
                num_days: 2,
                ..FleetConfig::tiny()
            },
        );
        let leader = Arc::new(
            EngineBuilder::new(network.clone(), &dataset)
                .index_config(IndexConfig::default())
                .build(),
        );
        leader
            .save_snapshot_self_contained(root.join("leader"))
            .unwrap();
        leader
            .attach_wal(root.join("leader").join("ingest.wal"))
            .unwrap();

        // Bootstrap a replica from shipped artifacts alone.
        copy_dir(&root.join("leader"), &root.join("replica"));
        let _ = std::fs::remove_file(root.join("replica").join("ingest.wal"));
        let replica =
            Arc::new(ReachabilityEngine::open_snapshot_standalone(root.join("replica")).unwrap());

        let set = ReplicaSet::new(leader.clone(), root.join("leader").join("ingest.wal"));
        set.add_replica(replica.clone(), root.join("replica").join("follower.wal"))
            .unwrap();

        // Ingest at the leader, ship, and compare.
        let points: Vec<TrajPoint> = (0..20)
            .map(|i| TrajPoint {
                traj_id: 1000 + i % 3,
                date: 1,
                segment: SegmentId((i * 7) % network.num_segments() as u32),
                enter_time_s: 9 * 3600 + i * 45,
            })
            .collect();
        leader.ingest(&points).unwrap();
        assert!(!set.converged());
        let shipped = set.ship().unwrap();
        assert!(shipped > 0);
        assert!(set.converged());
        let status = &set.status()[0];
        assert_eq!(status.lag_records(), 0);
        assert_eq!(set.leader_lag(), vec![0]);

        let query = SQuery {
            location: network.bounds().center(),
            start_time_s: 9 * 3600,
            duration_s: 600,
            prob: 0.2,
        };
        let want = leader.try_s_query(&query, Algorithm::SqmbTbs).unwrap();
        let got = replica.try_s_query(&query, Algorithm::SqmbTbs).unwrap();
        assert_eq!(want.region, got.region);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn checkpoint_ships_before_rotating_and_followers_track_generations() {
        let root = tmp_dir("rotate");
        let city = SyntheticCity::generate(GeneratorConfig::small());
        let network = Arc::new(city.network);
        let dataset = TrajectoryDataset::simulate(
            &network,
            FleetConfig {
                num_taxis: 6,
                num_days: 2,
                ..FleetConfig::tiny()
            },
        );
        let leader = Arc::new(
            EngineBuilder::new(network.clone(), &dataset)
                .index_config(IndexConfig::default())
                .build(),
        );
        let home = root.join("leader");
        leader.save_snapshot_self_contained(&home).unwrap();
        leader.attach_wal(home.join("ingest.wal")).unwrap();

        copy_dir(&home, &root.join("replica"));
        let _ = std::fs::remove_file(root.join("replica").join("ingest.wal"));
        let replica =
            Arc::new(ReachabilityEngine::open_snapshot_standalone(root.join("replica")).unwrap());
        let set = ReplicaSet::new(leader.clone(), home.join("ingest.wal"));
        set.add_replica(replica.clone(), root.join("replica").join("follower.wal"))
            .unwrap();

        let batch = |base: u32| -> Vec<TrajPoint> {
            (0..5)
                .map(|i| TrajPoint {
                    traj_id: 500 + i,
                    date: 1,
                    segment: SegmentId((base + i * 11) % network.num_segments() as u32),
                    enter_time_s: 10 * 3600 + (base + i) * 30,
                })
                .collect()
        };
        leader.ingest(&batch(0)).unwrap();
        // The checkpoint drains the tail first, then rotates the WAL.
        set.checkpoint_leader(&home).unwrap();
        assert!(set.converged());
        let gen_after_rotate = leader.wal_position().0;
        assert!(gen_after_rotate > 0, "home checkpoint rotates the WAL");

        // Records of the new generation ship too; the follower log resets.
        leader.ingest(&batch(100)).unwrap();
        set.ship().unwrap();
        assert!(set.converged());
        let status = &set.status()[0];
        assert_eq!(status.shipped_generation, gen_after_rotate);
        assert_eq!(status.applied_generation, gen_after_rotate);

        let query = SQuery {
            location: network.bounds().center(),
            start_time_s: 10 * 3600,
            duration_s: 600,
            prob: 0.2,
        };
        let want = leader.try_s_query(&query, Algorithm::SqmbTbs).unwrap();
        let got = replica.try_s_query(&query, Algorithm::SqmbTbs).unwrap();
        assert_eq!(want.region, got.region);

        // Promotion: the converged follower becomes a writable leader —
        // and the deposed leader is fenced.
        let (promoted, attach) = set.promote(0).unwrap();
        assert_eq!(
            attach.records_replayed, 0,
            "converged follower replays nothing"
        );
        promoted.ingest(&batch(200)).unwrap();
        let err = leader.ingest(&batch(300)).unwrap_err();
        assert!(
            matches!(err, StorageError::Fenced { .. }),
            "deposed leader must fail typed: {err}"
        );
        // The retired set refuses to ship or promote again.
        assert!(matches!(set.ship(), Err(StorageError::Fenced { .. })));
        let _ = std::fs::remove_dir_all(&root);
    }
}
