//! The high-level reachability query engine.

use std::sync::{Arc, Condvar};
use std::time::Instant;

use parking_lot::Mutex;
use streach_roadnet::{RoadNetwork, SegmentId, ShardMap};
use streach_storage::{StorageError, StorageResult, Wal};
use streach_traj::TrajPoint;

use crate::con_index::ConIndex;
use crate::config::IndexConfig;
use crate::ingest::{
    IngestObserver, IngestOutcome, IngestState, IngestTouch, LastVisit, LastVisitMap, WalAttach,
};
use crate::query::es::exhaustive_search;
use crate::query::mqmb::{mqmb, mqmb_trace_back};
use crate::query::sqmb::sqmb;
use crate::query::tbs::trace_back_search;
use crate::query::verifier::VerifierCore;
use crate::query::{Algorithm, MQuery, MQueryAlgorithm, QueryError, QueryOutcome, SQuery};
use crate::region::ReachableRegion;
use crate::snapshot::StoreRole;
use crate::st_index::{DeltaStats, StIndex};
use crate::stats::QueryStats;
use crate::time::slot_of;

/// The spatio-temporal reachability query engine: the ST-Index, the
/// Con-Index and the query processing algorithms behind one façade.
///
/// Use [`crate::builder::EngineBuilder`] to construct one from a road network
/// and a trajectory dataset.
pub struct ReachabilityEngine {
    network: Arc<RoadNetwork>,
    st_index: StIndex,
    con_index: ConIndex,
    config: IndexConfig,
    /// Streaming-ingest state: the attached WAL, its bookkeeping and the
    /// per-trajectory last-visit table (see [`crate::ingest`]). Held for
    /// the duration of a snapshot save or a compaction, so maintenance
    /// sees a frozen delta — queries never touch this lock. A `std` mutex
    /// (not the parking_lot shim) so group-committed ingest callers can
    /// block on [`ReachabilityEngine::apply_cv`] for their apply turn.
    ingest: std::sync::Mutex<IngestState>,
    /// Wakes ingest callers waiting to apply their WAL record in ordinal
    /// order, and callers parked behind a rotation.
    apply_cv: Condvar,
    /// (pages, CRC-32) of the base posting page file this engine was opened
    /// from, if any — lets an incremental save skip re-exporting an
    /// unchanged base heap. Cleared by [`ReachabilityEngine::compact`].
    base_pages: Mutex<Option<(u64, u32)>>,
    /// Sequence number of the most recently committed delta page file (see
    /// [`crate::snapshot::delta_pages_file`]); each save publishes the next
    /// one so a crash mid-save never clobbers the previous checkpoint.
    delta_seq: std::sync::atomic::AtomicU64,
    /// The snapshot directory this engine was opened from (or first saved
    /// to): the only directory whose saves may rotate the WAL — a backup
    /// save elsewhere must not discard records the home snapshot has not
    /// folded in.
    snapshot_home: Mutex<Option<std::path::PathBuf>>,
    /// Spatial ownership of a shard engine: the partition map and this
    /// engine's shard id. When set, [`ReachabilityEngine::apply_batch`]
    /// folds only owned segments into the ST-Index postings while the
    /// statistics layers (Con-Index speed pairs, day count, last-visit
    /// table) stay global — "postings sharded, statistics replicated" —
    /// so per-shard bounding regions match the single-engine ones exactly.
    /// Set once at build/open, before the engine is shared.
    shard: std::sync::OnceLock<(Arc<ShardMap>, u16)>,
    /// Whether snapshots of this engine embed the road network (set by
    /// [`ReachabilityEngine::save_snapshot_self_contained`] and by opening
    /// a self-contained snapshot). Once set, every later save — including
    /// incremental checkpoints — keeps the `road_network` section, so a
    /// replica bootstrapped from shipped artifacts stays bootstrappable.
    self_contained: std::sync::atomic::AtomicBool,
    /// Observers notified after every applied ingest batch with what it
    /// touched ([`IngestTouch`]), held weakly so a dropped consumer (a
    /// result cache, a metrics sink) unregisters itself. Notification runs
    /// under the ingest lock: a cache that invalidates in its callback can
    /// never observe the new postings before the invalidation.
    touch_observers: Mutex<Vec<std::sync::Weak<IngestObserver>>>,
}

impl ReachabilityEngine {
    pub(crate) fn new(
        network: Arc<RoadNetwork>,
        st_index: StIndex,
        con_index: ConIndex,
        config: IndexConfig,
    ) -> Self {
        Self {
            network,
            st_index,
            con_index,
            config,
            ingest: std::sync::Mutex::new(IngestState::default()),
            apply_cv: Condvar::new(),
            base_pages: Mutex::new(None),
            delta_seq: std::sync::atomic::AtomicU64::new(0),
            snapshot_home: Mutex::new(None),
            shard: std::sync::OnceLock::new(),
            self_contained: std::sync::atomic::AtomicBool::new(false),
            touch_observers: Mutex::new(Vec::new()),
        }
    }

    /// Registers an ingest observer: `observer` is called after every
    /// successfully applied batch — live ingest, WAL replay on attach, or
    /// replicated apply — with the [`IngestTouch`] describing what the
    /// batch changed. The engine keeps only a [`std::sync::Weak`]
    /// reference, so dropping the `Arc` unregisters the observer.
    ///
    /// Callbacks run under the ingest lock and must not call back into
    /// ingest, compaction or snapshotting; queries are fine.
    pub fn observe_ingest(&self, observer: &Arc<IngestObserver>) {
        self.touch_observers.lock().push(Arc::downgrade(observer));
    }

    /// Delivers `touch` to the registered observers, dropping the dead ones.
    fn notify_touch(&self, touch: &IngestTouch) {
        if touch.is_empty() {
            return;
        }
        let mut observers = self.touch_observers.lock();
        observers.retain(|weak| match weak.upgrade() {
            Some(observer) => {
                observer(touch);
                true
            }
            None => false,
        });
    }

    /// Declares this engine a shard: batches fold only postings of segments
    /// `map` assigns to `shard_id` (statistics stay global). Must be set
    /// before any points are applied; a second call is ignored.
    pub(crate) fn set_shard_ownership(&self, map: Arc<ShardMap>, shard_id: u16) {
        let _ = self.shard.set((map, shard_id));
    }

    /// The shard ownership of this engine, if it is a shard of a partition.
    pub fn shard_ownership(&self) -> Option<(Arc<ShardMap>, u16)> {
        self.shard.get().cloned()
    }

    /// Current WAL position of this engine: (generation, applied records).
    /// For a leader this advances with ingest; for a replica it advances as
    /// shipped records are applied — the replication-lag observable.
    pub fn wal_position(&self) -> (u64, u64) {
        let state = self.ingest_state();
        (state.wal_generation, state.wal_applied)
    }

    /// The engine's attached WAL handle, if any — the fencing hook: a
    /// promotion fences the deposed leader through this handle so no write
    /// can be acked after the replica takes over.
    pub(crate) fn wal_handle(&self) -> Option<Arc<streach_storage::Wal>> {
        self.ingest_state().wal.clone()
    }

    /// Locks the ingest state (poisoning is translated to "keep going with
    /// the inner data", matching the parking_lot behaviour used elsewhere).
    fn ingest_state(&self) -> std::sync::MutexGuard<'_, IngestState> {
        self.ingest.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Parks the caller on the apply condition variable.
    fn wait_apply_turn<'a>(
        &self,
        guard: std::sync::MutexGuard<'a, IngestState>,
    ) -> std::sync::MutexGuard<'a, IngestState> {
        self.apply_cv.wait(guard).unwrap_or_else(|e| e.into_inner())
    }

    /// The sequence number the next saved delta page file should use.
    pub(crate) fn next_delta_seq(&self) -> u64 {
        self.delta_seq.load(std::sync::atomic::Ordering::SeqCst) + 1
    }

    /// Records the sequence number of a committed delta page file.
    pub(crate) fn commit_delta_seq(&self, seq: u64) {
        self.delta_seq
            .fetch_max(seq, std::sync::atomic::Ordering::SeqCst);
    }

    /// Records the directory this engine's snapshot state lives in.
    pub(crate) fn set_snapshot_home(&self, dir: &std::path::Path) {
        let mut home = self.snapshot_home.lock();
        if home.is_none() {
            *home = std::fs::canonicalize(dir).ok();
        }
    }

    /// Installs the metadata a snapshot open recovered: the base page
    /// file's identity and the WAL bookkeeping (see [`crate::snapshot`]).
    pub(crate) fn install_snapshot_meta(
        &self,
        base_pages: (u64, u32),
        wal_generation: u64,
        wal_applied: u64,
        last_visit: LastVisitMap,
    ) {
        *self.base_pages.lock() = Some(base_pages);
        let mut state = self.ingest_state();
        state.wal_generation = wal_generation;
        state.wal_applied = wal_applied;
        state.last_visit = last_visit;
    }

    /// Seeds the last-visit table from a batch dataset (see
    /// [`crate::builder::EngineBuilder::build`]).
    pub(crate) fn seed_last_visit(&self, dataset: &streach_traj::TrajectoryDataset) {
        let mut state = self.ingest_state();
        for traj in dataset.trajectories() {
            if let Some(last) = traj.visits.last() {
                state.last_visit.insert(
                    (traj.traj_id, traj.date),
                    LastVisit {
                        segment: last.segment.0,
                        enter_time_s: last.enter_time_s,
                    },
                );
            }
        }
    }

    /// The ingest bookkeeping to persist, captured under the ingest lock
    /// the caller already holds for the whole save.
    pub(crate) fn encode_ingest_meta(state: &IngestState) -> Vec<u8> {
        crate::ingest::encode_ingest_meta(
            state.wal_generation,
            state.wal_applied,
            &state.last_visit,
        )
    }

    /// The recorded identity of the base page file, if this engine still
    /// serves the heap it was opened from.
    pub(crate) fn base_pages_identity(&self) -> Option<(u64, u32)> {
        *self.base_pages.lock()
    }

    /// Records the identity of a freshly exported base page file.
    pub(crate) fn set_base_pages_identity(&self, identity: (u64, u32)) {
        *self.base_pages.lock() = Some(identity);
    }

    /// The road network.
    pub fn network(&self) -> &Arc<RoadNetwork> {
        &self.network
    }

    /// The ST-Index.
    pub fn st_index(&self) -> &StIndex {
        &self.st_index
    }

    /// The Con-Index.
    pub fn con_index(&self) -> &ConIndex {
        &self.con_index
    }

    /// The index configuration.
    pub fn config(&self) -> &IndexConfig {
        &self.config
    }

    /// Persists the engine into a snapshot directory (see
    /// [`crate::snapshot`]): the ST-Index posting heap as a real page file,
    /// the delta heap of any ingested data as a second page file, plus a
    /// checksummed container holding the temporal and delta directories,
    /// the speed statistics, the cached Con-Index tables, the ingest
    /// bookkeeping and the configuration. All files are fsynced before this
    /// returns. The ingest lock is held throughout, so the saved state is a
    /// consistent cut even while other threads keep querying.
    pub fn save_snapshot<P: AsRef<std::path::Path>>(
        &self,
        dir: P,
    ) -> streach_storage::StorageResult<()> {
        self.save_impl(dir.as_ref(), false)
    }

    /// Like [`ReachabilityEngine::save_snapshot`], but embeds the road
    /// network itself (a `road_network` section, bit-exact codec) so the
    /// snapshot directory is **self-contained**: a replica host opens it
    /// with [`ReachabilityEngine::open_snapshot_standalone`] from shipped
    /// artifacts alone, no out-of-band map data needed. The embedded
    /// network is still validated against the stored fingerprint at open.
    /// Self-containedness is sticky: every later save of this engine —
    /// including incremental checkpoints — keeps the section.
    pub fn save_snapshot_self_contained<P: AsRef<std::path::Path>>(
        &self,
        dir: P,
    ) -> streach_storage::StorageResult<()> {
        self.self_contained
            .store(true, std::sync::atomic::Ordering::SeqCst);
        self.save_impl(dir.as_ref(), false)
    }

    /// Whether saves of this engine embed the road network (see
    /// [`ReachabilityEngine::save_snapshot_self_contained`]).
    pub(crate) fn snapshot_self_contained(&self) -> bool {
        self.self_contained
            .load(std::sync::atomic::Ordering::SeqCst)
    }

    /// Marks this engine as opened from a self-contained snapshot, so
    /// checkpoints keep embedding the network.
    pub(crate) fn set_snapshot_self_contained(&self) {
        self.self_contained
            .store(true, std::sync::atomic::Ordering::SeqCst);
    }

    /// Like [`ReachabilityEngine::save_snapshot`], but skips re-exporting
    /// the base posting page file when the target directory already holds
    /// the heap this engine was opened from (length-checked here; the
    /// CRC-32 recorded in the container is verified at open, so in-place
    /// rot cannot be served) — the fast path for a serving process that
    /// periodically checkpoints its streaming ingest: only the container,
    /// the small delta heap and the bookkeeping are rewritten.
    pub fn save_incremental_snapshot<P: AsRef<std::path::Path>>(
        &self,
        dir: P,
    ) -> streach_storage::StorageResult<()> {
        self.save_impl(dir.as_ref(), true)
    }

    fn save_impl(&self, dir: &std::path::Path, incremental: bool) -> StorageResult<()> {
        let mut state = self.ingest_state();
        crate::snapshot::save(self, dir, incremental, &state)?;
        self.set_snapshot_home(dir);
        // Every WAL record this snapshot covers never needs replaying:
        // start a fresh generation — but ONLY when the save went to the
        // engine's home directory. A backup saved elsewhere must not
        // discard records the home snapshot (the one a restart will open)
        // has not folded in. Also suppressed when a failed application
        // left unapplied records in the log — those must survive for the
        // next attach to replay. The "is every record folded in?" check and
        // the rotation are atomic inside the WAL, so a group-commit append
        // racing this checkpoint can never be discarded: either it landed
        // before the check (rotation is skipped, the record replays from
        // the log) or it lands in the fresh generation.
        let saved_to_home = std::fs::canonicalize(dir)
            .ok()
            .zip(self.snapshot_home.lock().clone())
            .is_some_and(|(a, b)| a == b);
        if saved_to_home && !state.prefix_broken {
            if let Some(wal) = &state.wal {
                if let Some(generation) = wal.rotate_if_applied(state.wal_applied)? {
                    state.wal_generation = generation;
                    state.wal_applied = 0;
                    state.apply_cursor = 0;
                    self.apply_cv.notify_all();
                }
            }
        }
        Ok(())
    }

    /// Reopens an engine from a snapshot directory **without touching the
    /// trajectory dataset**. The road network is a static input and is
    /// validated against the fingerprint stored in the snapshot; posting
    /// reads on the reopened engine are genuine page I/O against the
    /// snapshot's page file.
    pub fn open_snapshot<P: AsRef<std::path::Path>>(
        dir: P,
        network: Arc<RoadNetwork>,
    ) -> streach_storage::StorageResult<Self> {
        Self::open_snapshot_with_store(dir, network, |store| store)
    }

    /// Reopens an engine from a **self-contained** snapshot (one saved with
    /// [`ReachabilityEngine::save_snapshot_self_contained`]) without any
    /// external input: the road network is decoded from the snapshot's own
    /// `road_network` section, then validated against the stored
    /// fingerprint like every other open. This is how a replica host
    /// bootstraps from shipped artifacts alone. The container is read and
    /// checked once; the network and the index come from that one copy.
    /// Fails with [`streach_storage::StorageError::Corrupt`] when the
    /// snapshot was not saved self-contained.
    pub fn open_snapshot_standalone<P: AsRef<std::path::Path>>(
        dir: P,
    ) -> streach_storage::StorageResult<Self> {
        crate::snapshot::open_standalone(dir.as_ref())
    }

    /// Like [`ReachabilityEngine::open_snapshot`], but serves the sealed
    /// page files through an explicit [`streach_storage::StorageBackend`]
    /// instead of the one recorded in the snapshot config: buffered file
    /// reads (`File`) or a read-only memory mapping (`Mmap`). The override
    /// only affects how pages are *read*; the on-disk bytes and every query
    /// answer are identical across backends.
    pub fn open_snapshot_with_backend<P: AsRef<std::path::Path>>(
        dir: P,
        network: Arc<RoadNetwork>,
        backend: streach_storage::StorageBackend,
    ) -> streach_storage::StorageResult<Self> {
        Self::open_snapshot_with_stores_and_backend(dir, network, Some(backend), |_, store| store)
    }

    /// Like [`ReachabilityEngine::open_snapshot`], but lets the caller wrap
    /// the snapshot's page store before the engine takes ownership — the
    /// hook behind fault injection
    /// ([`streach_storage::FaultInjectingPageStore`] in
    /// `tests/fault_injection.rs`), and useful for any instrumentation
    /// wrapper (metrics, tracing) that should sit under the buffer pool.
    /// The wrapper sees the already-validated [`streach_storage::FilePageStore`];
    /// whatever it returns serves every posting read of the engine's life.
    pub fn open_snapshot_with_store<P, F>(
        dir: P,
        network: Arc<RoadNetwork>,
        wrap: F,
    ) -> streach_storage::StorageResult<Self>
    where
        P: AsRef<std::path::Path>,
        F: FnOnce(Box<dyn streach_storage::PageStore>) -> Box<dyn streach_storage::PageStore>,
    {
        let mut wrap = Some(wrap);
        Self::open_snapshot_with_stores(dir, network, move |role, store| match role {
            StoreRole::Base => (wrap.take().expect("base store is wrapped once"))(store),
            StoreRole::Delta => store,
        })
    }

    /// The most general snapshot open: `wrap` is called once per page store
    /// the engine will read from — the sealed **base** heap and the
    /// **delta** heap of previously ingested data (in that order) — so
    /// fault injection and instrumentation cover the streaming-ingest read
    /// and write paths too.
    pub fn open_snapshot_with_stores<P, F>(
        dir: P,
        network: Arc<RoadNetwork>,
        wrap: F,
    ) -> streach_storage::StorageResult<Self>
    where
        P: AsRef<std::path::Path>,
        F: FnMut(
            StoreRole,
            Box<dyn streach_storage::PageStore>,
        ) -> Box<dyn streach_storage::PageStore>,
    {
        Self::open_snapshot_with_stores_and_backend(dir, network, None, wrap)
    }

    /// [`ReachabilityEngine::open_snapshot_with_stores`] plus an optional
    /// [`streach_storage::StorageBackend`] override for the sealed page
    /// files (`None` uses the backend recorded in the snapshot config).
    /// Fault campaigns use this to run the same wrap script against both
    /// the buffered-file and the memory-mapped backend.
    pub fn open_snapshot_with_stores_and_backend<P, F>(
        dir: P,
        network: Arc<RoadNetwork>,
        backend: Option<streach_storage::StorageBackend>,
        wrap: F,
    ) -> streach_storage::StorageResult<Self>
    where
        P: AsRef<std::path::Path>,
        F: FnMut(
            StoreRole,
            Box<dyn streach_storage::PageStore>,
        ) -> Box<dyn streach_storage::PageStore>,
    {
        crate::snapshot::open(dir.as_ref(), network, backend, wrap)
    }

    /// Attaches a write-ahead log at `path` (created if missing) and
    /// replays every record the engine's snapshot has not folded in yet:
    /// after a crash the delta postings, speed statistics and day count are
    /// reconstructed exactly. Records already covered by the snapshot
    /// (matching generation, applied prefix) are skipped. Subsequent
    /// [`ReachabilityEngine::ingest`] calls log through this WAL.
    pub fn attach_wal<P: AsRef<std::path::Path>>(&self, path: P) -> StorageResult<WalAttach> {
        let (wal, records, recovery) = Wal::open(path)?;
        self.attach_wal_impl(wal, records, recovery)
    }

    /// Like [`ReachabilityEngine::attach_wal`], with the WAL's appends
    /// scripted by a fault controller (crash-recovery campaigns; see
    /// [`streach_storage::fault`]).
    pub fn attach_wal_with_controller<P: AsRef<std::path::Path>>(
        &self,
        path: P,
        controller: streach_storage::FaultController,
    ) -> StorageResult<WalAttach> {
        let (wal, records, recovery) = Wal::open_with_controller(path, controller)?;
        self.attach_wal_impl(wal, records, recovery)
    }

    fn attach_wal_impl(
        &self,
        wal: Wal,
        records: Vec<Vec<u8>>,
        recovery: streach_storage::WalRecovery,
    ) -> StorageResult<WalAttach> {
        let mut state = self.ingest_state();
        if state.wal.is_some() {
            return Err(StorageError::corrupt(
                "a write-ahead log is already attached to this engine",
            ));
        }
        // Records of the generation the snapshot knows are skipped up to
        // the applied prefix; a rotated (newer) generation replays in full.
        let records_skipped = if recovery.generation == state.wal_generation {
            state.wal_applied.min(recovery.records)
        } else {
            0
        };
        state.wal_generation = recovery.generation;
        state.wal_applied = records_skipped;
        state.prefix_broken = false;

        let mut records_replayed = 0u64;
        let mut points_replayed = 0u64;
        for (index, record) in records.iter().enumerate().skip(records_skipped as usize) {
            let record = crate::ingest::decode_record(record)?;
            // A CRC-valid record can still carry points this engine cannot
            // apply (e.g. a WAL written against a different network — logs,
            // unlike snapshots, carry no fingerprint): reject it typed
            // instead of indexing out of bounds.
            self.validate_points(&record.points).map_err(|e| {
                StorageError::corrupt(format!("WAL record #{index} failed validation: {e}"))
            })?;
            self.apply_batch(&record.points, &mut state, record.prenormalized, None)?;
            state.wal_applied += 1;
            records_replayed += 1;
            points_replayed += record.points.len() as u64;
        }
        // Every record in the log is now folded in; the next appended
        // record gets ordinal `recovery.records` and applies first.
        state.apply_cursor = recovery.records;
        state.wal = Some(Arc::new(wal));
        Ok(WalAttach {
            generation: recovery.generation,
            records_skipped,
            records_replayed,
            points_replayed,
            truncated_bytes: recovery.truncated_bytes,
        })
    }

    /// Ingests a batch of map-matched trajectory points into the serving
    /// engine — no rebuild, no downtime. When a WAL is attached
    /// ([`ReachabilityEngine::attach_wal`]) the batch is framed, appended
    /// and fsynced **before** it is applied, so an acknowledged batch
    /// survives a crash; without one, ingest is volatile (tests, bulk
    /// loads). Application folds the points into the ST-Index delta
    /// postings, derives consecutive-visit speed observations for the
    /// Con-Index statistics (cached connection tables are invalidated when
    /// any were produced) and raises the day count `m` — after which every
    /// query pipeline answers over base + delta exactly as a from-scratch
    /// rebuild on the combined data would.
    ///
    /// **Concurrent callers group-commit.** The WAL append and fsync run
    /// without the engine's ingest lock, so N simultaneous `ingest` calls
    /// share one physical fsync ([`streach_storage::Wal::sync`]); a failed
    /// group fsync fails every caller in the group and freezes the applied
    /// prefix (replay after reopen re-applies the survivors idempotently).
    /// Application then proceeds strictly in WAL-record order, so the live
    /// engine is bit-identical to what replaying the log would build.
    ///
    /// Batches are validated up front: a point naming a segment outside
    /// the road network is rejected before anything is logged or applied.
    pub fn ingest(&self, points: &[TrajPoint]) -> StorageResult<IngestOutcome> {
        self.ingest_impl(points, false, None)
    }

    /// Like [`ReachabilityEngine::ingest`], additionally returning the
    /// **full-batch normalized** point sequence (re-entries dropped, before
    /// any shard-ownership filter). The sharded router's statistics leader
    /// uses this to owner-route the batch: the other shards receive exactly
    /// these points, pre-normalized, so their postings match what the
    /// full-batch pipeline would have indexed bit for bit.
    pub(crate) fn ingest_capturing(
        &self,
        points: &[TrajPoint],
    ) -> StorageResult<(IngestOutcome, Vec<TrajPoint>)> {
        let mut normalized = Vec::with_capacity(points.len());
        let outcome = self.ingest_impl(points, false, Some(&mut normalized))?;
        Ok((outcome, normalized))
    }

    /// Ingests an owner-routed, already-normalized batch (see
    /// [`crate::sharded::ShardedEngine::ingest`]): the points fold into the
    /// ST-Index postings only — no re-normalization, no speed pairs, no
    /// last-visit staging — and the WAL record carries the pre-normalized
    /// tag so replay and replication apply it the same way.
    pub(crate) fn ingest_prenormalized(
        &self,
        points: &[TrajPoint],
    ) -> StorageResult<IngestOutcome> {
        self.ingest_impl(points, true, None)
    }

    fn ingest_impl(
        &self,
        points: &[TrajPoint],
        prenormalized: bool,
        mut capture: Option<&mut Vec<TrajPoint>>,
    ) -> StorageResult<IngestOutcome> {
        self.validate_points(points)?;

        let wal = loop {
            // Snapshot the attachment without holding the ingest lock —
            // the durability phase below must run lock-free so concurrent
            // callers can batch into one fsync. (The peek lives in its own
            // statement so the guard is dropped before the match arms run.)
            let attached = { self.ingest_state().wal.clone() };
            match attached {
                Some(wal) => break wal,
                None => {
                    // Volatile path (no WAL): apply under the lock. Re-check
                    // the attachment — an `attach_wal` may have won the race
                    // between the peek above and this lock.
                    let mut state = self.ingest_state();
                    if state.wal.is_some() {
                        continue;
                    }
                    let (lists_touched, speed_observations) = self.apply_batch(
                        points,
                        &mut state,
                        prenormalized,
                        capture.as_deref_mut(),
                    )?;
                    return Ok(IngestOutcome {
                        points: points.len(),
                        lists_touched,
                        speed_observations,
                        wal_ordinal: None,
                    });
                }
            }
        };

        // Durability first, without the ingest lock: append, then group
        // fsync. A failed append leaves nothing in the log (or a poisoned
        // handle after a torn append) — nothing to skip or freeze.
        let payload = if prenormalized {
            crate::ingest::encode_prenormalized_batch(points)
        } else {
            crate::ingest::encode_batch(points)
        };
        let ordinal = wal.append(&payload)?;
        // Our record is appended but not yet applied, which pins the
        // generation: a checkpoint's `rotate_if_applied` cannot pass it.
        let generation = wal.generation();
        if let Err(e) = wal.sync() {
            // The record is in the log but not provably durable — and
            // neither is any other record of its commit group — and it was
            // not applied: freeze the applied prefix so the next attach
            // replays it (idempotently) if it did survive, and advance the
            // apply cursor past it so later group-committed records do not
            // wait forever for a record that will never apply live.
            let mut state = self.ingest_state();
            state.prefix_broken = true;
            while state.wal_generation == generation && state.apply_cursor < ordinal {
                state = self.wait_apply_turn(state);
            }
            if state.wal_generation == generation && state.apply_cursor == ordinal {
                state.apply_cursor = ordinal + 1;
                self.apply_cv.notify_all();
            }
            return Err(e);
        }

        // Apply strictly in WAL order: live application order then matches
        // replay order bit-exactly (the last-visit table and the derived
        // speed pairs are order-sensitive across batches of one
        // trajectory).
        let mut state = self.ingest_state();
        while state.wal_generation == generation && state.apply_cursor < ordinal {
            state = self.wait_apply_turn(state);
        }
        debug_assert!(
            state.wal_generation == generation && state.apply_cursor == ordinal,
            "apply ordering lost track of record {generation}/{ordinal}"
        );
        let applied = self.apply_batch(points, &mut state, prenormalized, capture);
        state.apply_cursor = state.apply_cursor.max(ordinal + 1);
        self.apply_cv.notify_all();
        match applied {
            Ok((lists_touched, speed_observations)) => {
                state.mark_applied();
                Ok(IngestOutcome {
                    points: points.len(),
                    lists_touched,
                    speed_observations,
                    wal_ordinal: Some(ordinal),
                })
            }
            Err(e) => {
                // The record is durable but its application failed: freeze
                // the applied prefix so replay at the next attach redoes it
                // (idempotently), and keep the log from rotating past it.
                state.prefix_broken = true;
                Err(e)
            }
        }
    }

    /// Applies one WAL record shipped from a leader, identified by its
    /// (generation, ordinal) position in the leader's log.
    ///
    /// This is the replica half of WAL shipping: the replica holds **no
    /// attached WAL of its own** — durability lives at the leader (and in
    /// the follower's shipped-frame log, see
    /// [`streach_storage::FollowerLog`]) — but its WAL bookkeeping tracks
    /// the applied position so lag is observable
    /// ([`ReachabilityEngine::wal_position`]) and a later
    /// [`ReachabilityEngine::attach_wal`] on the shipped log (failover
    /// promotion) skips everything already applied.
    ///
    /// Records at an already-applied position return `Ok(false)` without
    /// touching the index (re-applying a batch is NOT idempotent for the
    /// speed statistics, so at-least-once shipping needs this exact-once
    /// gate). A record of a new generation restarts the count — the
    /// shipping protocol converges a follower before the leader rotates, so
    /// a fresh generation always starts at ordinal 0. A gap within a
    /// generation is a protocol violation and surfaces as a typed error.
    /// `prenormalized` marks records the leader logged under the
    /// pre-normalized tag (owner-routed shard batches): they are applied
    /// postings-only, exactly as the leader applied them.
    pub fn apply_replicated(
        &self,
        generation: u64,
        ordinal: u64,
        points: &[TrajPoint],
        prenormalized: bool,
    ) -> StorageResult<bool> {
        self.validate_points(points)?;
        let mut state = self.ingest_state();
        if state.wal.is_some() {
            return Err(StorageError::corrupt(
                "apply_replicated rejected: this engine has its own attached WAL \
                 (it is a leader, not a replica)",
            ));
        }
        if generation == state.wal_generation {
            if ordinal < state.wal_applied {
                return Ok(false);
            }
            if ordinal > state.wal_applied {
                return Err(StorageError::corrupt(format!(
                    "replication gap: shipped record {generation}/{ordinal} but only \
                     {} records of generation {} are applied",
                    state.wal_applied, state.wal_generation
                )));
            }
        } else {
            if ordinal != 0 {
                return Err(StorageError::corrupt(format!(
                    "replication gap: shipped generation {generation} starts at \
                     record {ordinal}, expected 0"
                )));
            }
            state.wal_generation = generation;
            state.wal_applied = 0;
        }
        self.apply_batch(points, &mut state, prenormalized, None)?;
        state.wal_applied = ordinal + 1;
        Ok(true)
    }

    /// Advances a replica's WAL bookkeeping across a leader rotation that
    /// has shipped no records of the new generation yet (the leader
    /// checkpointed; its fresh log is empty). Without this, a fully caught
    /// up replica would report the retired generation until the next
    /// record arrives. No-op when the replica already reached (or passed)
    /// `generation`; rejected on a leader like
    /// [`ReachabilityEngine::apply_replicated`].
    pub(crate) fn observe_replicated_rotation(&self, generation: u64) -> StorageResult<()> {
        let mut state = self.ingest_state();
        if state.wal.is_some() {
            return Err(StorageError::corrupt(
                "cannot observe a replicated rotation on an engine with an attached WAL \
                 (it is a leader, not a replica)",
            ));
        }
        if generation > state.wal_generation {
            state.wal_generation = generation;
            state.wal_applied = 0;
        }
        Ok(())
    }

    /// Rejects batches this engine cannot apply — shared by live ingest
    /// (before anything is logged) and WAL replay (before anything is
    /// indexed).
    fn validate_points(&self, points: &[TrajPoint]) -> StorageResult<()> {
        for (i, p) in points.iter().enumerate() {
            if p.segment.index() >= self.network.num_segments() {
                return Err(StorageError::corrupt(format!(
                    "ingest batch rejected: point #{i} names segment {} but the \
                     network has {} segments",
                    p.segment,
                    self.network.num_segments()
                )));
            }
            if p.date == u16::MAX {
                return Err(StorageError::corrupt(format!(
                    "ingest batch rejected: point #{i} uses reserved date {}",
                    u16::MAX
                )));
            }
        }
        Ok(())
    }

    /// Applies one decoded batch to the index structures. Shared by live
    /// ingest and WAL replay so both paths are bit-identical.
    ///
    /// `prenormalized` batches (owner-routed by a sharded router's
    /// statistics leader, logged under the `0x02` WAL tag) skip
    /// normalization, speed-pair derivation and last-visit staging: the
    /// leader already did all of that over the full batch — re-deriving
    /// speed pairs from an owner-filtered sub-stream would corrupt the
    /// statistics (a dropped re-entry decision depends on visits this
    /// shard does not own). They fold into the postings only. Their touch
    /// reports local posting pairs alone — the statistics leader's raw
    /// batch reports the speed slots and the day raise exactly once.
    ///
    /// `capture_normalized`, when set, receives the full-batch normalized
    /// point sequence (before any shard-ownership filter).
    fn apply_batch(
        &self,
        points: &[TrajPoint],
        state: &mut IngestState,
        prenormalized: bool,
        capture_normalized: Option<&mut Vec<TrajPoint>>,
    ) -> StorageResult<(usize, usize)> {
        if prenormalized {
            debug_assert!(
                capture_normalized.is_none(),
                "capturing a pre-normalized batch is meaningless: it IS the capture"
            );
            if points.is_empty() {
                return Ok((0, 0));
            }
            let mut owned: Vec<TrajPoint> = points.to_vec();
            // Defense in depth: the router already sent owned points only,
            // but a replayed log may meet a re-partitioned engine.
            if let Some((map, shard_id)) = self.shard.get() {
                owned.retain(|p| map.shard_of(p.segment) == *shard_id);
            }
            let posting_pairs = self.st_index.apply_points(&owned)?;
            let lists_touched = posting_pairs.len();
            let max_date = points.iter().map(|p| p.date).max().unwrap_or(0);
            self.st_index.raise_num_days(max_date + 1);
            self.notify_touch(&IngestTouch {
                posting_pairs,
                speed_slots: Vec::new(),
                num_days_raised: false,
            });
            return Ok((lists_touched, 0));
        }

        // Normalize exactly like `MatchedTrajectory::push`: a point
        // re-entering the segment its trajectory is already on is dropped,
        // so a raw feed and the batch pipeline index the same visits.
        let mut normalized: Vec<TrajPoint> = Vec::with_capacity(points.len());
        let mut pairs: Vec<(SegmentId, u32, u32)> = Vec::new();
        let mut staged_last: std::collections::HashMap<(u32, u16), LastVisit> =
            std::collections::HashMap::new();
        let mut max_date = 0u16;
        for p in points {
            let key = (p.traj_id, p.date);
            let prev = staged_last.get(&key).or_else(|| state.last_visit.get(&key));
            if let Some(prev) = prev {
                if prev.segment == p.segment.0 {
                    continue;
                }
                pairs.push((SegmentId(prev.segment), prev.enter_time_s, p.enter_time_s));
            }
            staged_last.insert(
                key,
                LastVisit {
                    segment: p.segment.0,
                    enter_time_s: p.enter_time_s,
                },
            );
            max_date = max_date.max(p.date);
            normalized.push(*p);
        }
        if let Some(capture) = capture_normalized {
            capture.extend_from_slice(&normalized);
        }
        if normalized.is_empty() {
            return Ok((0, 0));
        }

        // A shard engine indexes only its owned postings. The filter runs
        // AFTER normalization so the dropped-re-entry decisions, the speed
        // pairs, the last-visit table and the day count are computed over
        // the full batch — identical on every shard and on a single engine.
        if let Some((map, shard_id)) = self.shard.get() {
            normalized.retain(|p| map.shard_of(p.segment) == *shard_id);
        }

        let posting_pairs = self.st_index.apply_points(&normalized)?;
        let lists_touched = posting_pairs.len();
        // Only commit the derived state once the posting writes stuck: a
        // retried batch after a delta write fault recomputes the same
        // pairs (the merge side is idempotent, the speed side must not be
        // double-fed).
        let speed_observations = self.con_index.apply_speed_pairs(&self.network, &pairs);
        state.last_visit.extend(staged_last);
        let num_days_before = self.st_index.num_days();
        self.st_index.raise_num_days(max_date + 1);

        // Invalidation signal for layered result caches: the posting pairs
        // the delta directory now overrides, the day slots whose speed
        // statistics moved (conservatively every pair's slot — whether an
        // observation was plausible is the statistics layer's business),
        // and whether the probability denominator rose.
        let slots_per_day = streach_traj::SECONDS_PER_DAY.div_ceil(self.config.slot_s);
        let mut speed_slots: Vec<u32> = pairs
            .iter()
            .map(|&(_, enter_time_s, _)| slot_of(enter_time_s, self.config.slot_s) % slots_per_day)
            .collect();
        speed_slots.sort_unstable();
        speed_slots.dedup();
        self.notify_touch(&IngestTouch {
            posting_pairs,
            speed_slots,
            num_days_raised: max_date + 1 > num_days_before,
        });
        Ok((lists_touched, speed_observations))
    }

    /// Folds the ingested delta tail into a new sealed ST-Index base (see
    /// [`StIndex::compact`]): queries afterwards are bit-identical, the
    /// delta heap is empty, and the next snapshot save re-exports the (new)
    /// base page file. Statistics-wise the result matches a from-scratch
    /// build on the combined data. Returns what was folded.
    ///
    /// Safe to call on a **serving** engine: the new base is built off to
    /// the side and published with one atomic pointer swap, so concurrent
    /// queries never block and never observe a half-compacted index —
    /// readers in flight simply finish on the old base. Ingest and
    /// snapshot saves are excluded for the duration (they share the ingest
    /// lock); on error the old base keeps serving and the call is
    /// retryable. The background [`crate::maintenance::MaintenanceController`]
    /// invokes this off the caller's thread.
    pub fn compact(&self) -> StorageResult<DeltaStats> {
        let _ingest = self.ingest_state();
        let folded = self.st_index.compact()?;
        if folded.delta_lists > 0 {
            *self.base_pages.lock() = None;
        }
        Ok(folded)
    }

    /// Maps a query location to its start road segment via the ST-Index
    /// spatial component.
    pub fn locate(&self, location: &streach_geo::GeoPoint) -> Option<SegmentId> {
        self.st_index.locate_segment(location)
    }

    /// Maps a query location to its start road segment, returning a typed
    /// error instead of `None` when the location matches nothing — either
    /// because the network is empty or because the nearest segment is
    /// farther than [`ReachabilityEngine::MAX_MATCH_DISTANCE_M`] (a request
    /// from outside the serviced area must not silently snap to a boundary
    /// segment).
    pub fn try_locate(&self, location: &streach_geo::GeoPoint) -> Result<SegmentId, QueryError> {
        self.locate_indexed(location, 0)
    }

    /// Maximum distance (meters) between a query location and its matched
    /// road segment before the location counts as off-network.
    pub const MAX_MATCH_DISTANCE_M: f64 = 5_000.0;

    fn locate_indexed(
        &self,
        location: &streach_geo::GeoPoint,
        index: usize,
    ) -> Result<SegmentId, QueryError> {
        if !location.is_finite() {
            return Err(QueryError::InvalidQuery(
                "query location must be finite".into(),
            ));
        }
        match self.network.nearest_segment(location) {
            Some((segment, distance_m)) if distance_m <= Self::MAX_MATCH_DISTANCE_M => Ok(segment),
            _ => Err(QueryError::LocationOffNetwork {
                index,
                location: *location,
            }),
        }
    }

    /// Answers a single-location ST reachability query.
    ///
    /// # Panics
    /// Panics if the query is invalid (see [`SQuery::validate`]), if the
    /// location cannot be matched to a road segment, or if a posting read
    /// hits a disk fault. A serving process should use
    /// [`ReachabilityEngine::try_s_query`] instead.
    pub fn s_query(&self, query: &SQuery, algorithm: Algorithm) -> QueryOutcome {
        self.try_s_query(query, algorithm).expect("invalid s-query")
    }

    /// Answers a single-location ST reachability query, reporting malformed
    /// queries, off-network locations **and storage faults** as a
    /// [`QueryError`] instead of aborting the process. A
    /// [`QueryError::Storage`] leaves the engine fully usable — the next
    /// fault-free query is served normally.
    pub fn try_s_query(
        &self,
        query: &SQuery,
        algorithm: Algorithm,
    ) -> Result<QueryOutcome, QueryError> {
        query.validate()?;
        let start_segment = self.try_locate(&query.location)?;

        let io_before = self.st_index.io_stats().snapshot();
        let t0 = Instant::now();
        let (region, verified, visited, max_b, min_b, bounding_time, verify_time) = match algorithm
        {
            Algorithm::ExhaustiveSearch => {
                let out = exhaustive_search(&self.network, &self.st_index, query, start_segment)?;
                (
                    out.region,
                    out.verifications,
                    out.visited,
                    0,
                    0,
                    out.expansion_time,
                    out.verify_time,
                )
            }
            Algorithm::SqmbTbs => {
                let tb = Instant::now();
                let bounds = sqmb(
                    &self.con_index,
                    self.network.num_segments(),
                    start_segment,
                    query.start_time_s,
                    query.duration_s,
                );
                let bounding_time = tb.elapsed();
                // verify_time covers core construction (the start segment's
                // posting reads) plus the annulus sweep, mirroring the
                // setup_time + verify_time sum reported for m-queries.
                let tv = Instant::now();
                let core = VerifierCore::new(
                    &self.st_index,
                    start_segment,
                    query.start_time_s,
                    query.duration_s,
                )?;
                let outcome = trace_back_search(&self.network, &core, &bounds, query.prob)?;
                let verify_time = tv.elapsed();
                (
                    outcome.region,
                    outcome.verifications,
                    outcome.visited,
                    bounds.max_region.len(),
                    bounds.min_region.len(),
                    bounding_time,
                    verify_time,
                )
            }
        };
        let wall_time = t0.elapsed();
        let io_after = self.st_index.io_stats().snapshot();

        Ok(QueryOutcome {
            region,
            stats: QueryStats {
                wall_time,
                bounding_time,
                verify_time,
                io: io_after.delta_since(&io_before),
                segments_verified: verified,
                max_bounding_size: max_b,
                min_bounding_size: min_b,
                segments_visited: visited,
            },
        })
    }

    /// Answers a batch of SQMB+TBS s-queries with **one shared MQMB
    /// bounding pass** per (origin segment, slot window) group — the
    /// cross-user coalescing primitive behind [`crate::serve::QueryServer`].
    /// Results are in input order and bit-identical to calling
    /// [`ReachabilityEngine::try_s_query`] with [`Algorithm::SqmbTbs`] per
    /// query; failures surface as that caller's [`QueryError`].
    pub fn try_s_query_coalesced(&self, queries: &[SQuery]) -> Vec<crate::serve::CoalescedAnswer> {
        crate::serve::answer_coalesced(
            &self.network,
            &self.con_index,
            &self.st_index,
            &|location| self.try_locate(location),
            queries,
        )
    }

    /// Answers a multi-location ST reachability query.
    ///
    /// With [`MQueryAlgorithm::RepeatedSQuery`] every location is answered as
    /// an independent SQMB+TBS s-query and the regions are unioned (the
    /// baseline of Section 4.3); with [`MQueryAlgorithm::MqmbTbs`] the
    /// unified MQMB bounding region is verified once.
    pub fn m_query(&self, query: &MQuery, algorithm: MQueryAlgorithm) -> QueryOutcome {
        self.try_m_query(query, algorithm).expect("invalid m-query")
    }

    /// Answers a multi-location ST reachability query, reporting malformed
    /// queries, off-network locations and storage faults as a
    /// [`QueryError`] instead of aborting the process.
    pub fn try_m_query(
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
                    let sub = query.sub_query(i);
                    let outcome = self.try_s_query(&sub, Algorithm::SqmbTbs).map_err(|e| {
                        // Attribute an off-network location to its m-query index.
                        match e {
                            QueryError::LocationOffNetwork { location, .. } => {
                                QueryError::LocationOffNetwork { index: i, location }
                            }
                            other => other,
                        }
                    })?;
                    region = region.union(&self.network, &outcome.region);
                    stats = stats.merge(&outcome.stats);
                }
                Ok(QueryOutcome { region, stats })
            }
            MQueryAlgorithm::MqmbTbs => {
                let starts: Vec<SegmentId> = query
                    .locations
                    .iter()
                    .enumerate()
                    .map(|(i, p)| self.locate_indexed(p, i))
                    .collect::<Result<_, _>>()?;
                let io_before = self.st_index.io_stats().snapshot();
                let t0 = Instant::now();
                let bounds = mqmb(
                    &self.con_index,
                    &self.network,
                    &starts,
                    &query.locations,
                    query.start_time_s,
                    query.duration_s,
                );
                let bounding_time = t0.elapsed();
                let outcome = mqmb_trace_back(
                    &self.network,
                    &self.st_index,
                    &bounds,
                    &starts,
                    query.start_time_s,
                    query.duration_s,
                    query.prob,
                )?;
                let wall_time = t0.elapsed();
                let io_after = self.st_index.io_stats().snapshot();
                Ok(QueryOutcome {
                    region: outcome.region,
                    stats: QueryStats {
                        wall_time,
                        bounding_time,
                        verify_time: outcome.setup_time + outcome.verify_time,
                        io: io_after.delta_since(&io_before),
                        segments_verified: outcome.verifications,
                        max_bounding_size: bounds.max_region.len(),
                        min_bounding_size: bounds.min_region.len(),
                        segments_visited: outcome.visited,
                    },
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::EngineBuilder;
    use std::sync::Arc;
    use streach_geo::GeoPoint;
    use streach_roadnet::{GeneratorConfig, SyntheticCity};
    use streach_traj::{FleetConfig, TrajectoryDataset};

    fn engine() -> ReachabilityEngine {
        let city = SyntheticCity::generate(GeneratorConfig::small());
        let network = Arc::new(city.network);
        let dataset = TrajectoryDataset::simulate(&network, FleetConfig::tiny());
        EngineBuilder::new(network, &dataset)
            .index_config(IndexConfig {
                read_latency_us: 0,
                ..Default::default()
            })
            .build()
    }

    #[test]
    fn try_s_query_reports_invalid_parameters() {
        let e = engine();
        let q = SQuery {
            location: e.network().bounds().center(),
            start_time_s: 9 * 3600,
            duration_s: 0,
            prob: 0.2,
        };
        match e.try_s_query(&q, Algorithm::SqmbTbs) {
            Err(QueryError::InvalidQuery(reason)) => {
                assert!(reason.contains("duration"), "{reason}")
            }
            other => panic!("expected InvalidQuery, got {other:?}"),
        }
    }

    #[test]
    fn try_locate_rejects_non_finite_locations() {
        let e = engine();
        let err = e.try_locate(&GeoPoint::new(f64::NAN, 0.0)).unwrap_err();
        assert!(matches!(err, QueryError::InvalidQuery(_)));
        assert!(e.try_locate(&e.network().bounds().center()).is_ok());
    }

    #[test]
    fn try_locate_rejects_far_off_network_locations() {
        let e = engine();
        // Finite, but on the other side of the planet — snapping it to a
        // boundary segment would serve a nonsense region.
        let far = GeoPoint::new(0.0, 0.0);
        match e.try_locate(&far) {
            Err(QueryError::LocationOffNetwork { index: 0, location }) => {
                assert_eq!(location, far)
            }
            other => panic!("expected LocationOffNetwork, got {other:?}"),
        }
        // The Option-returning nearest lookup still matches (uncapped).
        assert!(e.locate(&far).is_some());
    }

    #[test]
    fn try_m_query_attributes_the_offending_location() {
        let e = engine();
        let far = GeoPoint::new(0.0, 0.0);
        let m = MQuery {
            locations: vec![e.network().bounds().center(), far],
            start_time_s: 9 * 3600,
            duration_s: 600,
            prob: 0.2,
        };
        for algo in [MQueryAlgorithm::MqmbTbs, MQueryAlgorithm::RepeatedSQuery] {
            match e.try_m_query(&m, algo).unwrap_err() {
                QueryError::LocationOffNetwork { index, location } => {
                    assert_eq!(index, 1, "{algo:?} must blame location #1");
                    assert_eq!(location, far);
                }
                other => panic!("{algo:?}: expected LocationOffNetwork, got {other}"),
            }
        }
        // NaN locations are still rejected as invalid before any matching.
        let nan = MQuery {
            locations: vec![e.network().bounds().center(), GeoPoint::new(f64::NAN, 1.0)],
            ..m
        };
        let err = e.try_m_query(&nan, MQueryAlgorithm::MqmbTbs).unwrap_err();
        assert!(matches!(err, QueryError::InvalidQuery(_)), "{err}");
    }

    #[test]
    fn try_s_query_matches_panicking_wrapper() {
        let e = engine();
        let q = SQuery {
            location: e.network().bounds().center(),
            start_time_s: 9 * 3600,
            duration_s: 600,
            prob: 0.2,
        };
        let a = e.try_s_query(&q, Algorithm::SqmbTbs).unwrap();
        let b = e.s_query(&q, Algorithm::SqmbTbs);
        assert_eq!(a.region.segments, b.region.segments);
    }

    #[test]
    fn query_error_displays() {
        let e1 = QueryError::InvalidQuery("bad".into());
        assert!(e1.to_string().contains("bad"));
        let e2 = QueryError::LocationOffNetwork {
            index: 2,
            location: GeoPoint::new(114.0, 22.5),
        };
        assert!(e2.to_string().contains("#2"));
    }
}
