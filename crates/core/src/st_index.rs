//! The Spatio-Temporal Index (ST-Index).
//!
//! "ST-Index consists of 3 components: Temporal index, Spatial index and Time
//! List. [...] The upper component is a temporal partition indicating the
//! time line per day with the time interval of 5 minutes. Each time slot
//! corresponds to a spatial partition [...]. Each leaf node of the spatial
//! index has a time list to identify the date of trajectories traversing its
//! road segment." (Section 3.2.1)
//!
//! Concretely:
//!
//! * the **temporal index** is a [`BPlusTree`] keyed by the Δt slot number,
//! * the **spatial index** is the R-tree over the static road network — as
//!   the paper notes, "essentially all the leaf nodes in the temporal index
//!   have the same spatial index structure", so a single shared tree (owned
//!   by the [`RoadNetwork`]) is used and exposed through
//!   [`StIndex::locate_segment`],
//! * the **time lists** are [`TimeList`] posting lists (date → trajectory
//!   IDs) serialized into a page-based [`PostingStore`]; every read is real
//!   page I/O, counted and optionally slowed by the simulated disk.
//!
//! # Streaming ingest: sealed base + delta tail
//!
//! The index is split into a **sealed base** (the temporal directory and
//! posting heap produced by [`StIndex::build`] or reopened from a snapshot
//! — never mutated) and a **delta tail** that absorbs trajectory points
//! ingested after open ([`StIndex::apply_points`]). The delta keeps, per
//! (slot, segment) pair it has touched, a *fully merged* time list (base
//! observations ∪ ingested observations) appended to its own posting heap;
//! a delta entry therefore **overrides** the base entry on the read path,
//! which keeps every reader — [`StIndex::time_list`],
//! [`StIndex::read_time_list_into`], [`StIndex::ids_in_window`] — a single
//! posting read with unchanged circular-day slot semantics. When no point
//! was ever ingested the delta check is one relaxed atomic load, so the
//! sealed-base hot path is untouched. [`StIndex::compact`] folds the delta
//! back into a fresh sealed base (bit-identical to a from-scratch build on
//! the combined data) and empties the tail.
//!
//! # Online maintenance: the atomic state swap
//!
//! The sealed base and the delta tail live together in one immutable
//! `IndexState` behind `RwLock<Arc<IndexState>>`. Every reader **pins** the
//! current state with a single `Arc` clone and performs its directory
//! lookup and posting read against that pinned pair — always a consistent
//! (base, delta) combination. The query hot path pins once per query
//! ([`StIndex::pin`], taken by the verifier) and reads every posting
//! through that pin ([`StIndex::read_pinned`]), so its thousands of reads
//! never touch the lock or the shared reference count; the one-off readers
//! ([`StIndex::read_time_list_into`] and friends) pin per call. Compaction
//! builds the new sealed base
//! entirely off to the side (reading the pinned old state) and publishes it
//! with **one pointer swap**: readers in flight simply finish on the old
//! base, which the `Arc` keeps alive, and no query ever blocks on
//! compaction. Mutation (ingest application, compaction publishing) is
//! serialized by the engine's ingest lock, which queries never touch.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU16, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::{Mutex, RwLock};
use streach_geo::GeoPoint;
use streach_roadnet::{RoadNetwork, SegmentId};
use streach_storage::{
    BPlusTree, BlobHandle, InMemoryPageStore, IoStats, PageStore, PostingStore, SimulatedDiskStore,
    StorageError, StorageResult, TimeList,
};
use streach_traj::{TrajPoint, TrajectoryDataset};

use crate::config::IndexConfig;
use crate::time::{slot_of, slots_overlapping};

/// Page store backing the ST-Index: any [`PageStore`] backend (in-memory for
/// fresh builds, [`streach_storage::FilePageStore`] for reopened snapshots)
/// behind the simulated-latency disk wrapper.
pub type StIndexStore = SimulatedDiskStore<Box<dyn PageStore>>;

/// Directory of one temporal leaf: for every road segment traversed during
/// the slot, the handle of its time list in the posting store.
#[derive(Debug, Clone, Default)]
struct SlotDirectory {
    /// Sorted by segment ID for binary search.
    entries: Vec<(SegmentId, BlobHandle)>,
}

impl SlotDirectory {
    fn get(&self, segment: SegmentId) -> Option<BlobHandle> {
        self.entries
            .binary_search_by_key(&segment, |(s, _)| *s)
            .ok()
            .map(|i| self.entries[i].1)
    }
}

/// Construction and size statistics of an ST-Index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StIndexStats {
    /// Number of (segment, slot) pairs with a non-empty time list.
    pub num_time_lists: u64,
    /// Number of (segment, slot, date, trajectory) observations indexed.
    pub num_observations: u64,
    /// Bytes of posting data written to the **sealed base** heap.
    pub posting_bytes: u64,
    /// Pages allocated in the **sealed base** posting store.
    pub posting_pages: u64,
}

/// Size statistics of the mutable delta tail (streaming ingest).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DeltaStats {
    /// Number of (slot, segment) pairs currently overridden by the delta.
    pub delta_lists: u64,
    /// Bytes appended to the delta posting heap (including superseded
    /// versions of re-ingested lists; compaction reclaims them).
    pub delta_bytes: u64,
    /// Pages allocated in the delta posting heap.
    pub delta_pages: u64,
}

/// Where a (segment, slot) time list currently lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ListRef {
    /// In the sealed base heap.
    Base(BlobHandle),
    /// In the delta heap — a fully merged list that overrides the base.
    Delta(BlobHandle),
}

/// Number of lock stripes in the delta directory. Striping is by slot, so
/// queries reading one time-of-day never contend with WAL application
/// folding observations into another.
const DELTA_STRIPES: usize = 16;

/// The mutable delta tail: merged override lists keyed by (slot, segment),
/// stored in their own append-only posting heap.
struct DeltaTail {
    postings: PostingStore<StIndexStore>,
    /// (slot, segment) → handle of the current merged list in the delta
    /// heap, striped by `slot % DELTA_STRIPES` so the apply lock is sharded:
    /// disjoint ingest batches (and concurrent readers) touching different
    /// slots take different locks. Each stripe is a `BTreeMap` so snapshot
    /// serialization and compaction stay deterministic after one merge-sort
    /// across stripes.
    stripes: Vec<RwLock<BTreeMap<(u32, u32), BlobHandle>>>,
    /// Total number of directory entries across stripes, readable without
    /// any lock: the hot path's fast "no deltas" check.
    len: AtomicUsize,
}

impl DeltaTail {
    fn stripe_of(slot: u32) -> usize {
        slot as usize % DELTA_STRIPES
    }

    fn lookup(&self, slot: u32, segment: SegmentId) -> Option<BlobHandle> {
        if self.len.load(Ordering::Relaxed) == 0 {
            return None;
        }
        self.stripes[Self::stripe_of(slot)]
            .read()
            .get(&(slot, segment.0))
            .copied()
    }

    /// Inserts (or replaces) one directory entry, maintaining the global
    /// lock-free length counter.
    fn insert(&self, slot: u32, segment: u32, handle: BlobHandle) {
        let mut stripe = self.stripes[Self::stripe_of(slot)].write();
        if stripe.insert((slot, segment), handle).is_none() {
            self.len.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// All directory entries in (slot, segment) order — the deterministic
    /// view snapshots and compaction serialize.
    fn sorted_entries(&self) -> Vec<((u32, u32), BlobHandle)> {
        let mut out = Vec::with_capacity(self.len.load(Ordering::Relaxed));
        for stripe in &self.stripes {
            out.extend(stripe.read().iter().map(|(k, v)| (*k, *v)));
        }
        out.sort_unstable_by_key(|(k, _)| *k);
        out
    }
}

/// The sealed base of the index: the temporal directory plus its posting
/// heap. Produced by [`StIndex::build`], a snapshot open or a compaction —
/// and never mutated afterwards; compaction replaces it wholesale.
struct SealedBase {
    temporal: BPlusTree<u64, SlotDirectory>,
    postings: PostingStore<StIndexStore>,
}

/// One consistent (sealed base, delta tail) pair. Readers pin the current
/// state with a single `Arc` clone; compaction publishes a replacement with
/// one pointer swap while in-flight readers finish on the old state.
struct IndexState {
    base: SealedBase,
    delta: DeltaTail,
}

impl IndexState {
    /// Directory lookup of the blob handle for (segment, slot) — the slot
    /// already wrapped into the day. A delta entry holds the fully merged
    /// list and therefore overrides the base entry; with no deltas the
    /// check is one relaxed atomic load.
    fn lookup(&self, segment: SegmentId, slot: u32) -> Option<ListRef> {
        if let Some(handle) = self.delta.lookup(slot, segment) {
            return Some(ListRef::Delta(handle));
        }
        let directory = self.base.temporal.get(&(slot as u64))?;
        directory.get(segment).map(ListRef::Base)
    }

    /// Reads a located list from whichever heap owns it.
    fn read_time_list(&self, list_ref: ListRef) -> StorageResult<TimeList> {
        match list_ref {
            ListRef::Base(handle) => self.base.postings.read_time_list(handle),
            ListRef::Delta(handle) => self.delta.postings.read_time_list(handle),
        }
    }

    /// Reads a located list's encoded bytes into `buf` from whichever heap
    /// owns it.
    fn read_into(&self, list_ref: ListRef, buf: &mut Vec<u8>) -> StorageResult<()> {
        match list_ref {
            ListRef::Base(handle) => self.base.postings.read_into(handle, buf),
            ListRef::Delta(handle) => self.delta.postings.read_into(handle, buf),
        }
    }

    /// Size statistics of this state's delta tail.
    fn delta_stats(&self) -> DeltaStats {
        DeltaStats {
            delta_lists: self.delta.len.load(Ordering::Relaxed) as u64,
            delta_bytes: self.delta.postings.size_bytes(),
            delta_pages: self.delta.postings.num_pages(),
        }
    }
}

/// A pinned view of the index: one consistent (sealed base, delta tail)
/// pair, taken with [`StIndex::pin`]. It keeps that base alive and readable
/// after a compaction replaces it; ingest folded into the pinned delta tail
/// stays visible. Verifiers read through one per query
/// ([`StIndex::read_pinned`]); the snapshot writer pins one for a whole save.
pub struct PinnedState(Arc<IndexState>);

impl PinnedState {
    /// The sealed-base posting store.
    pub(crate) fn base_postings(&self) -> &PostingStore<StIndexStore> {
        &self.0.base.postings
    }

    /// The delta posting store.
    pub(crate) fn delta_postings(&self) -> &PostingStore<StIndexStore> {
        &self.0.delta.postings
    }

    /// The temporal directory as (slot, entries) pairs in slot order.
    pub(crate) fn directory_entries(&self) -> Vec<(u32, Vec<(SegmentId, BlobHandle)>)> {
        self.0
            .base
            .temporal
            .iter()
            .into_iter()
            .map(|(slot, dir)| (slot as u32, dir.entries.clone()))
            .collect()
    }

    /// The delta directory as ((slot, segment), handle) pairs in key order.
    pub(crate) fn delta_directory_entries(&self) -> Vec<((u32, u32), BlobHandle)> {
        self.0.delta.sorted_entries()
    }
}

/// The ST-Index.
pub struct StIndex {
    network: Arc<RoadNetwork>,
    slot_s: u32,
    /// `m` in Eq. 3.1 — grows as later fleet-days are ingested.
    num_days: AtomicU16,
    /// The swappable (sealed base, delta tail) pair; see the module docs.
    /// Readers hold the lock only for the `Arc` clone, writers (compaction)
    /// only for the pointer swap — neither ever blocks behind real work.
    state: RwLock<Arc<IndexState>>,
    stats: Mutex<StIndexStats>,
}

impl StIndex {
    /// Builds the ST-Index from a map-matched trajectory dataset.
    ///
    /// Observations are extracted from the trajectories in parallel and
    /// grouped by (slot, segment) with a parallel sort rather than hash maps:
    /// the sorted order *is* the clustered on-disk layout (slot by slot,
    /// segment by segment), so grouping and physical placement are a single
    /// linear scan.
    pub fn build(
        network: Arc<RoadNetwork>,
        dataset: &TrajectoryDataset,
        config: &IndexConfig,
    ) -> Self {
        Self::build_filtered(network, dataset, config, None)
    }

    /// [`StIndex::build`] restricted to an ownership filter: only visits on
    /// segments for which `owned` returns `true` are indexed. A shard
    /// engine indexes exactly its owned postings this way — the filtered
    /// heap is byte-identical to what a build over the pre-filtered dataset
    /// would produce — while day count and the statistics layers stay
    /// global ("postings sharded, statistics replicated").
    pub(crate) fn build_filtered(
        network: Arc<RoadNetwork>,
        dataset: &TrajectoryDataset,
        config: &IndexConfig,
        owned: Option<&(dyn Fn(SegmentId) -> bool + Sync)>,
    ) -> Self {
        assert!(config.slot_s > 0, "slot length must be positive");
        // (slot, segment, date, traj_id) tuples, extracted in parallel.
        let slot_s = config.slot_s;
        let per_traj: Vec<Vec<(u32, u32, u16, u32)>> =
            streach_par::par_map(dataset.trajectories(), |traj| {
                traj.visits
                    .iter()
                    .filter(|visit| owned.is_none_or(|f| f(visit.segment)))
                    .map(|visit| {
                        (
                            slot_of(visit.enter_time_s, slot_s),
                            visit.segment.0,
                            traj.date,
                            traj.traj_id,
                        )
                    })
                    .collect()
            });
        let num_observations: u64 = per_traj.iter().map(|v| v.len() as u64).sum();
        let mut obs: Vec<(u32, u32, u16, u32)> = Vec::with_capacity(num_observations as usize);
        for mut v in per_traj {
            obs.append(&mut v);
        }
        streach_par::par_sort_unstable(&mut obs);

        // Persist the time lists slot by slot (and segment by segment within
        // a slot) so that postings of the same temporal leaf are clustered on
        // neighbouring pages. The sorted tuple order delivers exactly that.
        // Base and delta heap share one I/O counter handle, so query
        // accounting covers both read paths.
        let io = IoStats::new_shared();
        let store = SimulatedDiskStore::with_latency(
            Box::new(InMemoryPageStore::with_stats(Arc::clone(&io))) as Box<dyn PageStore>,
            Duration::from_micros(config.read_latency_us),
            Duration::ZERO,
        );
        let postings =
            PostingStore::with_tail_and_retries(store, config.pool_pages, 0, config.read_retries);
        let delta = Self::empty_delta(
            io,
            Duration::from_micros(config.read_latency_us),
            config.pool_pages,
            config.read_retries,
        );

        let mut temporal = BPlusTree::with_order(32);
        let mut num_time_lists = 0u64;
        let mut directory = SlotDirectory::default();
        let mut list = TimeList::new();
        let mut i = 0;
        while i < obs.len() {
            let (slot, segment, _, _) = obs[i];
            // Consume one (slot, segment) group; (date, id) pairs arrive
            // sorted, so TimeList::add appends (duplicates are skipped).
            list.entries.clear();
            while i < obs.len() && obs[i].0 == slot && obs[i].1 == segment {
                list.add(obs[i].2, obs[i].3);
                i += 1;
            }
            let handle = postings
                .append_time_list(&list)
                .expect("in-memory posting store cannot fail");
            directory.entries.push((SegmentId(segment), handle));
            num_time_lists += 1;
            // Close the slot's directory when the group that just ended was
            // the slot's last.
            if i >= obs.len() || obs[i].0 != slot {
                temporal.insert(slot as u64, std::mem::take(&mut directory));
            }
        }

        // Index construction is not part of any timed experiment; reset the
        // I/O counters so queries start from zero.
        postings.clear_cache();
        postings.io_stats().reset();

        let stats = StIndexStats {
            num_time_lists,
            num_observations,
            posting_bytes: postings.size_bytes(),
            posting_pages: postings.num_pages(),
        };
        Self {
            network,
            slot_s: config.slot_s,
            num_days: AtomicU16::new(dataset.num_days()),
            state: RwLock::new(Arc::new(IndexState {
                base: SealedBase { temporal, postings },
                delta,
            })),
            stats: Mutex::new(stats),
        }
    }

    /// The current (base, delta) state: one `Arc` clone under a read lock
    /// held for nanoseconds. The pair stays alive (and readable) even if a
    /// concurrent compaction publishes a new base.
    fn current(&self) -> Arc<IndexState> {
        Arc::clone(&self.state.read())
    }

    /// Pins the current (base, delta) state for a batch of reads through
    /// [`StIndex::read_pinned`]: the one place a reader touches the state
    /// lock and the shared reference count. A verifier pins once per query;
    /// a snapshot save pins under the engine's ingest lock, so the pinned
    /// pair *is* the index for the whole save.
    pub fn pin(&self) -> PinnedState {
        PinnedState(self.current())
    }

    /// Wraps a slot number into the day (circular-day semantics).
    fn wrap_slot(&self, slot: u32) -> u32 {
        let slots_per_day = streach_traj::SECONDS_PER_DAY.div_ceil(self.slot_s);
        slot % slots_per_day
    }

    /// A fresh, empty delta tail: an in-memory heap behind the same
    /// simulated-latency shim and I/O counters as the base heap.
    fn empty_delta(
        io: Arc<IoStats>,
        read_latency: Duration,
        pool_pages: usize,
        read_retries: u32,
    ) -> DeltaTail {
        let store = SimulatedDiskStore::with_latency(
            Box::new(InMemoryPageStore::with_stats(io)) as Box<dyn PageStore>,
            read_latency,
            Duration::ZERO,
        );
        DeltaTail {
            postings: PostingStore::with_tail_and_retries(store, pool_pages, 0, read_retries),
            stripes: (0..DELTA_STRIPES)
                .map(|_| RwLock::new(BTreeMap::new()))
                .collect(),
            len: AtomicUsize::new(0),
        }
    }

    /// Reassembles an ST-Index from snapshot parts: a reopened posting
    /// store plus the decoded temporal directory, and the delta tail
    /// (posting store plus (slot, segment) → handle entries; both empty for
    /// a snapshot that never ingested). Used by [`crate::snapshot`]; the
    /// directory entries of each slot must be sorted by segment ID (they
    /// are persisted that way).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_parts(
        network: Arc<RoadNetwork>,
        slot_s: u32,
        num_days: u16,
        stats: StIndexStats,
        directory: Vec<(u32, Vec<(SegmentId, BlobHandle)>)>,
        postings: PostingStore<StIndexStore>,
        delta_postings: PostingStore<StIndexStore>,
        delta_directory: Vec<((u32, u32), BlobHandle)>,
    ) -> Self {
        let mut temporal = BPlusTree::with_order(32);
        for (slot, entries) in directory {
            debug_assert!(entries.windows(2).all(|w| w[0].0 < w[1].0));
            temporal.insert(slot as u64, SlotDirectory { entries });
        }
        let mut stripes: Vec<BTreeMap<(u32, u32), BlobHandle>> =
            (0..DELTA_STRIPES).map(|_| BTreeMap::new()).collect();
        let mut delta_len = 0usize;
        for ((slot, segment), handle) in delta_directory {
            if stripes[DeltaTail::stripe_of(slot)]
                .insert((slot, segment), handle)
                .is_none()
            {
                delta_len += 1;
            }
        }
        let delta = DeltaTail {
            postings: delta_postings,
            stripes: stripes.into_iter().map(RwLock::new).collect(),
            len: AtomicUsize::new(delta_len),
        };
        Self {
            network,
            slot_s,
            num_days: AtomicU16::new(num_days),
            state: RwLock::new(Arc::new(IndexState {
                base: SealedBase { temporal, postings },
                delta,
            })),
            stats: Mutex::new(stats),
        }
    }

    /// The temporal granularity Δt in seconds.
    pub fn slot_s(&self) -> u32 {
        self.slot_s
    }

    /// Number of days (`m` in Eq. 3.1) the indexed data spans — grows as
    /// later fleet-days are ingested.
    pub fn num_days(&self) -> u16 {
        self.num_days.load(Ordering::Relaxed)
    }

    /// Raises the day count to cover ingested dates ≥ the current span.
    pub(crate) fn raise_num_days(&self, num_days: u16) {
        self.num_days.fetch_max(num_days, Ordering::Relaxed);
    }

    /// The road network the index was built over.
    pub fn network(&self) -> &Arc<RoadNetwork> {
        &self.network
    }

    /// Construction statistics (sealed base heap).
    pub fn stats(&self) -> StIndexStats {
        *self.stats.lock()
    }

    /// Size statistics of the mutable delta tail.
    pub fn delta_stats(&self) -> DeltaStats {
        self.current().delta_stats()
    }

    /// Shared I/O counters of the posting stores (base and delta).
    pub fn io_stats(&self) -> Arc<IoStats> {
        self.current().base.postings.io_stats()
    }

    /// Drops all cached posting pages (for cold-cache measurements) from
    /// both the base and the delta buffer pool.
    pub fn clear_cache(&self) {
        let state = self.current();
        state.base.postings.clear_cache();
        state.delta.postings.clear_cache();
    }

    /// Maps a query location to its start road segment `r0` using the
    /// spatial index ("with the start location S and time stamp T from q, we
    /// identify the start road segment r0 in the R-tree from ST-Index").
    pub fn locate_segment(&self, location: &GeoPoint) -> Option<SegmentId> {
        self.network.nearest_segment(location).map(|(id, _)| id)
    }

    /// Reads the time list of `segment` in `slot` from the posting store.
    /// Returns `Ok(None)` when no trajectory traversed the segment in that
    /// slot on any day.
    ///
    /// Blob handles are range-validated against the heap at snapshot open,
    /// so on a healthy store a read cannot fail; a *disk fault* on a
    /// file-backed store (file truncated or deleted after open, EIO) or
    /// corrupted posting bytes surface as `Err` — never a panic, so a
    /// serving process degrades instead of aborting.
    pub fn time_list(&self, segment: SegmentId, slot: u32) -> StorageResult<Option<TimeList>> {
        let state = self.current();
        match state.lookup(segment, self.wrap_slot(slot)) {
            Some(list_ref) => Ok(Some(state.read_time_list(list_ref)?)),
            None => Ok(None),
        }
    }

    /// Reads the raw encoded time list of `segment` in `slot` into a
    /// caller-owned buffer, returning `Ok(false)` when no list exists and
    /// `Err` on a disk fault.
    ///
    /// This is the hot-path counterpart of [`StIndex::time_list`]: the bytes
    /// land in reusable scratch storage and are consumed through
    /// [`streach_storage::visit_posting`], so a warm verification performs
    /// no heap allocation. I/O accounting is identical to [`StIndex::time_list`].
    /// The bytes are **not** structurally validated here (that would cost an
    /// extra pass); the consumer must treat a `false` from `visit_posting`
    /// as corruption — [`StIndex::malformed_posting`] builds the matching
    /// error.
    pub fn read_time_list_into(
        &self,
        segment: SegmentId,
        slot: u32,
        buf: &mut Vec<u8>,
    ) -> StorageResult<bool> {
        self.read_pinned(&self.pin(), segment, slot, buf)
    }

    /// [`StIndex::read_time_list_into`] against a view pinned earlier with
    /// [`StIndex::pin`]: no lock, no reference count, so concurrent readers
    /// sharing one pin write nothing index-wide. The pin must come from this
    /// index.
    pub fn read_pinned(
        &self,
        pin: &PinnedState,
        segment: SegmentId,
        slot: u32,
        buf: &mut Vec<u8>,
    ) -> StorageResult<bool> {
        match pin.0.lookup(segment, self.wrap_slot(slot)) {
            Some(list_ref) => {
                pin.0.read_into(list_ref, buf)?;
                Ok(true)
            }
            None => Ok(false),
        }
    }

    /// The error describing a posting of `segment` in `slot` whose bytes
    /// failed structural validation (`visit_posting` returned `false`):
    /// a torn or zeroed page under a range-valid handle.
    pub fn malformed_posting(&self, segment: SegmentId, slot: u32) -> StorageError {
        StorageError::corrupt(format!(
            "encoded time list of segment {segment} in slot {slot} is malformed \
             (torn page or corrupted posting heap)"
        ))
    }

    /// Trajectory IDs that traversed `segment` on `date` at any time in the
    /// half-open window `[start_s, end_s)` — `Tr(r, T_B, d)` in the paper's
    /// trace back search. The result is sorted and deduplicated. Windows
    /// extending past midnight wrap onto the beginning of the (same) day,
    /// matching the modular slot arithmetic of [`StIndex::time_list`]. The
    /// whole window reads one pinned (base, delta) state, so a concurrent
    /// compaction can never mix layouts mid-window.
    pub fn ids_in_window(
        &self,
        segment: SegmentId,
        start_s: u32,
        end_s: u32,
        date: u16,
    ) -> StorageResult<Vec<u32>> {
        let state = self.current();
        let mut slots = slots_overlapping(start_s, end_s, self.slot_s);
        let single_slot = slots.size_hint().0 == 1;
        let mut out: Vec<u32> = Vec::new();
        for slot in &mut slots {
            if let Some(list_ref) = state.lookup(segment, self.wrap_slot(slot)) {
                if let Some(ids) = state.read_time_list(list_ref)?.ids_on(date) {
                    out.extend_from_slice(ids);
                }
            }
        }
        if !single_slot {
            // Each per-slot run is already sorted and unique; only a window
            // spanning several slots can interleave or repeat IDs.
            out.sort_unstable();
            out.dedup();
        }
        Ok(out)
    }

    /// Returns `true` if any trajectory traversed `segment` during `slot` on
    /// any day (reads the directories only — no posting I/O).
    pub fn has_entry(&self, segment: SegmentId, slot: u32) -> bool {
        self.current()
            .lookup(segment, self.wrap_slot(slot))
            .is_some()
    }

    /// All slots that have at least one time list (base or delta), in
    /// ascending order.
    pub fn populated_slots(&self) -> impl Iterator<Item = u32> + '_ {
        let state = self.current();
        let mut slots: std::collections::BTreeSet<u32> = state
            .base
            .temporal
            .iter()
            .into_iter()
            .map(|(k, _)| k as u32)
            .collect();
        if state.delta.len.load(Ordering::Relaxed) > 0 {
            for stripe in &state.delta.stripes {
                slots.extend(stripe.read().keys().map(|(slot, _)| *slot));
            }
        }
        slots.into_iter()
    }

    /// Applies a batch of ingested trajectory points to the delta tail.
    ///
    /// Points are grouped by (slot, segment) exactly like
    /// [`StIndex::build`] groups its observation tuples; for every touched
    /// pair the current list (delta if present, else base, else empty) is
    /// merged with the new (date, trajectory) observations and the merged
    /// encoding is appended to the delta heap. Since [`TimeList::add`] is a
    /// sorted-set insert, the merge is idempotent and order-insensitive:
    /// re-applying a batch (WAL replay after a crash) or applying batches
    /// in any interleaving converges to the same lists a from-scratch build
    /// on the combined data produces.
    ///
    /// Returns the touched (slot, segment) pairs — the delta directory
    /// keys the batch overrode — sorted ascending and deduplicated (one
    /// entry per group), with the slot wrapped into the day grid. Result
    /// caches use exactly this list to invalidate answers whose window
    /// read one of the pairs. On `Err` (a read fault on the current list,
    /// or a write fault appending the merged one) a prefix of the groups
    /// may already be applied; because the merge is idempotent, retrying
    /// the same batch completes the remainder without duplicating
    /// anything.
    ///
    /// Callers serialize through the engine's ingest lock, so the pinned
    /// state cannot be swapped (compacted) away mid-application; concurrent
    /// queries keep reading throughout.
    pub(crate) fn apply_points(&self, points: &[TrajPoint]) -> StorageResult<Vec<(u32, u32)>> {
        if points.is_empty() {
            return Ok(Vec::new());
        }
        let state = self.current();
        let mut obs: Vec<(u32, u32, u16, u32)> = points
            .iter()
            .map(|p| {
                (
                    slot_of(p.enter_time_s, self.slot_s),
                    p.segment.0,
                    p.date,
                    p.traj_id,
                )
            })
            .collect();
        obs.sort_unstable();

        // Group boundaries over the sorted observations: one half-open
        // `[start, end)` range per (slot, segment) pair.
        let mut groups: Vec<(usize, usize)> = Vec::new();
        let mut i = 0;
        while i < obs.len() {
            let start = i;
            let (slot, segment) = (obs[i].0, obs[i].1);
            while i < obs.len() && obs[i].0 == slot && obs[i].1 == segment {
                i += 1;
            }
            groups.push((start, i));
        }

        // Read + merge + encode per group in parallel: the groups are
        // disjoint (slot, segment) pairs, so each worker reads the current
        // list (delta if present, else base), folds its observations in and
        // produces the merged encoding independently. Only the heap append
        // below is ordered.
        let merged: Vec<(Vec<u8>, bool)> = streach_par::try_par_map_with(
            &groups,
            TimeList::new,
            |list: &mut TimeList, &(start, end)| -> StorageResult<(Vec<u8>, bool)> {
                let (slot, segment) = (obs[start].0, obs[start].1);
                let is_new = match state.lookup(SegmentId(segment), self.wrap_slot(slot)) {
                    Some(list_ref) => {
                        *list = state.read_time_list(list_ref)?;
                        false
                    }
                    None => {
                        list.entries.clear();
                        true
                    }
                };
                for &(_, _, date, traj_id) in &obs[start..end] {
                    list.add(date, traj_id);
                }
                Ok((list.encode(), is_new))
            },
        )?;

        // Sequential appends in sorted group order keep the delta heap's
        // byte layout identical to the old one-group-at-a-time fold, so
        // snapshots and compaction stay bit-deterministic.
        let mut touched = Vec::with_capacity(groups.len());
        for (&(start, end), (bytes, is_new)) in groups.iter().zip(&merged) {
            let (slot, segment) = (obs[start].0, obs[start].1);
            let handle = state.delta.postings.append(bytes)?;
            state.delta.insert(slot, segment, handle);
            // Stats are committed per group, so a batch that faults midway
            // has counted exactly the groups it applied: the retry counts
            // only the remainder's new lists (its re-merged groups resolve
            // as existing delta entries), keeping `num_time_lists` exact.
            // `num_observations` counts re-processed points again on such
            // a retry — the documented at-least-once counter semantics.
            let mut stats = self.stats.lock();
            if *is_new {
                stats.num_time_lists += 1;
            }
            stats.num_observations += (end - start) as u64;
            drop(stats);
            touched.push((self.wrap_slot(slot), segment));
        }
        Ok(touched)
    }

    /// Folds the delta tail into a **new sealed base**: every (slot,
    /// segment) list — overridden or untouched — is laid out slot by slot,
    /// segment by segment in a fresh in-memory heap, a new temporal
    /// directory is built over it and the delta is emptied. The result is
    /// byte-identical to the heap [`StIndex::build`] would produce on the
    /// combined data, so post-compaction queries and snapshots are
    /// bit-exact with a from-scratch rebuild.
    ///
    /// The per-list blob copies are read in parallel via `streach_par`
    /// worker threads (the dominant cost); the ordered append into the new
    /// heap is a single linear pass. On `Err` (a read fault while copying)
    /// the index is left untouched: the old base keeps serving and the
    /// compaction is retryable.
    ///
    /// The whole fold runs against a pinned state **off to the side** —
    /// concurrent queries keep reading the old (base, delta) pair the whole
    /// time — and the result is published with one pointer swap. Callers
    /// serialize through the engine's ingest lock, so the delta cannot grow
    /// between the pin and the swap.
    pub(crate) fn compact(&self) -> StorageResult<DeltaStats> {
        let state = self.current();
        let folded = state.delta_stats();
        if folded.delta_lists == 0 {
            return Ok(folded);
        }

        // Merged directory: base entries overridden by delta entries, in
        // (slot, segment) order — the clustered layout `build` produces.
        let mut merged: BTreeMap<(u32, u32), ListRef> = BTreeMap::new();
        for (slot, dir) in state.base.temporal.iter() {
            for (segment, handle) in &dir.entries {
                merged.insert((slot as u32, segment.0), ListRef::Base(*handle));
            }
        }
        for (key, handle) in state.delta.sorted_entries() {
            merged.insert(key, ListRef::Delta(handle));
        }

        // Copy every blob out (parallel reads against both heaps).
        let entries: Vec<((u32, u32), ListRef)> = merged.into_iter().collect();
        let blobs: Vec<Vec<u8>> = streach_par::try_par_map_with(
            &entries,
            Vec::new,
            |buf: &mut Vec<u8>, (_, list_ref)| -> StorageResult<Vec<u8>> {
                state.read_into(*list_ref, buf)?;
                Ok(buf.clone())
            },
        )?;

        // Lay the new sealed base out in order.
        let io = state.base.postings.io_stats();
        let read_latency = state.base.postings.store().read_latency();
        let pool_pages = state.base.postings.pool_capacity();
        let read_retries = state.base.postings.read_retries();
        let store = SimulatedDiskStore::with_latency(
            Box::new(InMemoryPageStore::with_stats(Arc::clone(&io))) as Box<dyn PageStore>,
            read_latency,
            Duration::ZERO,
        );
        let new_postings = PostingStore::with_tail_and_retries(store, pool_pages, 0, read_retries);
        let mut temporal = BPlusTree::with_order(32);
        let mut directory = SlotDirectory::default();
        let mut num_time_lists = 0u64;
        for (index, ((slot, segment), _)) in entries.iter().enumerate() {
            let handle = new_postings.append(&blobs[index])?;
            directory.entries.push((SegmentId(*segment), handle));
            num_time_lists += 1;
            let next_slot = entries.get(index + 1).map(|((s, _), _)| *s);
            if next_slot != Some(*slot) {
                temporal.insert(*slot as u64, std::mem::take(&mut directory));
            }
        }
        let posting_bytes = new_postings.size_bytes();
        let posting_pages = new_postings.num_pages();

        // Publish: one pointer swap. Readers in flight finish on the old
        // state (kept alive by their pinned `Arc`s); new readers see the
        // fresh sealed base and an empty delta tail.
        let new_state = Arc::new(IndexState {
            base: SealedBase {
                temporal,
                postings: new_postings,
            },
            delta: Self::empty_delta(io, read_latency, pool_pages, read_retries),
        });
        *self.state.write() = new_state;
        let mut stats = self.stats.lock();
        stats.num_time_lists = num_time_lists;
        stats.posting_bytes = posting_bytes;
        stats.posting_pages = posting_pages;
        Ok(folded)
    }
}

/// [`StIndex`] is the canonical posting source the verifiers read from; a
/// sharded topology substitutes a router (see `crate::sharded`) behind the
/// same trait.
impl crate::query::verifier::PostingSource for StIndex {
    type Pin = PinnedState;

    fn slot_s(&self) -> u32 {
        StIndex::slot_s(self)
    }

    fn num_days(&self) -> u16 {
        StIndex::num_days(self)
    }

    fn io_stats(&self) -> Arc<IoStats> {
        StIndex::io_stats(self)
    }

    fn pin(&self) -> PinnedState {
        StIndex::pin(self)
    }

    fn read_pinned(
        &self,
        pin: &PinnedState,
        segment: SegmentId,
        slot: u32,
        buf: &mut Vec<u8>,
    ) -> StorageResult<bool> {
        StIndex::read_pinned(self, pin, segment, slot, buf)
    }

    fn malformed_posting(&self, segment: SegmentId, slot: u32) -> StorageError {
        StIndex::malformed_posting(self, segment, slot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use streach_roadnet::{GeneratorConfig, SyntheticCity};
    use streach_traj::FleetConfig;

    fn build_small() -> (Arc<RoadNetwork>, TrajectoryDataset, StIndex) {
        let city = SyntheticCity::generate(GeneratorConfig::small());
        let network = Arc::new(city.network);
        let dataset = TrajectoryDataset::simulate(&network, FleetConfig::tiny());
        let index = StIndex::build(
            network.clone(),
            &dataset,
            &IndexConfig {
                read_latency_us: 0,
                ..Default::default()
            },
        );
        (network, dataset, index)
    }

    #[test]
    fn build_produces_consistent_stats() {
        let (_, dataset, index) = build_small();
        let stats = index.stats();
        let total_visits: u64 = dataset.trajectories().iter().map(|t| t.len() as u64).sum();
        assert_eq!(stats.num_observations, total_visits);
        assert!(stats.num_time_lists > 0);
        assert!(stats.num_time_lists <= total_visits);
        assert!(stats.posting_bytes > 0);
        assert!(stats.posting_pages > 0);
        assert_eq!(index.num_days(), dataset.num_days());
        assert_eq!(index.slot_s(), 300);
    }

    #[test]
    fn time_lists_round_trip_every_visit() {
        let (_, dataset, index) = build_small();
        // Every visit in the dataset must be present in the corresponding
        // time list.
        for traj in dataset.trajectories().iter().take(5) {
            for visit in traj.visits.iter().take(50) {
                let slot = slot_of(visit.enter_time_s, index.slot_s());
                let list = index
                    .time_list(visit.segment, slot)
                    .expect("in-memory read cannot fault")
                    .expect("visited segment must have a time list");
                let ids = list.ids_on(traj.date).expect("date entry present");
                assert!(ids.contains(&traj.traj_id));
            }
        }
    }

    #[test]
    fn ids_in_window_filters_by_date_and_time() {
        let (_, dataset, index) = build_small();
        let traj = &dataset.trajectories()[0];
        let visit = traj.visits[traj.visits.len() / 2];
        // A window around the visit on the right date contains the trajectory.
        let ids = index
            .ids_in_window(
                visit.segment,
                visit.enter_time_s,
                visit.enter_time_s + 60,
                traj.date,
            )
            .unwrap();
        assert!(ids.contains(&traj.traj_id));
        // A different (non-existent) date does not.
        let ids_other = index
            .ids_in_window(
                visit.segment,
                visit.enter_time_s,
                visit.enter_time_s + 60,
                200,
            )
            .unwrap();
        assert!(!ids_other.contains(&traj.traj_id));
        // A window long before the visit (01:00-01:05, fleet starts at 08:00) is empty.
        let ids_before = index
            .ids_in_window(visit.segment, 3600, 3900, traj.date)
            .unwrap();
        assert!(ids_before.is_empty());
        // Results are sorted and unique.
        assert!(ids.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn missing_segment_slot_is_none() {
        let (network, _, index) = build_small();
        // Slot 0 corresponds to 00:00-00:05; the tiny fleet only operates
        // from 08:00, so no list exists there.
        let seg = network.segment_ids().next().unwrap();
        assert_eq!(index.time_list(seg, 0).unwrap(), None);
        assert!(!index.has_entry(seg, 0));
        assert!(index.ids_in_window(seg, 0, 300, 0).unwrap().is_empty());
    }

    #[test]
    fn locate_segment_matches_network_lookup() {
        let (network, _, index) = build_small();
        let p = network.bounds().center();
        assert_eq!(
            index.locate_segment(&p),
            network.nearest_segment(&p).map(|(id, _)| id)
        );
    }

    #[test]
    fn reads_are_counted_as_io() {
        let (_, dataset, index) = build_small();
        let traj = &dataset.trajectories()[0];
        let visit = traj.visits[0];
        index.clear_cache();
        index.io_stats().reset();
        let slot = slot_of(visit.enter_time_s, index.slot_s());
        let _ = index.time_list(visit.segment, slot);
        let snap = index.io_stats().snapshot();
        assert!(
            snap.page_reads >= 1,
            "a cold read must touch at least one page"
        );
        // Reading it again is served by the buffer pool.
        let _ = index.time_list(visit.segment, slot);
        let snap2 = index.io_stats().snapshot();
        assert_eq!(snap2.page_reads, snap.page_reads);
        assert!(snap2.cache_hits > snap.cache_hits);
    }

    #[test]
    fn populated_slots_cover_operating_hours_only() {
        let (_, _, index) = build_small();
        let slots: Vec<u32> = index.populated_slots().collect();
        assert!(!slots.is_empty());
        // Tiny fleet operates 08:00-12:00 => slots 96..144 (Δt = 5 min).
        assert!(*slots.first().unwrap() >= 90);
        assert!(*slots.last().unwrap() <= 150);
        assert!(slots.windows(2).all(|w| w[0] < w[1]));
    }
}
