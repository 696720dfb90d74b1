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
//! * the **temporal index** — the paper's temporal partition of the day —
//!   is an array keyed by the Δt slot number: one directory per slot of the
//!   day (288 at Δt = 5 min), an empty directory marking a slot no
//!   trajectory traversed ([`directory`]),
//! * the **spatial index** is the R-tree over the static road network — as
//!   the paper notes, "essentially all the leaf nodes in the temporal index
//!   have the same spatial index structure", so a single shared tree (owned
//!   by the [`RoadNetwork`]) is used, and a query locates its start segment
//!   in it with [`RoadNetwork::nearest_segment`],
//! * the **time lists** are [`TimeList`] posting lists (date → trajectory
//!   IDs) serialized into a page-based [`PostingStore`]; every read is real
//!   page I/O, counted per physical read.
//!
//! [`directory`] holds the temporal index and its snapshot sections,
//! [`delta`] the delta tail, its section and where views are held, [`view`]
//! the trajectory views, and [`build`] the one path that seals a base, for
//! build and compaction.
//!
//! # Streaming ingest: sealed base + delta tail
//!
//! The index is split into a **sealed base** (the temporal directory and
//! posting heap produced by [`StIndex::build`] or reopened from a snapshot
//! — never mutated) and a **delta tail** that absorbs trajectory points
//! ingested after open ([`StIndex::apply_points`]). The delta is a
//! memtable: per (slot, segment) pair it has touched, the encoded bytes of
//! the *fully merged* time list (base observations ∪ ingested
//! observations). A delta entry therefore **overrides** the base entry on
//! the read path, which keeps every reader — [`StIndex::time_list`],
//! [`StIndex::read_time_list_into`], [`StIndex::ids_in_window`] — a single
//! posting read with unchanged circular-day slot semantics. When no point
//! was ever ingested the delta check is one relaxed atomic load, so the
//! sealed-base hot path is untouched. [`StIndex::compact`] folds the delta
//! back into a fresh sealed base through the writer the build uses, so it
//! is bit-identical to a from-scratch build on the combined data, and
//! empties the tail.
//!
//! Each slot of a state has one lazily built **trajectory view**: the slot
//! inverted as a segment-major read sees it, each segment's delta list
//! overriding its base list, so it is the slot a compaction would seal.
//! The delta tail holds it beside the slot's lists, and a fold into the
//! slot drops it; it is never saved ([`view`], [`delta`]). One slot walker,
//! [`SealedBase::walk_slot`], feeds both the view build and compaction.
//!
//! # Online maintenance: the atomic state swap
//!
//! The sealed base and the delta tail live together in one immutable
//! `IndexState` behind `RwLock<Arc<IndexState>>`. Every reader **pins** the
//! current state with a single `Arc` clone and performs its directory
//! lookup and posting read against that pinned pair — always a consistent
//! (base, delta) combination. The query hot path pins once per query
//! ([`StIndex::pin`], taken by the verifier) and reads every posting
//! through that pin, a window slot's run of blobs at a time
//! ([`PostingSource::visit_slot`](crate::query::verifier::PostingSource::visit_slot)),
//! so its thousands of reads never touch the lock or the shared reference
//! count; the one-off readers
//! ([`StIndex::read_time_list_into`] and friends) pin per call. Compaction
//! builds the new sealed base
//! entirely off to the side (reading the pinned old state) and publishes it
//! with **one pointer swap**: readers in flight simply finish on the old
//! base, which the `Arc` keeps alive, and no query ever blocks on
//! compaction. Mutation (ingest application, compaction publishing) is
//! serialized by the engine's ingest lock, which queries never touch.

mod build;
mod delta;
mod directory;
mod view;

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU16, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;
use streach_roadnet::{RoadNetwork, SegmentId};
use streach_storage::{
    BlobHandle, IoStats, LazySection, PageStore, PostingStore, StorageError, StorageResult,
    TimeList, PAGE_SIZE,
};
use streach_traj::TrajPoint;

use crate::config::IndexConfig;
use crate::time::{slot_of, slots_overlapping, SlotWindow};
pub use delta::DeltaStats;
use delta::{decode_delta, DeltaTail, ListsOf};
use directory::{decode_st_index_head, encode_st_index, TemporalIndex};
use view::TrajectoryView;
pub use view::{SlotForward, ViewStats};

/// Page store backing the ST-Index: any [`PageStore`] backend (in-memory for
/// fresh builds, a checked file store for reopened snapshots).
pub type StIndexStore = Box<dyn PageStore>;

/// Number of Δt slots in one day: the length of the temporal index.
fn slots_per_day(slot_s: u32) -> usize {
    streach_traj::SECONDS_PER_DAY.div_ceil(slot_s) as usize
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

/// Where a (segment, slot) time list currently lives.
#[derive(Debug, Clone, PartialEq, Eq)]
enum ListRef {
    /// In the sealed base heap.
    Base(BlobHandle),
    /// In the delta tail — a fully merged list that overrides the base.
    Delta(Arc<[u8]>),
}

/// The sealed base of the index: the temporal directory plus its posting
/// heap. Produced by [`StIndex::build`], a snapshot open or a compaction —
/// and never mutated afterwards; compaction replaces it wholesale.
struct SealedBase {
    temporal: TemporalIndex,
    postings: PostingStore<StIndexStore>,
}

impl SealedBase {
    /// Calls `visit(segment, bytes)` for every list of `slot` as a
    /// segment-major read sees it, in ascending segment order: where
    /// `delta`, the slot's delta lists, has a list it wins, else the base
    /// list, whose blobs one [`BlobRun`](streach_storage::BlobRun) reads in
    /// heap order, a page at a time, through `buf`. Stops at the first
    /// error. The one slot walker: view builds and compaction both use it.
    fn walk_slot<F>(
        &self,
        slot: u32,
        delta: &ListsOf,
        buf: &mut Vec<u8>,
        mut visit: F,
    ) -> StorageResult<()>
    where
        F: FnMut(SegmentId, &[u8]) -> StorageResult<()>,
    {
        let directory = self.temporal.get(slot)?;
        let mut run = self.postings.run();
        let mut pending = delta.iter().peekable();
        for (segment, handle) in directory.entries() {
            while let Some((added, list)) = pending.next_if(|entry| entry.0 < segment) {
                visit(*added, list)?;
            }
            match pending.next_if(|entry| entry.0 == segment) {
                Some((_, list)) => visit(segment, list)?,
                None => visit(segment, run.read(handle, buf)?)?,
            }
        }
        for (added, list) in pending {
            visit(*added, list)?;
        }
        Ok(())
    }
}

/// One consistent (sealed base, delta tail) pair. Readers pin the current
/// state with a single `Arc` clone; compaction publishes a replacement with
/// one pointer swap while in-flight readers finish on the old state.
struct IndexState {
    base: SealedBase,
    delta: DeltaTail,
}

impl IndexState {
    /// Where the list of (segment, slot) lives — the slot already wrapped
    /// into the day. A delta entry holds the fully merged list and
    /// therefore overrides the base entry; with no deltas the check is one
    /// relaxed atomic load. Fails only when the slot's directory chunk
    /// cannot be decoded.
    fn lookup(&self, segment: SegmentId, slot: u32) -> StorageResult<Option<ListRef>> {
        if let Some(list) = self.delta.get(slot, segment) {
            return Ok(Some(ListRef::Delta(list)));
        }
        let directory = self.base.temporal.get(slot)?;
        let entry = directory.seek(&mut 0, segment);
        Ok(entry.map(|i| ListRef::Base(directory.handle(i))))
    }

    /// Reads and strictly decodes a located list; a delta list is decoded
    /// with the same decode accounting as a base one.
    fn read_time_list(&self, list_ref: &ListRef) -> StorageResult<TimeList> {
        match list_ref {
            ListRef::Base(handle) => self.base.postings.read_time_list(*handle),
            ListRef::Delta(bytes) => {
                let list = TimeList::decode(bytes)
                    .ok_or_else(|| StorageError::corrupt("delta time list failed to decode"))?;
                self.base
                    .postings
                    .io_stats()
                    .record_posting_decode(list.fixed_width_size(), bytes.len() as u64);
                Ok(list)
            }
        }
    }

    /// Reads a located list's encoded bytes into `buf`.
    fn read_into(&self, list_ref: &ListRef, buf: &mut Vec<u8>) -> StorageResult<()> {
        match list_ref {
            ListRef::Base(handle) => self.base.postings.read_into(*handle, buf),
            ListRef::Delta(bytes) => {
                buf.clear();
                buf.extend_from_slice(bytes);
                Ok(())
            }
        }
    }

    /// Calls `visit(i, bytes)` for every `segments[i]` with a list in `slot`
    /// (wrapped into the day), in ascending `i`. `segments` must ascend, so
    /// merging them with the slot's directory yields the base blobs in heap
    /// order, and one [`BlobRun`](streach_storage::BlobRun) reads them a
    /// page at a time, lending in-page blobs. A delta entry overrides the
    /// base entry, as in [`IndexState::lookup`], and its bytes are lent
    /// too.
    fn visit_slot<F>(
        &self,
        segments: &[SegmentId],
        slot: u32,
        buf: &mut Vec<u8>,
        mut visit: F,
    ) -> StorageResult<()>
    where
        F: FnMut(usize, &[u8]) -> StorageResult<()>,
    {
        let directory = self.base.temporal.get(slot)?;
        let mut run = self.base.postings.run();
        let mut next = 0;
        for (i, &segment) in segments.iter().enumerate() {
            if let Some(list) = self.delta.get(slot, segment) {
                visit(i, &list)?;
            } else if let Some(entry) = directory.seek(&mut next, segment) {
                visit(i, run.read(directory.handle(entry), buf)?)?;
            }
        }
        Ok(())
    }
}

/// A pinned view of the index: one consistent (sealed base, delta tail)
/// pair, taken with [`StIndex::pin`]. It keeps that base alive and readable
/// after a compaction replaces it; ingest folded into the pinned delta tail
/// stays visible. Verifiers read through one per query; the snapshot
/// writer pins one for a whole save.
pub struct PinnedState(Arc<IndexState>);

impl PinnedState {
    /// The sealed-base posting store.
    pub(crate) fn base_postings(&self) -> &PostingStore<StIndexStore> {
        &self.0.base.postings
    }

    /// The temporal directory, one slot directory per slot of the day.
    #[cfg(test)]
    pub(crate) fn directory(&self) -> &TemporalIndex {
        &self.0.base.temporal
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
    /// [`StIndexStats::num_time_lists`]: a compaction leaves it unchanged.
    num_time_lists: AtomicU64,
    /// [`StIndexStats::num_observations`]: a compaction leaves it
    /// unchanged.
    num_observations: AtomicU64,
}

impl StIndex {
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
        slot % slots_per_day(self.slot_s) as u32
    }

    /// Encodes the index's snapshot sections from `pin`, a state of this
    /// index: the `st_index` head and the `st_index_slots` chunks of its
    /// sealed base (every slot directory decoded first; layout in
    /// [`directory`]) and its `delta` tail (layout in [`delta`]).
    pub(crate) fn encode_sections(
        &self,
        pin: &PinnedState,
    ) -> StorageResult<(Vec<u8>, Vec<u8>, Vec<u8>)> {
        let base = &pin.0.base;
        let (head, slots) = encode_st_index(
            self.slot_s,
            self.num_days(),
            self.stats_of(base),
            base.postings.size_bytes(),
            &base.temporal.directories()?,
        );
        Ok((head, slots, pin.0.delta.encode()))
    }

    /// Reopens the index from the sections [`StIndex::encode_sections`]
    /// wrote with `config`, over `store`, the page store of its heap. The
    /// head must agree with the config and with the heap, and every delta
    /// list with the day and the network; else [`StorageError::Corrupt`].
    /// Reads no page and no chunk.
    pub(crate) fn open_sections(
        network: Arc<RoadNetwork>,
        head: &[u8],
        slots: LazySection,
        delta: &[u8],
        config: &IndexConfig,
        store: StIndexStore,
    ) -> StorageResult<Self> {
        let head = decode_st_index_head(head, slots.len())?;
        if head.slot_s != config.slot_s {
            return Err(StorageError::corrupt(
                "st_index slot length disagrees with the config section",
            ));
        }
        let num_pages = store.num_pages();
        if head.tail > num_pages * PAGE_SIZE as u64 {
            return Err(StorageError::corrupt(
                "posting page file is shorter than the posting heap",
            ));
        }
        if head.stats.posting_bytes != head.tail || head.stats.posting_pages != num_pages {
            return Err(StorageError::corrupt(format!(
                "st_index head records a heap of {} bytes in {} pages, \
                 but the heap is {} bytes in {num_pages} pages",
                head.stats.posting_bytes, head.stats.posting_pages, head.tail
            )));
        }
        let delta = decode_delta(delta, config.slots_per_day(), network.num_segments())?;
        let postings =
            PostingStore::sealed(store, config.pool_pages, head.tail, config.read_retries);
        Ok(Self {
            network,
            slot_s: head.slot_s,
            num_days: AtomicU16::new(head.num_days),
            state: RwLock::new(Arc::new(IndexState {
                base: SealedBase {
                    temporal: TemporalIndex::lazy(slots, head.slots),
                    postings,
                },
                delta: DeltaTail::new(delta, config.slots_per_day() as usize),
            })),
            num_time_lists: AtomicU64::new(head.stats.num_time_lists),
            num_observations: AtomicU64::new(head.stats.num_observations),
        })
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

    /// Construction statistics; the heap's size and pages are the current
    /// sealed base's.
    pub fn stats(&self) -> StIndexStats {
        self.stats_of(&self.current().base)
    }

    /// The index's statistics with `base`'s heap.
    fn stats_of(&self, base: &SealedBase) -> StIndexStats {
        StIndexStats {
            num_time_lists: self.num_time_lists.load(Ordering::Relaxed),
            num_observations: self.num_observations.load(Ordering::Relaxed),
            posting_bytes: base.postings.size_bytes(),
            posting_pages: base.postings.num_pages(),
        }
    }

    /// Size statistics of the mutable delta tail.
    pub fn delta_stats(&self) -> DeltaStats {
        self.current().delta.stats()
    }

    /// The trajectory views built on the current state and the heap bytes
    /// they hold. An ingest drops the views of the slots it touches; a
    /// compaction publishes a state with none.
    pub fn view_stats(&self) -> ViewStats {
        self.current().delta.view_stats()
    }

    /// Per slot of the current state with a built view, the (date,
    /// trajectory, segment) triples it holds, ascending.
    #[cfg(test)]
    pub(crate) fn view_triples(&self) -> Vec<(u32, Vec<view::Triple>)> {
        self.current().delta.view_triples()
    }

    /// I/O counters of the sealed-base posting store, shared across
    /// compactions.
    pub fn io_stats(&self) -> Arc<IoStats> {
        self.current().base.postings.io_stats()
    }

    /// Drops all cached posting pages (for cold-cache measurements).
    pub fn clear_cache(&self) {
        self.current().base.postings.clear_cache();
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
        match state.lookup(segment, self.wrap_slot(slot))? {
            Some(list_ref) => Ok(Some(state.read_time_list(&list_ref)?)),
            None => Ok(None),
        }
    }

    /// Reads the raw encoded time list of `segment` in `slot` into a
    /// caller-owned buffer, returning `Ok(false)` when no list exists and
    /// `Err` on a disk fault.
    ///
    /// The bytes land in reusable scratch storage and are consumed through
    /// [`streach_storage::visit_posting`], with no [`TimeList`] built. I/O
    /// accounting is identical to [`StIndex::time_list`].
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
        match pin.0.lookup(segment, self.wrap_slot(slot))? {
            Some(list_ref) => {
                pin.0.read_into(&list_ref, buf)?;
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
            if let Some(list_ref) = state.lookup(segment, self.wrap_slot(slot))? {
                if let Some(ids) = state.read_time_list(&list_ref)?.ids_on(date) {
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

    /// All slots that have at least one time list (base or delta), in
    /// ascending order. Decodes no directory.
    pub fn populated_slots(&self) -> impl Iterator<Item = u32> + '_ {
        let state = self.current();
        let temporal = &state.base.temporal;
        let mut slots: BTreeSet<u32> = (0..temporal.len())
            .filter(|&slot| temporal.is_populated(slot))
            .map(|slot| slot as u32)
            .collect();
        slots.extend(state.delta.slots());
        slots.into_iter()
    }

    /// Decodes the base directories of `slots` (wrapped into the day) that
    /// are not decoded yet, so later reads of them cannot fail on the
    /// directory. A chunk that cannot be read or decoded is a typed error
    /// naming `st_index_slots` and the slot. Queries and ingest call this
    /// before anything else; a compaction publishes a fully decoded base.
    pub(crate) fn resolve_slots(&self, slots: impl IntoIterator<Item = u32>) -> StorageResult<()> {
        let state = self.current();
        for slot in slots {
            state.base.temporal.get(self.wrap_slot(slot))?;
        }
        Ok(())
    }

    /// Reads and checks everything the sealed base serves from disk: every
    /// directory chunk and every page against its recorded CRC (read past
    /// the buffer pool). Returns the first failure.
    pub(crate) fn scrub(&self) -> StorageResult<()> {
        let state = self.current();
        state.base.temporal.scrub()?;
        let store = state.base.postings.store();
        for page in 0..store.num_pages() {
            store.read_page(page)?;
        }
        Ok(())
    }

    /// Applies a batch of ingested trajectory points to the delta tail.
    ///
    /// Points are grouped by (slot, segment), the groups
    /// [`StIndex::build`] makes of its observations; for every touched
    /// pair the current list (delta if present, else base, else empty) is
    /// merged with the new (date, trajectory) observations, and once every
    /// group has merged, the merged encodings replace the pairs' delta
    /// entries. Since
    /// [`TimeList::add`] is a sorted-set insert, the merge is idempotent and
    /// order-insensitive: re-applying a batch (WAL replay after a crash) or
    /// applying batches in any interleaving converges to the same lists a
    /// from-scratch build on the combined data produces.
    ///
    /// Returns the touched (slot, segment) pairs — the delta directory
    /// keys the batch overrode — sorted ascending and deduplicated (one
    /// entry per group), with the slot wrapped into the day grid. Result
    /// caches use exactly this list to invalidate answers whose window
    /// read one of the pairs. The only failure is a read fault on a current
    /// base list, and every read happens before the first insert: on `Err`
    /// no group of the batch is published, and retrying the same batch
    /// applies all of it. Because the merge is idempotent, a retry after a
    /// partly acknowledged application duplicates nothing either.
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
        let groups: Vec<(usize, usize)> = obs
            .chunk_by(|a, b| (a.0, a.1) == (b.0, b.1))
            .scan(0, |start, group| {
                let range = (*start, *start + group.len());
                *start = range.1;
                Some(range)
            })
            .collect();

        // Read + merge + encode per group in parallel: the groups are
        // disjoint (slot, segment) pairs, so each worker reads the current
        // list (delta if present, else base) and merges its observations in
        // independently.
        let merged: Vec<(Arc<[u8]>, bool)> = streach_par::try_par_map_with(
            &groups,
            TimeList::new,
            |list: &mut TimeList, &(start, end)| -> StorageResult<(Arc<[u8]>, bool)> {
                let (slot, segment) = (obs[start].0, obs[start].1);
                let current = state.lookup(SegmentId(segment), self.wrap_slot(slot))?;
                match &current {
                    Some(list_ref) => *list = state.read_time_list(list_ref)?,
                    None => list.entries.clear(),
                }
                for &(_, _, date, id) in &obs[start..end] {
                    list.add(date, id);
                }
                Ok((list.encode().into(), current.is_none()))
            },
        )?;

        // Every group merged: publish the lists, then the stats.
        let new_lists = merged.iter().filter(|(_, is_new)| *is_new).count() as u64;
        let keys = groups
            .iter()
            .map(|&(start, _)| (obs[start].0, obs[start].1));
        let touched = keys
            .clone()
            .map(|(slot, segment)| (self.wrap_slot(slot), segment))
            .collect();
        state
            .delta
            .fold(keys.zip(merged.into_iter().map(|(list, _)| list)));
        self.num_time_lists.fetch_add(new_lists, Ordering::Relaxed);
        // A re-applied batch (WAL replay) counts its points again: the
        // documented at-least-once semantics of `num_observations`.
        self.num_observations
            .fetch_add(obs.len() as u64, Ordering::Relaxed);
        Ok(touched)
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

    fn resolve(&self, slots: SlotWindow) -> StorageResult<()> {
        self.resolve_slots(slots)
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

    fn visit_slot<F>(
        &self,
        pin: &PinnedState,
        segments: &[SegmentId],
        slot: u32,
        buf: &mut Vec<u8>,
        visit: F,
    ) -> StorageResult<()>
    where
        F: FnMut(usize, &[u8]) -> StorageResult<()>,
    {
        pin.0.visit_slot(segments, self.wrap_slot(slot), buf, visit)
    }

    fn forward(&self, pin: &PinnedState, slot: u32) -> Option<SlotForward> {
        let (state, slot) = (&pin.0, self.wrap_slot(slot));
        let view = state.delta.view(slot, |lists| {
            TrajectoryView::build(&state.base, slot, lists)
        })?;
        Some(SlotForward::single(view))
    }

    fn malformed_posting(&self, segment: SegmentId, slot: u32) -> StorageError {
        StIndex::malformed_posting(self, segment, slot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use streach_roadnet::{GeneratorConfig, SyntheticCity};
    use streach_traj::{FleetConfig, TrajPoint, TrajectoryDataset};

    fn build_small() -> (Arc<RoadNetwork>, TrajectoryDataset, StIndex) {
        let city = SyntheticCity::generate(GeneratorConfig::small());
        let network = Arc::new(city.network);
        let dataset = TrajectoryDataset::simulate(&network, FleetConfig::tiny());
        let index = StIndex::build(network.clone(), &dataset, &IndexConfig::default());
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
        assert!(index.ids_in_window(seg, 0, 300, 0).unwrap().is_empty());
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

    /// Every built view holds exactly the (date, trajectory, segment)
    /// triples of its slot as a segment-major read sees it: `visit_slot`
    /// over every segment, a delta list overriding its base list. Checked
    /// on a built index, after an ingest, after a re-ingest into the same
    /// (slot, segment) pairs, and on a delta reopened from a snapshot, onto
    /// which the same batch is then ingested as into the live engine: both
    /// hold the same views. Every ask answers like the oracle. The batches
    /// reach pairs with a base list (day 0 driven again) and pairs without
    /// one (day 1 driven three hours later, past the fleet's day).
    #[test]
    fn every_built_view_is_its_slot_as_a_segment_major_read_sees_it() {
        use crate::query::reference::NaiveVerifier;
        use crate::query::verifier::VerifierCore;
        use crate::ReachabilityEngine;

        let city = SyntheticCity::generate(GeneratorConfig::small());
        let network = Arc::new(city.network);
        let dataset = TrajectoryDataset::simulate(
            &network,
            FleetConfig {
                num_taxis: 15,
                num_days: 4,
                ..FleetConfig::tiny()
            },
        );
        let live = crate::EngineBuilder::new(network.clone(), &dataset).build();
        let batch = |date: u16, id_offset: u32| -> Vec<TrajPoint> {
            let trajectories = dataset.trajectories().iter();
            trajectories
                .filter(|t| t.date < 2)
                .flat_map(|t| {
                    let shift = u32::from(t.date) * 3 * 3600;
                    t.visits.iter().map(move |v| TrajPoint {
                        traj_id: t.traj_id + id_offset,
                        date,
                        segment: v.segment,
                        enter_time_s: v.enter_time_s + shift,
                    })
                })
                .collect()
        };
        let segments: Vec<SegmentId> = network.segment_ids().collect();
        let probes: Vec<TrajPoint> = {
            let points = batch(4, 0);
            let step = points.len() / 8;
            (0..8).map(|i| points[i * step]).collect()
        };
        // Three asks of every probe: segment-major, build, walk.
        let ask = |engine: &ReachabilityEngine, label: &str| -> Vec<Vec<f64>> {
            let st = engine.st_index();
            let mut answers = Vec::new();
            for ask in 0..3 {
                for p in &probes {
                    let (t, l) = (p.enter_time_s, 900);
                    let got = VerifierCore::new(st, p.segment, t, l)
                        .unwrap()
                        .probabilities(&segments)
                        .unwrap();
                    let naive = NaiveVerifier::new(st, p.segment, t, l).unwrap();
                    for (&s, got) in segments.iter().zip(&got) {
                        let want = naive.probability(s).unwrap();
                        assert_eq!(
                            got.to_bits(),
                            want.to_bits(),
                            "{label}: {s} at {t}, ask {ask}"
                        );
                    }
                    answers.push(got);
                }
            }
            answers
        };
        let views_are_slots = |engine: &ReachabilityEngine, label: &str| {
            let st = engine.st_index();
            let views = st.view_triples();
            assert!(views.iter().any(|(_, t)| !t.is_empty()), "{label}: no view");
            let pin = st.pin();
            for (slot, triples) in &views {
                let mut read = Vec::new();
                pin.0
                    .visit_slot(&segments, *slot, &mut Vec::new(), |i, bytes| {
                        let well_formed = streach_storage::visit_posting(bytes, |date, ids| {
                            read.extend(ids.map(|id| (date, id, segments[i])));
                        });
                        assert!(well_formed);
                        Ok(())
                    })
                    .unwrap();
                read.sort_unstable();
                assert_eq!(triples, &read, "{label}: slot {slot}");
            }
            views
        };

        ask(&live, "built");
        views_are_slots(&live, "built");
        live.ingest(&batch(4, 0)).unwrap();
        ask(&live, "after ingest");
        views_are_slots(&live, "after ingest");
        live.ingest(&batch(4, 1_000_000)).unwrap();
        ask(&live, "after re-ingest");
        views_are_slots(&live, "after re-ingest");

        let dir =
            std::env::temp_dir().join(format!("streach-reopened-views-{}", std::process::id()));
        live.save_snapshot(&dir).unwrap();
        let reopened = ReachabilityEngine::open_snapshot(&dir, network.clone()).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        assert!(reopened.st_index().delta_stats().delta_lists > 0);
        ask(&reopened, "reopened");
        views_are_slots(&reopened, "reopened");
        let again = batch(2, 2_000_000);
        live.ingest(&again).unwrap();
        reopened.ingest(&again).unwrap();
        assert_eq!(ask(&live, "live"), ask(&reopened, "reopened, after ingest"));
        assert_eq!(
            views_are_slots(&live, "live"),
            views_are_slots(&reopened, "reopened, after ingest")
        );
        assert_eq!(
            live.st_index().view_stats(),
            reopened.st_index().view_stats()
        );
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
