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
//!   trajectory traversed,
//! * the **spatial index** is the R-tree over the static road network — as
//!   the paper notes, "essentially all the leaf nodes in the temporal index
//!   have the same spatial index structure", so a single shared tree (owned
//!   by the [`RoadNetwork`]) is used, and a query locates its start segment
//!   in it with [`RoadNetwork::nearest_segment`],
//! * the **time lists** are [`TimeList`] posting lists (date → trajectory
//!   IDs) serialized into a page-based [`PostingStore`]; every read is real
//!   page I/O, counted per physical read.
//!
//! # Streaming ingest: sealed base + delta tail
//!
//! The index is split into a **sealed base** (the temporal directory and
//! posting heap produced by [`StIndex::build`] or reopened from a snapshot
//! — never mutated) and a **delta tail** that absorbs trajectory points
//! ingested after open ([`StIndex::apply_points`]). The delta is a
//! memtable: per (slot, segment) pair it has touched, the encoded bytes of
//! the *fully merged* time list (base observations ∪ ingested
//! observations), and beside them, when known, the observations the base
//! list lacks. A delta entry therefore **overrides** the base entry on
//! the read path, which keeps every reader — [`StIndex::time_list`],
//! [`StIndex::read_time_list_into`], [`StIndex::ids_in_window`] — a single
//! posting read with unchanged circular-day slot semantics. When no point
//! was ever ingested the delta check is one relaxed atomic load, so the
//! sealed-base hot path is untouched. [`StIndex::compact`] folds the delta
//! back into a fresh sealed base (bit-identical to a from-scratch build on
//! the combined data) and empties the tail.
//!
//! A sealed base also carries one lazily built **trajectory view** per
//! slot, derived in memory from its blobs on the slot's second
//! verification and never saved; the verifier reads a slot forward through
//! it and ORs in what the slot's delta lists add to the base (see
//! [`crate::query::verifier`], "Verifying forward"). [`StIndex::view_stats`]
//! reports the views built and the memory they hold.

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

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU16, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::{Mutex, RwLock};
use streach_roadnet::{RoadNetwork, SegmentId};
use streach_storage::{
    BlobHandle, InMemoryPageStore, IoStats, LazySection, PageStore, PostingStore, PostingWriter,
    StorageError, StorageResult, TimeList,
};
use streach_traj::{MatchedTrajectory, TrajPoint, TrajectoryDataset};

use crate::config::IndexConfig;
use crate::snapshot::Chunk;
use crate::time::{slot_of, slots_overlapping, SlotWindow};

/// Page store backing the ST-Index: any [`PageStore`] backend (in-memory for
/// fresh builds, a checked file store for reopened snapshots).
pub type StIndexStore = Box<dyn PageStore>;

/// Directory of one temporal leaf: for every road segment traversed during
/// the slot, the handle of its time list in the sealed-base posting store.
///
/// The sealed base lays its blobs out in (slot, segment) order with no gap,
/// so a slot's blobs are one contiguous run of the heap and their offsets
/// are implied, as in the snapshot's `st_index` section: the run starts at
/// `first`, and entry `i` ends `ends[i]` bytes into it (it starts where
/// entry `i - 1` ends). That is 8 bytes per entry. A run longer than
/// `u32::MAX` bytes does not fit: [`SlotDirectory::push`] refuses it, and
/// the snapshot decoder rejects it as corrupt.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct SlotDirectory {
    /// Heap offset of the slot's first blob.
    first: u64,
    /// Sorted by segment ID for binary search.
    segments: Vec<SegmentId>,
    /// `ends[i]`: end of entry `i`'s blob, relative to `first`.
    ends: Vec<u32>,
}

impl SlotDirectory {
    /// A slot whose blobs start at heap offset `first`, entry `i` being
    /// `segments[i]`'s blob, which ends `ends[i]` bytes past `first`.
    /// Segments must ascend strictly and ends must grow strictly.
    pub(crate) fn new(first: u64, segments: Vec<SegmentId>, ends: Vec<u32>) -> Self {
        debug_assert_eq!(segments.len(), ends.len());
        debug_assert!(segments.windows(2).all(|w| w[0] < w[1]));
        debug_assert!(ends.windows(2).all(|w| w[0] < w[1]));
        Self {
            first,
            segments,
            ends,
        }
    }

    fn get(&self, segment: SegmentId) -> Option<BlobHandle> {
        let i = self.segments.binary_search(&segment).ok()?;
        Some(self.handle(i))
    }

    /// The entry of `segment`, searching only the entries from `*from` on
    /// and moving `*from` past where the search ended: a batch of ascending
    /// segments walks the directory once.
    fn seek(&self, from: &mut usize, segment: SegmentId) -> Option<usize> {
        match self.segments[*from..].binary_search(&segment) {
            Ok(k) => {
                *from += k + 1;
                Some(*from - 1)
            }
            Err(k) => {
                *from += k;
                None
            }
        }
    }

    /// The blob handle of entry `i`.
    fn handle(&self, i: usize) -> BlobHandle {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        BlobHandle {
            offset: self.first + start as u64,
            len: self.ends[i] - start,
        }
    }

    /// Number of entries.
    pub(crate) fn len(&self) -> usize {
        self.segments.len()
    }

    /// Heap offset of the slot's first blob.
    pub(crate) fn first(&self) -> u64 {
        self.first
    }

    /// Bytes of heap the slot's blobs span.
    pub(crate) fn span(&self) -> u32 {
        self.ends.last().copied().unwrap_or(0)
    }

    /// `true` when no segment was traversed in the slot.
    pub(crate) fn is_empty(&self) -> bool {
        self.segments.is_empty()
    }

    /// The entries in segment order.
    pub(crate) fn entries(&self) -> impl Iterator<Item = (SegmentId, BlobHandle)> + '_ {
        (0..self.len()).map(|i| (self.segments[i], self.handle(i)))
    }

    /// Appends the next entry. `segment` must exceed every segment already
    /// in the slot, and the blob must start where the slot's last blob
    /// ended (anywhere, for the first entry). Returns `None`, leaving the
    /// directory unchanged, when the slot's blobs would span more than
    /// `u32::MAX` bytes.
    pub(crate) fn push(&mut self, segment: SegmentId, handle: BlobHandle) -> Option<()> {
        if self.is_empty() {
            self.first = handle.offset;
        }
        debug_assert!(self.segments.last().is_none_or(|&last| last < segment));
        debug_assert_eq!(
            handle.offset,
            self.first + self.ends.last().map_or(0, |&end| end as u64),
            "sealed-base blobs must be contiguous in (slot, segment) order"
        );
        let end = u32::try_from(handle.offset - self.first + handle.len as u64).ok()?;
        self.segments.push(segment);
        self.ends.push(end);
        Some(())
    }
}

/// The error for a slot whose blobs span more than `u32::MAX` bytes.
pub(crate) fn oversized_slot(slot: u32) -> StorageError {
    StorageError::corrupt(format!(
        "st_index directory slot {slot} holds more than 4 GiB of blobs"
    ))
}

/// Where a reopened snapshot keeps one populated slot's directory: its
/// entry count, its run of the posting heap and its chunk of the lazy
/// `st_index_slots` section (layout in [`crate::snapshot`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SlotHead {
    pub entries: u32,
    pub first: u64,
    pub span: u32,
    pub chunk: Chunk,
}

/// The directory chunks of a reopened snapshot.
pub(crate) struct LazyDirectory {
    pub section: LazySection,
    /// `heads[slot]`, `None` for a slot nobody traversed.
    pub heads: Vec<Option<SlotHead>>,
}

impl LazyDirectory {
    /// Reads, checks and decodes the directory of populated `slot`.
    fn decode(&self, slot: usize) -> StorageResult<SlotDirectory> {
        let head = self.heads[slot].expect("an undecoded slot is populated");
        let what = format_args!("slot {slot}");
        let bytes = head.chunk.read(&self.section, what)?;
        crate::snapshot::decode_slot_chunk(slot as u32, &head, &bytes)
    }
}

/// The temporal index: one [`SlotDirectory`] per slot of the day.
///
/// A built index holds every directory. A reopened one decodes a populated
/// slot's directory from its snapshot chunk the first time a reader asks
/// for it ([`TemporalIndex::get`]); after that a lookup costs one atomic
/// load more than a plain array. A chunk that fails its checksum or its
/// decode is a typed error naming the slot, every time it is touched: the
/// slot stays undecoded.
pub(crate) struct TemporalIndex {
    slots: Vec<OnceLock<SlotDirectory>>,
    lazy: Option<LazyDirectory>,
}

impl TemporalIndex {
    /// An index holding every directory.
    pub(crate) fn built(directories: Vec<SlotDirectory>) -> Self {
        Self {
            slots: directories.into_iter().map(OnceLock::from).collect(),
            lazy: None,
        }
    }

    /// An index that decodes each populated slot on first touch. Empty
    /// slots need no decode.
    pub(crate) fn lazy(directory: LazyDirectory) -> Self {
        let slots = directory
            .heads
            .iter()
            .map(|head| match head {
                Some(_) => OnceLock::new(),
                None => OnceLock::from(SlotDirectory::default()),
            })
            .collect();
        Self {
            slots,
            lazy: Some(directory),
        }
    }

    /// Number of slots: [`slots_per_day`].
    pub(crate) fn len(&self) -> usize {
        self.slots.len()
    }

    /// The directory of `slot` (already wrapped into the day), decoded on
    /// first touch.
    #[inline]
    pub(crate) fn get(&self, slot: u32) -> StorageResult<&SlotDirectory> {
        match self.slots[slot as usize].get() {
            Some(directory) => Ok(directory),
            None => self.decode(slot as usize),
        }
    }

    #[cold]
    fn decode(&self, slot: usize) -> StorageResult<&SlotDirectory> {
        let lazy = self
            .lazy
            .as_ref()
            .expect("an undecoded slot has a lazy source");
        let directory = lazy.decode(slot)?;
        Ok(self.slots[slot].get_or_init(|| directory))
    }

    /// Whether any segment was traversed in `slot`; decodes nothing.
    pub(crate) fn is_populated(&self, slot: usize) -> bool {
        self.slots[slot].get().is_none_or(|d| !d.is_empty())
    }

    /// Every directory, decoding the slots not decoded yet.
    pub(crate) fn directories(&self) -> StorageResult<Vec<&SlotDirectory>> {
        (0..self.len() as u32).map(|slot| self.get(slot)).collect()
    }

    /// Reads, checks and decodes every populated slot's chunk of the
    /// snapshot this index was opened from (decoded slots included, from
    /// disk again), keeping the slots not decoded yet. Returns the first
    /// failure.
    fn scrub(&self) -> StorageResult<()> {
        let Some(lazy) = &self.lazy else {
            return Ok(());
        };
        for slot in (0..self.len()).filter(|&slot| lazy.heads[slot].is_some()) {
            let directory = lazy.decode(slot)?;
            self.slots[slot].get_or_init(|| directory);
        }
        Ok(())
    }

    /// Populated slots whose directory is decoded.
    #[cfg(test)]
    pub(crate) fn decoded_slots(&self) -> Vec<u32> {
        (0..self.len())
            .filter(|&slot| self.slots[slot].get().is_some_and(|d| !d.is_empty()))
            .map(|slot| slot as u32)
            .collect()
    }
}

/// Number of Δt slots in one day: the length of the temporal index.
fn slots_per_day(slot_s: u32) -> usize {
    streach_traj::SECONDS_PER_DAY.div_ceil(slot_s) as usize
}

/// One slot's time lists, encoded back to back in segment order.
struct EncodedSlot {
    /// The blobs of the slot, concatenated.
    blobs: Vec<u8>,
    /// The slot's segments, ascending.
    segments: Vec<SegmentId>,
    /// `ends[i]`: end of `segments[i]`'s blob in `blobs`.
    ends: Vec<u32>,
}

/// Encodes one slot's (segment, date, trajectory) observations, given in
/// `parts` in (date, trajectory) order: a stable counting sort groups them
/// by segment, and each group is encoded straight from its run, a repeated
/// observation dropped. The bytes are the ones [`TimeList::encode`] gives
/// each group's list, with no list built.
fn encode_slot<'a, I>(parts: I) -> EncodedSlot
where
    I: Iterator<Item = &'a [(u32, u16, u32)]> + Clone,
{
    let observations = parts.clone().flatten();
    let num_segments = observations.clone().map(|o| o.0 as usize + 1).max();
    // `starts[s]..starts[s + 1]`: where segment `s`'s group goes.
    let mut starts = vec![0u32; num_segments.unwrap_or(0) + 1];
    for &(segment, _, _) in observations.clone() {
        starts[segment as usize + 1] += 1;
    }
    for i in 1..starts.len() {
        starts[i] += starts[i - 1];
    }
    let mut next = starts.clone();
    let mut grouped = vec![(0u16, 0u32); *starts.last().expect("one start") as usize];
    for &(segment, date, id) in observations {
        let at = &mut next[segment as usize];
        grouped[*at as usize] = (date, id);
        *at += 1;
    }
    let mut slot = EncodedSlot {
        blobs: Vec::new(),
        segments: Vec::new(),
        ends: Vec::new(),
    };
    for (segment, group) in starts.windows(2).enumerate() {
        let group = &grouped[group[0] as usize..group[1] as usize];
        if group.is_empty() {
            continue;
        }
        streach_storage::encode_sorted(group, |&pair| pair, &mut slot.blobs);
        let end =
            u32::try_from(slot.blobs.len()).expect("one slot's time lists span at most 4 GiB");
        slot.segments.push(SegmentId(segment as u32));
        slot.ends.push(end);
    }
    slot
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
    /// Bytes of every merged list folded into the delta since the base was
    /// sealed, superseded versions of re-ingested lists included: the
    /// growth checkpoints and compaction gate on. Compaction resets it.
    pub delta_bytes: u64,
}

/// Where a (segment, slot) time list currently lives.
#[derive(Debug, Clone, PartialEq, Eq)]
enum ListRef {
    /// In the sealed base heap.
    Base(BlobHandle),
    /// In the delta tail — a fully merged list that overrides the base.
    Delta(Arc<DeltaList>),
}

/// Number of lock stripes in the delta tail. Striping is by slot, so
/// queries reading one time-of-day never contend with WAL application
/// folding observations into another.
const DELTA_STRIPES: usize = 16;

/// One list of the delta tail as snapshots save it: (slot, segment) and
/// the merged list's encoded bytes.
pub(crate) type DeltaEntry = ((u32, u32), Arc<[u8]>);

/// One list of the delta tail. Both encodings sit behind one `Arc`, so a
/// reader always sees a consistent pair.
#[derive(Debug, PartialEq, Eq)]
struct DeltaList {
    /// The fully merged list (base observations ∪ ingested ones): what
    /// segment-major reads, saves and compaction use.
    merged: Arc<[u8]>,
    /// The observations absent from the pinned sealed base's list: all a
    /// forward read has to add to the base's trajectory view. `None` where
    /// the merged list stands in for it: for a pair the base has no list
    /// of (every observation is added), and, since what the base lacks is
    /// unknown there, for a list decoded from a snapshot's `delta` section
    /// and any list merged onto one. Standing in is exact, as the merged
    /// list is a superset of the base list.
    added: Option<Box<[u8]>>,
}

impl DeltaList {
    /// The bytes a forward read ORs into the base's view: `added`, or the
    /// merged list when `added` is unknown.
    fn beyond_base(&self) -> &[u8] {
        self.added.as_deref().unwrap_or(&self.merged)
    }
}

/// One stripe of the delta tail: (slot, segment) → its [`DeltaList`]. A
/// `BTreeMap`, so snapshots and compaction see the entries in key order
/// after one merge across stripes.
type DeltaStripe = BTreeMap<(u32, u32), Arc<DeltaList>>;

/// The mutable delta tail: a memtable of merged override lists keyed by
/// (slot, segment), each with what it adds to the sealed base.
struct DeltaTail {
    /// Striped by `slot % DELTA_STRIPES`, so the apply lock is sharded:
    /// disjoint ingest batches (and concurrent readers) touching different
    /// slots take different locks.
    stripes: Vec<RwLock<DeltaStripe>>,
    /// Total number of entries across stripes, readable without any lock:
    /// the hot path's fast "no deltas" check.
    len: AtomicUsize,
    /// [`DeltaStats::delta_bytes`].
    folded_bytes: AtomicU64,
}

impl DeltaTail {
    /// A tail holding the merged lists `entries` (with no `added` list:
    /// what the base lacks is unknown), with `folded_bytes` folded in so
    /// far.
    fn new(entries: Vec<DeltaEntry>, folded_bytes: u64) -> Self {
        let tail = Self {
            stripes: (0..DELTA_STRIPES)
                .map(|_| RwLock::new(BTreeMap::new()))
                .collect(),
            len: AtomicUsize::new(0),
            folded_bytes: AtomicU64::new(folded_bytes),
        };
        for ((slot, segment), merged) in entries {
            tail.insert(
                slot,
                segment,
                DeltaList {
                    merged,
                    added: None,
                },
            );
        }
        tail
    }

    fn stripe_of(slot: u32) -> usize {
        slot as usize % DELTA_STRIPES
    }

    fn get(&self, slot: u32, segment: SegmentId) -> Option<Arc<DeltaList>> {
        if self.len.load(Ordering::Relaxed) == 0 {
            return None;
        }
        self.stripes[Self::stripe_of(slot)]
            .read()
            .get(&(slot, segment.0))
            .cloned()
    }

    /// Inserts (or replaces) one list, maintaining the lock-free length.
    fn insert(&self, slot: u32, segment: u32, list: DeltaList) {
        let mut stripe = self.stripes[Self::stripe_of(slot)].write();
        if stripe.insert((slot, segment), Arc::new(list)).is_none() {
            self.len.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// All entries in (slot, segment) order — the deterministic view
    /// snapshots and compaction serialize.
    fn sorted_entries(&self) -> Vec<((u32, u32), Arc<DeltaList>)> {
        let mut out = Vec::with_capacity(self.len.load(Ordering::Relaxed));
        for stripe in &self.stripes {
            out.extend(stripe.read().iter().map(|(k, v)| (*k, Arc::clone(v))));
        }
        out.sort_unstable_by_key(|(k, _)| *k);
        out
    }

    fn stats(&self) -> DeltaStats {
        DeltaStats {
            delta_lists: self.len.load(Ordering::Relaxed) as u64,
            delta_bytes: self.folded_bytes.load(Ordering::Relaxed),
        }
    }
}

/// The trajectory view of one (sealed base, slot): the slot's time lists
/// inverted, so that for every (date, trajectory) pair with a posting in
/// the slot it lists the segments the trajectory passed there, ascending.
/// ~12 B per pair and 4 B per observation.
struct TrajectoryView {
    /// `(date << 32) | trajectory id` of every pair, ascending.
    keys: Vec<u64>,
    /// `ends[i]`: end of key `i`'s run in `segments` (it starts where key
    /// `i - 1`'s ends).
    ends: Vec<u32>,
    /// Each key's segments, ascending.
    segments: Vec<SegmentId>,
}

impl TrajectoryView {
    fn key(date: u16, id: u32) -> u64 {
        (date as u64) << 32 | id as u64
    }

    /// Inverts the slot whose directory is `directory`, reading its blobs
    /// in heap order, a page at a time, and charging their decodes to the
    /// heap's [`IoStats`]. `None` on the first read fault or malformed blob.
    fn build(directory: &SlotDirectory, postings: &PostingStore<StIndexStore>) -> Option<Self> {
        let io = postings.io_stats();
        let mut run = postings.run();
        let mut buf = Vec::new();
        let mut pairs: Vec<(u64, SegmentId)> = Vec::new();
        for (segment, handle) in directory.entries() {
            let bytes = run.read(handle, &mut buf).ok()?;
            let (mut dates, mut ids_seen) = (0u64, 0u64);
            let well_formed = streach_storage::visit_posting(bytes, |date, ids| {
                dates += 1;
                ids_seen += ids.len() as u64;
                pairs.extend(ids.map(|id| (Self::key(date, id), segment)));
            });
            if !well_formed {
                return None;
            }
            io.record_posting_decode(
                streach_storage::fixed_width_size(dates, ids_seen),
                bytes.len() as u64,
            );
        }
        // A list holds each pair once, so (key, segment) is unique.
        pairs.sort_unstable();
        let mut view = Self {
            keys: Vec::new(),
            ends: Vec::new(),
            segments: Vec::with_capacity(pairs.len()),
        };
        for group in pairs.chunk_by(|a, b| a.0 == b.0) {
            view.keys.push(group[0].0);
            view.segments
                .extend(group.iter().map(|&(_, segment)| segment));
            view.ends.push(u32::try_from(view.segments.len()).ok()?);
        }
        Some(view)
    }

    /// The segments trajectory `id` passed in the slot on `date`.
    fn segments_of(&self, date: u16, id: u32) -> &[SegmentId] {
        match self.keys.binary_search(&Self::key(date, id)) {
            Ok(i) => {
                let start = if i == 0 { 0 } else { self.ends[i - 1] };
                &self.segments[start as usize..self.ends[i] as usize]
            }
            Err(_) => &[],
        }
    }

    /// Heap bytes the view holds.
    fn resident_bytes(&self) -> u64 {
        (self.keys.capacity() * 8 + self.ends.capacity() * 4 + self.segments.capacity() * 4) as u64
    }
}

/// The trajectory views of one sealed base, one lazily built cell per slot
/// of the day. A slot's view is built on its second verification touch of
/// the base, so a slot verified once pays nothing extra.
struct SlotViews {
    views: Vec<OnceLock<TrajectoryView>>,
    /// Whether a verification touched the slot while it had no view.
    touched: Vec<AtomicBool>,
}

impl SlotViews {
    fn new(num_slots: usize) -> Self {
        Self {
            views: (0..num_slots).map(|_| OnceLock::new()).collect(),
            touched: (0..num_slots).map(|_| AtomicBool::new(false)).collect(),
        }
    }
}

/// Views built on an index's current sealed base and the memory they hold;
/// see [`StIndex::view_stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ViewStats {
    /// Slots whose trajectory view is built.
    pub views_built: u64,
    /// Heap bytes those views hold.
    pub resident_bytes: u64,
}

/// The sealed base of the index: the temporal directory plus its posting
/// heap. Produced by [`StIndex::build`], a snapshot open or a compaction —
/// and never mutated afterwards; compaction replaces it wholesale. Its
/// per-slot trajectory views are derived from it in memory, never saved.
struct SealedBase {
    temporal: TemporalIndex,
    postings: PostingStore<StIndexStore>,
    views: SlotViews,
}

impl SealedBase {
    fn new(temporal: TemporalIndex, postings: PostingStore<StIndexStore>) -> Self {
        let views = SlotViews::new(temporal.len());
        Self {
            temporal,
            postings,
            views,
        }
    }

    /// The trajectory view of `slot` (wrapped into the day), verified by
    /// the caller. A slot's first touch gets `None`; a later one builds the
    /// view from one clean read of the whole slot. A build that fails is
    /// not kept: it gets `None`, and the caller's own read of the slot
    /// meets the fault.
    fn view(&self, slot: u32) -> Option<&TrajectoryView> {
        let cell = &self.views.views[slot as usize];
        if let Some(view) = cell.get() {
            return Some(view);
        }
        // Relaxed: the flag publishes nothing; the view is published
        // through its `OnceLock`.
        if !self.views.touched[slot as usize].swap(true, Ordering::Relaxed) {
            return None;
        }
        let view = TrajectoryView::build(self.temporal.get(slot).ok()?, &self.postings)?;
        Some(cell.get_or_init(|| view))
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
        Ok(self
            .base
            .temporal
            .get(slot)?
            .get(segment)
            .map(ListRef::Base))
    }

    /// Reads and strictly decodes a located list; a delta list is decoded
    /// with the same decode accounting as a base one.
    fn read_time_list(&self, list_ref: &ListRef) -> StorageResult<TimeList> {
        match list_ref {
            ListRef::Base(handle) => self.base.postings.read_time_list(*handle),
            ListRef::Delta(delta) => {
                let bytes = &delta.merged;
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
            ListRef::Delta(delta) => {
                buf.clear();
                buf.extend_from_slice(&delta.merged);
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
                visit(i, &list.merged)?;
            } else if let Some(entry) = directory.seek(&mut next, segment) {
                visit(i, run.read(directory.handle(entry), buf)?)?;
            }
        }
        Ok(())
    }
}

/// A forward reader of one window slot, taken through
/// [`PostingSource::forward`](crate::query::verifier::PostingSource::forward):
/// one part per index the source reads — a single [`StIndex`] has one, a
/// router one per shard. A part is the slot's trajectory view on an index's
/// pinned sealed base and that pinned delta tail's lists of the slot. Each
/// delta list carries what its base list lacks (or, when that is unknown,
/// the whole merged list, a superset of the base list), so the view's bits
/// OR-ed with those lists' bits are exactly the bits of the lists a
/// segment-major read sees. The parts of a router hold disjoint segments
/// (each shard's base and delta hold only its own), so OR-ing them yields
/// the single index's bits.
pub struct SlotForward<'p> {
    parts: ForwardParts<'p>,
}

enum ForwardParts<'p> {
    One(ForwardPart<'p>),
    Many(Box<[ForwardPart<'p>]>),
}

/// One index's share of a [`SlotForward`].
struct ForwardPart<'p> {
    view: &'p TrajectoryView,
    delta: &'p DeltaTail,
    /// The slot, wrapped into the day.
    slot: u32,
}

impl<'p> SlotForward<'p> {
    /// One forward reader over the parts of `readers`, one per index, or
    /// `None` when there are none.
    pub(crate) fn join(readers: Vec<SlotForward<'p>>) -> Option<Self> {
        let mut parts: Vec<ForwardPart<'p>> = Vec::with_capacity(readers.len());
        for reader in readers {
            match reader.parts {
                ForwardParts::One(part) => parts.push(part),
                ForwardParts::Many(more) => parts.extend(more.into_vec()),
            }
        }
        let parts = match parts.len() {
            0 => return None,
            1 => ForwardParts::One(parts.pop()?),
            _ => ForwardParts::Many(parts.into_boxed_slice()),
        };
        Some(Self { parts })
    }

    fn parts(&self) -> &[ForwardPart<'p>] {
        match &self.parts {
            ForwardParts::One(part) => std::slice::from_ref(part),
            ForwardParts::Many(parts) => parts,
        }
    }

    /// The segments trajectory `id` passed in the slot on `date`, by the
    /// sealed bases, ascending within each part.
    pub fn segments(&self, date: u16, id: u32) -> impl Iterator<Item = SegmentId> + '_ {
        self.parts()
            .iter()
            .flat_map(move |part| part.view.segments_of(date, id).iter().copied())
    }

    /// Calls `visit(i, bytes)` for every `segments[i]` with a delta list in
    /// the slot, with the bytes beyond its base list (see
    /// [`SlotForward`]), in ascending `i` within each part, and stops at the
    /// first error `visit` returns. `segments` must ascend strictly.
    pub fn visit_delta<F>(&self, segments: &[SegmentId], mut visit: F) -> StorageResult<()>
    where
        F: FnMut(usize, &[u8]) -> StorageResult<()>,
    {
        let (Some(first), Some(last)) = (segments.first(), segments.last()) else {
            return Ok(());
        };
        for part in self.parts() {
            if part.delta.len.load(Ordering::Relaxed) == 0 {
                continue;
            }
            let stripe = part.delta.stripes[DeltaTail::stripe_of(part.slot)].read();
            let mut next = 0;
            for (&(_, segment), list) in stripe.range((part.slot, first.0)..=(part.slot, last.0)) {
                match segments[next..].binary_search(&SegmentId(segment)) {
                    Ok(k) => {
                        visit(next + k, list.beyond_base())?;
                        next += k + 1;
                    }
                    Err(k) => next += k,
                }
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

    /// The temporal directory, one [`SlotDirectory`] per slot of the day.
    pub(crate) fn directory(&self) -> &TemporalIndex {
        &self.0.base.temporal
    }

    /// The delta tail as ((slot, segment), encoded list) pairs in key
    /// order, and its [`DeltaStats::delta_bytes`].
    pub(crate) fn delta(&self) -> (Vec<DeltaEntry>, u64) {
        let entries = self.0.delta.sorted_entries();
        (
            entries
                .into_iter()
                .map(|(key, list)| (key, Arc::clone(&list.merged)))
                .collect(),
            self.0.delta.stats().delta_bytes,
        )
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
    /// Observations are grouped without a comparison sort. The workers
    /// scatter the trajectories, taken in (date, id) order, into one bucket
    /// per slot of the day; then each slot is grouped by segment with a
    /// stable counting sort, which leaves every group in (date, id) order,
    /// and encoded, the slots split across the workers. Slot by slot,
    /// segment by segment *is* the clustered on-disk layout, so the encoded
    /// slots go to the heap through one writer, in slot order.
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
        // Trajectories in (date, id) order: visits scattered in this order
        // leave every (slot, segment) group sorted by (date, id), so the
        // grouping needs no comparison sort.
        let slot_s = config.slot_s;
        let num_slots = slots_per_day(slot_s);
        let mut trajectories: Vec<&MatchedTrajectory> = dataset.trajectories().iter().collect();
        trajectories.sort_unstable_by_key(|traj| (traj.date, traj.traj_id));
        // Each worker scatters its range of trajectories into its own slot
        // buckets of (segment, date, id); `slot_of` wraps into the day, so
        // a slot indexes them.
        let parts: Vec<Vec<Vec<(u32, u16, u32)>>> =
            streach_par::par_ranges(&trajectories, |range| {
                let mut buckets = vec![Vec::new(); num_slots];
                for traj in range {
                    for visit in &traj.visits {
                        if owned.is_none_or(|f| f(visit.segment)) {
                            buckets[slot_of(visit.enter_time_s, slot_s) as usize].push((
                                visit.segment.0,
                                traj.date,
                                traj.traj_id,
                            ));
                        }
                    }
                }
                buckets
            });
        let num_observations = parts.iter().flatten().map(|b| b.len() as u64).sum();
        let slot_ids: Vec<usize> = (0..num_slots).collect();
        let slots = streach_par::par_map(&slot_ids, |&slot| {
            encode_slot(parts.iter().map(|buckets| buckets[slot].as_slice()))
        });
        drop(parts);

        let store: StIndexStore = Box::new(InMemoryPageStore::new());
        let mut writer = PostingWriter::new(store);

        let mut temporal = Vec::with_capacity(slots.len());
        let mut num_time_lists = 0u64;
        for slot in slots {
            num_time_lists += slot.segments.len() as u64;
            temporal.push(if slot.segments.is_empty() {
                SlotDirectory::default()
            } else {
                let run = writer
                    .push(&slot.blobs)
                    .expect("in-memory posting store cannot fail");
                SlotDirectory::new(run.offset, slot.segments, slot.ends)
            });
        }
        let postings = writer
            .finish(config.pool_pages, config.read_retries)
            .expect("in-memory posting store cannot fail");

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
                base: SealedBase::new(TemporalIndex::built(temporal), postings),
                delta: DeltaTail::new(Vec::new(), 0),
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

    /// Reassembles an ST-Index from snapshot parts: a reopened posting
    /// store plus its temporal index (one directory per slot of the day,
    /// decoded on first touch), and the delta tail ((slot, segment) →
    /// encoded merged list, empty for a snapshot that never ingested, and
    /// its [`DeltaStats::delta_bytes`]). Used by [`crate::snapshot`], whose
    /// decoder checks the directory heads against the day and the heap and
    /// every delta list against the day, the network and the decoder.
    pub(crate) fn from_parts(
        network: Arc<RoadNetwork>,
        slot_s: u32,
        num_days: u16,
        stats: StIndexStats,
        temporal: TemporalIndex,
        postings: PostingStore<StIndexStore>,
        (delta, delta_bytes): (Vec<DeltaEntry>, u64),
    ) -> Self {
        debug_assert_eq!(temporal.len(), slots_per_day(slot_s));
        Self {
            network,
            slot_s,
            num_days: AtomicU16::new(num_days),
            state: RwLock::new(Arc::new(IndexState {
                base: SealedBase::new(temporal, postings),
                delta: DeltaTail::new(delta, delta_bytes),
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
        self.current().delta.stats()
    }

    /// The trajectory views built on the current sealed base and the heap
    /// bytes they hold. A compaction publishes a base with none.
    pub fn view_stats(&self) -> ViewStats {
        let state = self.current();
        let built = state.base.views.views.iter().filter_map(OnceLock::get);
        ViewStats {
            views_built: built.clone().count() as u64,
            resident_bytes: built.map(TrajectoryView::resident_bytes).sum(),
        }
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
        let mut slots: std::collections::BTreeSet<u32> = (0..temporal.len())
            .filter(|&slot| temporal.is_populated(slot))
            .map(|slot| slot as u32)
            .collect();
        if state.delta.len.load(Ordering::Relaxed) > 0 {
            for stripe in &state.delta.stripes {
                slots.extend(stripe.read().keys().map(|(slot, _)| *slot));
            }
        }
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
    /// entries, each with the observations its base list lacks (see
    /// [`DeltaList`]). Since
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
        // produces the merged encoding independently, with what the merged
        // list adds to the base's: a base list's `added` is the new
        // observations it lacks, a delta list's is its old `added` plus
        // those the old merged list lacks, and a pair with no list has none
        // (the merged list is all added).
        let merged: Vec<(DeltaList, bool)> = streach_par::try_par_map_with(
            &groups,
            TimeList::new,
            |list: &mut TimeList, &(start, end)| -> StorageResult<(DeltaList, bool)> {
                let (slot, segment) = (obs[start].0, obs[start].1);
                let current = state.lookup(SegmentId(segment), self.wrap_slot(slot))?;
                let mut added = match &current {
                    Some(list_ref) => {
                        *list = state.read_time_list(list_ref)?;
                        match list_ref {
                            ListRef::Base(_) => Some(TimeList::new()),
                            ListRef::Delta(prior) => match prior.added.as_deref() {
                                Some(bytes) => Some(TimeList::decode(bytes).ok_or_else(|| {
                                    StorageError::corrupt("delta added list failed to decode")
                                })?),
                                None => None,
                            },
                        }
                    }
                    None => {
                        list.entries.clear();
                        None
                    }
                };
                let group = &obs[start..end];
                if let Some(added) = &mut added {
                    for &(_, _, date, traj_id) in group {
                        let held = list
                            .ids_on(date)
                            .is_some_and(|ids| ids.binary_search(&traj_id).is_ok());
                        if !held {
                            added.add(date, traj_id);
                        }
                    }
                }
                for &(_, _, date, traj_id) in group {
                    list.add(date, traj_id);
                }
                let merged = DeltaList {
                    merged: list.encode().into(),
                    added: added.map(|added| added.encode().into()),
                };
                Ok((merged, current.is_none()))
            },
        )?;

        // Every group merged: publish the lists, then the stats.
        let new_lists = merged.iter().filter(|(_, is_new)| *is_new).count() as u64;
        let mut touched = Vec::with_capacity(groups.len());
        let mut folded = 0u64;
        for (&(start, _), (list, _)) in groups.iter().zip(merged) {
            let (slot, segment) = (obs[start].0, obs[start].1);
            folded += list.merged.len() as u64;
            state.delta.insert(slot, segment, list);
            touched.push((self.wrap_slot(slot), segment));
        }
        state
            .delta
            .folded_bytes
            .fetch_add(folded, Ordering::Relaxed);
        let mut stats = self.stats.lock();
        stats.num_time_lists += new_lists;
        // A re-applied batch (WAL replay) counts its points again: the
        // documented at-least-once semantics of `num_observations`.
        stats.num_observations += obs.len() as u64;
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
    /// The base blobs are read in parallel via `streach_par` worker threads
    /// (the dominant cost); one [`PostingWriter`] writes them into the new
    /// heap in order. On `Err` (a read fault while copying) no heap is
    /// sealed and the index is left untouched: the old base keeps serving and the
    /// compaction is retryable.
    ///
    /// The whole fold runs against a pinned state **off to the side** —
    /// concurrent queries keep reading the old (base, delta) pair the whole
    /// time — and the result is published with one pointer swap. Callers
    /// serialize through the engine's ingest lock, so the delta cannot grow
    /// between the pin and the swap.
    pub(crate) fn compact(&self) -> StorageResult<DeltaStats> {
        let state = self.current();
        let folded = state.delta.stats();
        if folded.delta_lists == 0 {
            return Ok(folded);
        }

        // Merged directory: base entries overridden by delta entries, in
        // (slot, segment) order — the clustered layout `build` produces.
        let mut merged: BTreeMap<(u32, u32), ListRef> = BTreeMap::new();
        for (slot, dir) in state.base.temporal.directories()?.into_iter().enumerate() {
            for (segment, handle) in dir.entries() {
                merged.insert((slot as u32, segment.0), ListRef::Base(handle));
            }
        }
        for (key, list) in state.delta.sorted_entries() {
            merged.insert(key, ListRef::Delta(list));
        }

        // Copy every blob out (parallel reads of the base heap).
        let entries: Vec<((u32, u32), ListRef)> = merged.into_iter().collect();
        let blobs: Vec<Vec<u8>> = streach_par::try_par_map_with(
            &entries,
            Vec::new,
            |buf: &mut Vec<u8>, (_, list_ref)| -> StorageResult<Vec<u8>> {
                state.read_into(list_ref, buf)?;
                Ok(buf.clone())
            },
        )?;

        // Lay the new sealed base out in order.
        let io = state.base.postings.io_stats();
        let pool_pages = state.base.postings.pool_capacity();
        let read_retries = state.base.postings.read_retries();
        let store: StIndexStore = Box::new(InMemoryPageStore::with_stats(Arc::clone(&io)));
        let mut writer = PostingWriter::new(store);
        let mut temporal = vec![SlotDirectory::default(); slots_per_day(self.slot_s)];
        for (((slot, segment), _), blob) in entries.iter().zip(&blobs) {
            let handle = writer.push(blob)?;
            temporal[*slot as usize]
                .push(SegmentId(*segment), handle)
                .ok_or_else(|| oversized_slot(*slot))?;
        }
        let new_postings = writer.finish(pool_pages, read_retries)?;
        let num_time_lists = entries.len() as u64;
        let posting_bytes = new_postings.size_bytes();
        let posting_pages = new_postings.num_pages();

        // Publish: one pointer swap. Readers in flight finish on the old
        // state (kept alive by their pinned `Arc`s); new readers see the
        // fresh sealed base and an empty delta tail.
        let new_state = Arc::new(IndexState {
            base: SealedBase::new(TemporalIndex::built(temporal), new_postings),
            delta: DeltaTail::new(Vec::new(), 0),
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

    fn forward<'p>(&self, pin: &'p PinnedState, slot: u32) -> Option<SlotForward<'p>> {
        let slot = self.wrap_slot(slot);
        Some(SlotForward {
            parts: ForwardParts::One(ForwardPart {
                view: pin.0.base.view(slot)?,
                delta: &pin.0.delta,
                slot,
            }),
        })
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
        let index = StIndex::build(network.clone(), &dataset, &IndexConfig::default());
        (network, dataset, index)
    }

    /// Every page of a posting heap, in order.
    fn heap_pages<S: PageStore>(postings: &PostingStore<S>) -> Vec<Vec<u8>> {
        (0..postings.num_pages())
            .map(|id| postings.store().read_page(id).unwrap().bytes().to_vec())
            .collect()
    }

    /// Seeded slots with repeated observations, in (date, id) order and cut
    /// into parts anywhere: each group's bytes are its `TimeList`'s.
    #[test]
    fn encode_slot_groups_match_time_list_encode() {
        for case in 0..200u64 {
            let draw = |i: u64| streach_storage::fault::mix(case, i);
            let mut obs: Vec<(u32, u16, u32)> = Vec::new();
            for i in 0..draw(0) % 60 {
                let r = draw(i + 1);
                let o = ((r % 5) as u32, (r >> 8) as u16 % 4, (r >> 16) as u32 % 9);
                obs.push(o);
                if (r >> 40) & 1 == 1 {
                    obs.push(o); // a repeated (segment, date, id) observation
                }
            }
            obs.sort_by_key(|&(_, date, id)| (date, id));
            let cut = (draw(99) as usize) % (obs.len() + 1);
            let mut lists: BTreeMap<u32, TimeList> = BTreeMap::new();
            for &(segment, date, id) in &obs {
                lists.entry(segment).or_default().add(date, id);
            }
            let slot = encode_slot([&obs[..cut], &obs[cut..]].into_iter());
            let segments: Vec<SegmentId> = lists.keys().map(|&s| SegmentId(s)).collect();
            assert_eq!(slot.segments, segments);
            let mut start = 0;
            for (list, &end) in lists.values().zip(&slot.ends) {
                assert_eq!(slot.blobs[start..end as usize], list.encode());
                start = end as usize;
            }
            assert_eq!(start, slot.blobs.len());
        }
    }

    /// The build lays out the heap and the directory of the straightforward
    /// build — every observation sorted by (slot, segment, date, id), one
    /// `TimeList` per group, pushed in order through one writer — on one worker
    /// or two.
    #[test]
    fn build_layout_matches_one_global_sort_on_any_worker_count() {
        let city = SyntheticCity::generate(GeneratorConfig::small());
        let network = Arc::new(city.network);
        let dataset = TrajectoryDataset::simulate(&network, FleetConfig::tiny());
        let config = IndexConfig::default();

        let mut obs: Vec<(u32, u32, u16, u32)> = Vec::new();
        for traj in dataset.trajectories() {
            for visit in &traj.visits {
                let slot = slot_of(visit.enter_time_s, config.slot_s);
                obs.push((slot, visit.segment.0, traj.date, traj.traj_id));
            }
        }
        obs.sort_unstable();
        let mut oracle = PostingWriter::new(InMemoryPageStore::new());
        let mut directory = vec![SlotDirectory::default(); slots_per_day(config.slot_s)];
        for group in obs.chunk_by(|a, b| (a.0, a.1) == (b.0, b.1)) {
            let mut list = TimeList::new();
            for &(_, _, date, id) in group {
                list.add(date, id);
            }
            let handle = oracle.push(&list.encode()).unwrap();
            directory[group[0].0 as usize]
                .push(SegmentId(group[0].1), handle)
                .unwrap();
        }
        let oracle = oracle.finish(4, 0).unwrap();
        let oracle_pages = heap_pages(&oracle);

        for workers in [1, 2] {
            let index = streach_par::with_worker_override(workers, || {
                StIndex::build(network.clone(), &dataset, &config)
            });
            let pin = index.pin();
            let built: Vec<SlotDirectory> = pin
                .directory()
                .directories()
                .unwrap()
                .into_iter()
                .cloned()
                .collect();
            assert_eq!(built, directory, "workers = {workers}");
            assert_eq!(
                heap_pages(pin.base_postings()),
                oracle_pages,
                "workers = {workers}"
            );
            assert_eq!(index.stats().posting_bytes, oracle.size_bytes());
            assert_eq!(index.stats().num_observations, obs.len() as u64);
        }
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
