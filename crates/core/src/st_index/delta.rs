//! The delta tail: a memtable of merged override lists keyed by (slot,
//! segment), each with what it adds to the sealed base, the per-slot delta
//! views a forward walk reads that through, and its snapshot section.
//!
//! # Delta views
//!
//! A slot's **delta view** is a [`TrajectoryView`] of what the slot's lists
//! add beyond the pinned base ([`DeltaList::beyond_base`]): (day,
//! trajectory) → the ascending segments it gained. It is built on the
//! second forward walk of the slot since the last fold into it, with no
//! lock held, and kept in the slot's stripe, beside its lists. Every fold
//! into the slot drops it and resets the slot's walks, under the stripe
//! write lock the fold takes anyway, so a slot that is folded into between
//! walks keeps the segment-major read. A walk reads the view and the lists
//! under one read lock, so it never sees a view older than the lists.
//! Views are never saved.
//!
//! # Layout (`delta`)
//!
//! ```text
//! delta (eager):
//!     [folded bytes u64][entry count u32]
//!     per entry, in strictly ascending (slot, segment) order:
//!         [slot u32][segment u32][len u32][encoded time list: len bytes]
//! ```
//!
//! The folded bytes are [`DeltaStats::delta_bytes`]: every merged list
//! folded in since the base was sealed, so at least the live lists' bytes.
//! The open checks each key against the day and the network and each list
//! against the strict posting decoder. A list reopened from the section
//! has no `added` list (see [`DeltaList`]).

use std::collections::BTreeMap;
use std::ops::RangeInclusive;
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use bytes::{Buf, BufMut};
use parking_lot::RwLock;
use streach_roadnet::SegmentId;
use streach_storage::{visit_posting, StorageError, StorageResult, TimeList};

use super::view::TrajectoryView;
use super::ListRef;

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

/// Number of lock stripes in the delta tail. Striping is by slot, so
/// queries reading one time-of-day never contend with WAL application
/// folding observations into another.
const DELTA_STRIPES: usize = 16;

/// One list of the delta tail as snapshots save it: (slot, segment) and
/// the merged list's encoded bytes.
pub(super) type DeltaEntry = ((u32, u32), Arc<[u8]>);

/// One list of the delta tail. Both encodings sit behind one `Arc`, so a
/// reader always sees a consistent pair.
#[derive(Debug, PartialEq, Eq)]
pub(super) struct DeltaList {
    /// The fully merged list (base observations ∪ ingested ones): what
    /// segment-major reads, saves and compaction use.
    pub merged: Arc<[u8]>,
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
    /// The bytes a segment-major overlay ORs into the base's view:
    /// `added`, or the merged list when `added` is unknown.
    pub(super) fn beyond_base(&self) -> &[u8] {
        self.added.as_deref().unwrap_or(&self.merged)
    }

    /// The observations the base's list lacks, when known.
    pub(super) fn added(&self) -> Option<&[u8]> {
        self.added.as_deref()
    }

    /// The merge step of ingest: folds `observations` ((date, trajectory)
    /// pairs) into `list`, which holds the pair's `current` list (empty
    /// when it has none), and encodes the result with what it adds to the
    /// base's list: a base list adds nothing yet, a delta list adds its own
    /// `added` (unknown stays unknown), and the observations `list` lacks
    /// join them. A pair with no list is all added.
    pub(super) fn merge(
        list: &mut TimeList,
        current: Option<&ListRef>,
        observations: impl Iterator<Item = (u16, u32)> + Clone,
    ) -> StorageResult<Self> {
        let mut added =
            match current {
                Some(ListRef::Base(_)) => Some(TimeList::new()),
                Some(ListRef::Delta(prior)) => match prior.added.as_deref() {
                    Some(bytes) => Some(TimeList::decode(bytes).ok_or_else(|| {
                        StorageError::corrupt("delta added list failed to decode")
                    })?),
                    None => None,
                },
                None => None,
            };
        if let Some(added) = &mut added {
            for (date, id) in observations.clone() {
                let held = list
                    .ids_on(date)
                    .is_some_and(|ids| ids.binary_search(&id).is_ok());
                if !held {
                    added.add(date, id);
                }
            }
        }
        for (date, id) in observations {
            list.add(date, id);
        }
        Ok(Self {
            merged: list.encode().into(),
            added: added.map(|added| added.encode().into()),
        })
    }
}

/// One stripe of the delta tail: (slot, segment) → its [`DeltaList`], in
/// a `BTreeMap`, so snapshots and compaction see the entries in key order
/// after one merge across stripes, and the delta view of each slot of the
/// stripe.
struct DeltaStripe {
    lists: BTreeMap<(u32, u32), Arc<DeltaList>>,
    /// The delta view of slot `stripe + i * DELTA_STRIPES` at `i`, once
    /// built. A fold into the slot empties its cell.
    views: Box<[OnceLock<TrajectoryView>]>,
}

/// The mutable delta tail: a memtable of merged override lists keyed by
/// (slot, segment), each with what it adds to the sealed base.
pub(super) struct DeltaTail {
    /// Striped by `slot % DELTA_STRIPES`, so the apply lock is sharded:
    /// disjoint ingest batches (and concurrent readers) touching different
    /// slots take different locks.
    stripes: Vec<RwLock<DeltaStripe>>,
    /// Per slot of the day, the forward walks of the slot since the last
    /// fold into it: [`FRESH`], [`WALKED`] or [`CLAIMED`]. The second walk
    /// claims the build of the slot's delta view, and a fold resets the
    /// state with the view, so a slot folded into between walks keeps
    /// reading its lists until two walks meet no fold between them. Set by
    /// every walk, whether or not the slot holds a list.
    walks: Box<[AtomicU8]>,
    /// Total number of entries across stripes, readable without any lock:
    /// the hot path's fast "no deltas" check.
    len: AtomicUsize,
    /// [`DeltaStats::delta_bytes`].
    folded_bytes: AtomicU64,
}

/// No forward walk of the slot since the last fold into it.
const FRESH: u8 = 0;
/// One forward walk of the slot since the last fold into it.
const WALKED: u8 = 1;
/// A later walk claimed the build of the slot's delta view.
const CLAIMED: u8 = 2;

/// A slot's delta lists as a view build reads them, outside the stripe
/// lock: (segment, list), ascending.
pub(super) type ListsOf = Vec<(SegmentId, Arc<DeltaList>)>;

/// What a forward walk reads of one slot's delta, under its stripe's read
/// lock ([`DeltaTail::read_slot`]).
pub(super) enum SlotDelta<'a> {
    /// The slot holds no list.
    Empty,
    /// The slot's delta view.
    View(&'a TrajectoryView),
    /// The slot's lists, with no view built yet.
    Lists(SlotLists<'a>),
}

/// The delta lists of one slot, borrowed under its stripe's read lock.
#[derive(Clone, Copy)]
pub(super) struct SlotLists<'a> {
    lists: &'a BTreeMap<(u32, u32), Arc<DeltaList>>,
    slot: u32,
}

impl<'a> SlotLists<'a> {
    /// The slot's lists whose segment lies in `segments`, in ascending
    /// segment order.
    pub(super) fn range(
        self,
        segments: RangeInclusive<u32>,
    ) -> impl Iterator<Item = (SegmentId, &'a DeltaList)> {
        let (first, last) = segments.into_inner();
        self.lists
            .range((self.slot, first)..=(self.slot, last))
            .map(|(&(_, segment), list)| (SegmentId(segment), &**list))
    }
}

impl DeltaTail {
    /// A tail over a day of `num_slots` slots holding the merged lists
    /// `entries` (with no `added` list: what the base lacks is unknown),
    /// with `folded_bytes` folded in so far.
    pub(super) fn new((entries, folded_bytes): DeltaSection, num_slots: usize) -> Self {
        let per_stripe = num_slots.div_ceil(DELTA_STRIPES);
        let tail = Self {
            stripes: (0..DELTA_STRIPES)
                .map(|_| {
                    RwLock::new(DeltaStripe {
                        lists: BTreeMap::new(),
                        views: (0..per_stripe).map(|_| OnceLock::new()).collect(),
                    })
                })
                .collect(),
            walks: (0..num_slots).map(|_| AtomicU8::new(FRESH)).collect(),
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

    /// An empty tail over a day of `num_slots` slots.
    pub(super) fn empty(num_slots: usize) -> Self {
        Self::new((Vec::new(), 0), num_slots)
    }

    fn stripe_of(slot: u32) -> usize {
        slot as usize % DELTA_STRIPES
    }

    /// `true` when no list was ever folded in: one relaxed atomic load.
    pub(super) fn is_empty(&self) -> bool {
        self.len.load(Ordering::Relaxed) == 0
    }

    pub(super) fn get(&self, slot: u32, segment: SegmentId) -> Option<Arc<DeltaList>> {
        if self.is_empty() {
            return None;
        }
        self.stripes[Self::stripe_of(slot)]
            .read()
            .lists
            .get(&(slot, segment.0))
            .cloned()
    }

    /// Inserts (or replaces) one list, dropping its slot's delta view and
    /// resetting its walks, and maintains the lock-free length.
    fn insert(&self, slot: u32, segment: u32, list: DeltaList) {
        let mut stripe = self.stripes[Self::stripe_of(slot)].write();
        if let Some(view) = stripe.views.get_mut(slot as usize / DELTA_STRIPES) {
            view.take();
        }
        if let Some(walks) = self.walks.get(slot as usize) {
            walks.store(FRESH, Ordering::Relaxed);
        }
        if stripe
            .lists
            .insert((slot, segment), Arc::new(list))
            .is_none()
        {
            self.len.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Publishes merged lists, each replacing its (slot, segment) pair's,
    /// and counts their bytes as folded in.
    pub(super) fn fold(&self, lists: impl IntoIterator<Item = ((u32, u32), DeltaList)>) {
        let mut folded = 0u64;
        for ((slot, segment), list) in lists {
            folded += list.merged.len() as u64;
            self.insert(slot, segment, list);
        }
        self.folded_bytes.fetch_add(folded, Ordering::Relaxed);
    }

    /// Calls `visit(segment, list)` for every list of `slot` whose segment
    /// lies in `segments`, in ascending segment order, under the slot's
    /// stripe lock, and stops at the first error `visit` returns.
    pub(super) fn visit_slot<F>(
        &self,
        slot: u32,
        segments: RangeInclusive<u32>,
        mut visit: F,
    ) -> StorageResult<()>
    where
        F: FnMut(SegmentId, &DeltaList) -> StorageResult<()>,
    {
        if self.is_empty() {
            return Ok(());
        }
        let stripe = self.stripes[Self::stripe_of(slot)].read();
        let lists = SlotLists {
            lists: &stripe.lists,
            slot,
        };
        for (segment, list) in lists.range(segments) {
            visit(segment, list)?;
        }
        Ok(())
    }

    /// Calls `read` with what a forward walk reads of `slot`'s delta, all
    /// under one read lock of its stripe: its delta view, or its lists when
    /// it has none. The second walk since the last fold into the slot
    /// builds the view with `build`, from the slot's lists copied out under
    /// the lock, with no lock held, so a build's base reads never hold up a
    /// fold. The view is kept only if the slot still holds exactly those
    /// lists. A failed build keeps no view, and the next walk builds again.
    pub(super) fn read_slot<R>(
        &self,
        slot: u32,
        build: impl FnOnce(&ListsOf) -> Option<TrajectoryView>,
        read: impl FnOnce(SlotDelta<'_>) -> R,
    ) -> R {
        // Relaxed: the state publishes nothing; a view is published through
        // its `OnceLock`, under the stripe lock.
        let walks = &self.walks[slot as usize];
        let step = |from, to| {
            walks
                .compare_exchange(from, to, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
        };
        let claimed = match walks.load(Ordering::Relaxed) {
            FRESH => {
                step(FRESH, WALKED);
                false
            }
            WALKED => step(WALKED, CLAIMED),
            _ => false,
        };
        let built = if claimed && !self.is_empty() {
            let from: ListsOf = self.stripes[Self::stripe_of(slot)]
                .read()
                .lists
                .range((slot, 0)..=(slot, u32::MAX))
                .map(|(&(_, segment), list)| (SegmentId(segment), Arc::clone(list)))
                .collect();
            match (!from.is_empty()).then(|| build(&from)) {
                Some(Some(view)) => Some((view, from)),
                Some(None) => {
                    step(CLAIMED, WALKED);
                    None
                }
                None => None,
            }
        } else {
            None
        };
        if self.is_empty() {
            return read(SlotDelta::Empty);
        }
        let stripe = self.stripes[Self::stripe_of(slot)].read();
        let lists = SlotLists {
            lists: &stripe.lists,
            slot,
        };
        if lists.range(0..=u32::MAX).next().is_none() {
            return read(SlotDelta::Empty);
        }
        let cell = &stripe.views[slot as usize / DELTA_STRIPES];
        if let Some((view, from)) = built {
            // A fold since the copy replaced at least one list.
            let current = lists.range(0..=u32::MAX).map(|(_, list)| list as *const _);
            if current.eq(from.iter().map(|(_, list)| Arc::as_ptr(list))) {
                cell.get_or_init(|| view);
            }
        }
        read(match cell.get() {
            Some(view) => SlotDelta::View(view),
            None => SlotDelta::Lists(lists),
        })
    }

    /// The delta views built and the heap bytes they hold.
    pub(super) fn view_stats(&self) -> (u64, u64) {
        let (mut built, mut bytes) = (0, 0);
        for stripe in &self.stripes {
            for view in stripe.read().views.iter().filter_map(OnceLock::get) {
                built += 1;
                bytes += view.resident_bytes();
            }
        }
        (built, bytes)
    }

    /// Every (slot, date, trajectory, segment) the built delta views hold,
    /// ascending.
    #[cfg(test)]
    pub(super) fn view_triples(&self) -> Vec<(u32, u16, u32, SegmentId)> {
        let mut triples = Vec::new();
        for (stripe_no, stripe) in self.stripes.iter().enumerate() {
            let stripe = stripe.read();
            for (i, view) in stripe.views.iter().enumerate() {
                let slot = (stripe_no + i * DELTA_STRIPES) as u32;
                if let Some(view) = view.get() {
                    triples.extend(view.triples().map(|(d, id, s)| (slot, d, id, s)));
                }
            }
        }
        triples.sort_unstable();
        triples
    }

    /// The slots holding at least one list, unordered and repeated.
    pub(super) fn slots(&self) -> Vec<u32> {
        let mut slots = Vec::new();
        for stripe in &self.stripes {
            slots.extend(stripe.read().lists.keys().map(|&(slot, _)| slot));
        }
        slots
    }

    /// Encodes the `delta` section (layout in the module docs): every
    /// merged list in (slot, segment) order.
    pub(super) fn encode(&self) -> Vec<u8> {
        let mut entries: Vec<((u32, u32), Arc<DeltaList>)> = Vec::new();
        for stripe in &self.stripes {
            entries.extend(
                stripe
                    .read()
                    .lists
                    .iter()
                    .map(|(k, list)| (*k, Arc::clone(list))),
            );
        }
        entries.sort_unstable_by_key(|(key, _)| *key);
        let mut buf = Vec::new();
        buf.put_u64_le(self.folded_bytes.load(Ordering::Relaxed));
        buf.put_u32_le(entries.len() as u32);
        for ((slot, segment), list) in &entries {
            buf.put_u32_le(*slot);
            buf.put_u32_le(*segment);
            buf.put_u32_le(u32::try_from(list.merged.len()).expect("a list spans at most 4 GiB"));
            buf.put_slice(&list.merged);
        }
        buf
    }

    pub(super) fn stats(&self) -> DeltaStats {
        DeltaStats {
            delta_lists: self.len.load(Ordering::Relaxed) as u64,
            delta_bytes: self.folded_bytes.load(Ordering::Relaxed),
        }
    }
}

/// The delta tail as the snapshot holds it: ((slot, segment), encoded
/// list) entries in key order, and the bytes folded in.
pub(super) type DeltaSection = (Vec<DeltaEntry>, u64);

/// Byte length of the `delta` section's fixed head, and of each entry's.
const DELTA_HEAD_LEN: usize = 12;

/// Decodes and validates the `delta` section: keys ascend strictly inside
/// the day and the network, every list passes the strict posting decoder,
/// the entries fill the section exactly and the live lists hold no more
/// bytes than were folded in. Any deviation is [`StorageError::Corrupt`]
/// naming the section.
pub(super) fn decode_delta(
    mut buf: &[u8],
    slots_per_day: u32,
    num_segments: usize,
) -> StorageResult<DeltaSection> {
    let bad = |what: String| StorageError::corrupt(format!("delta section: {what}"));
    if buf.remaining() < DELTA_HEAD_LEN {
        return Err(bad("truncated head".into()));
    }
    let folded_bytes = buf.get_u64_le();
    let count = buf.get_u32_le() as usize;
    // The count is only as trustworthy as the section CRC: never reserve
    // more entries than the section could hold.
    let mut entries: Vec<DeltaEntry> =
        Vec::with_capacity(count.min(buf.remaining() / DELTA_HEAD_LEN));
    let mut live = 0u64;
    for _ in 0..count {
        if buf.remaining() < DELTA_HEAD_LEN {
            return Err(bad("truncated entry".into()));
        }
        let (slot, segment) = (buf.get_u32_le(), buf.get_u32_le());
        let len = buf.get_u32_le() as usize;
        let at = format!("slot {slot} segment {segment}");
        if entries
            .last()
            .is_some_and(|(prev, _)| *prev >= (slot, segment))
        {
            return Err(bad(format!("{at} is out of order or repeated")));
        }
        if slot >= slots_per_day {
            return Err(bad(format!(
                "{at} is outside the day ({slots_per_day} slots)"
            )));
        }
        if segment as usize >= num_segments {
            return Err(bad(format!(
                "{at} is outside the network ({num_segments} segments)"
            )));
        }
        if len > buf.remaining() {
            return Err(bad(format!("{at} runs past the section")));
        }
        let (bytes, rest) = buf.split_at(len);
        if !visit_posting(bytes, |_, _| {}) {
            return Err(bad(format!("{at} holds a malformed time list")));
        }
        live += len as u64;
        entries.push(((slot, segment), bytes.into()));
        buf = rest;
    }
    if !buf.is_empty() {
        return Err(bad("trailing bytes".into()));
    }
    if live > folded_bytes {
        return Err(bad(format!(
            "live lists hold {live} bytes, more than the {folded_bytes} folded in"
        )));
    }
    Ok((entries, folded_bytes))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn expect_corrupt<T>(what: &str, result: StorageResult<T>, needle: &str) {
        match result {
            Err(StorageError::Corrupt { context }) => {
                assert!(context.contains(needle), "{what}: {context}")
            }
            Err(e) => panic!("{what}: expected Corrupt, got {e}"),
            Ok(_) => panic!("{what}: a malformed section decoded"),
        }
    }

    /// Two delta lists: segment 3 in slot 5 (dates 0 and 2) and segment 9
    /// in slot 200 (date 1), 14 bytes between them, 20 bytes folded in.
    fn sample_delta() -> DeltaSection {
        let list = |entries: &[(u16, &[u32])]| -> Arc<[u8]> {
            let mut list = TimeList::new();
            for &(date, ids) in entries {
                ids.iter().for_each(|&id| list.add(date, id));
            }
            list.encode().into()
        };
        (
            vec![
                ((5, 3), list(&[(0, &[4]), (2, &[1, 7])])),
                ((200, 9), list(&[(1, &[2])])),
            ],
            20,
        )
    }

    /// [`sample_delta`]'s section, written out field by field.
    fn sample_delta_bytes() -> Vec<u8> {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&20u64.to_le_bytes()); // folded bytes
        bytes.extend_from_slice(&2u32.to_le_bytes()); // entry count
        for (slot, segment, list) in [
            // tag, 2 dates: date 0, 1 id: 4; gap 2 → date 2, 2 ids: 1, +6
            (
                5u32,
                3u32,
                &[0x01, 0x02, 0x00, 0x01, 0x04, 0x02, 0x02, 0x01, 0x06][..],
            ),
            // tag, 1 date: date 1, 1 id: 2
            (200, 9, &[0x01, 0x01, 0x01, 0x01, 0x02][..]),
        ] {
            bytes.extend_from_slice(&slot.to_le_bytes());
            bytes.extend_from_slice(&segment.to_le_bytes());
            bytes.extend_from_slice(&(list.len() as u32).to_le_bytes());
            bytes.extend_from_slice(list);
        }
        bytes
    }

    /// A slot's delta view is built on its second walk since the last
    /// fold, with no stripe lock held, and kept only if no fold replaced
    /// the slot's lists while it was built; a fold drops a kept view.
    #[test]
    fn a_fold_during_a_view_build_discards_the_view() {
        let tail = DeltaTail::new(sample_delta(), 288);
        let view = || TrajectoryView::from_pairs(vec![(4, SegmentId(3))]);
        let fold = || {
            let merged = tail.get(5, SegmentId(3)).unwrap().merged.clone();
            tail.fold([(
                (5, 3),
                DeltaList {
                    merged,
                    added: None,
                },
            )]);
        };
        let reads = |delta: SlotDelta<'_>| match delta {
            SlotDelta::Empty => "empty",
            SlotDelta::View(_) => "view",
            SlotDelta::Lists(_) => "lists",
        };
        let unbuilt = |_: &ListsOf| -> Option<TrajectoryView> { panic!("built") };
        assert_eq!(tail.read_slot(5, unbuilt, reads), "lists");
        // The fold takes the stripe's write lock: a build that held the
        // lock would never return.
        let during = |lists: &ListsOf| {
            assert_eq!(lists.len(), 1);
            fold();
            view()
        };
        assert_eq!(tail.read_slot(5, during, reads), "lists");
        assert_eq!(tail.view_stats(), (0, 0));
        assert_eq!(tail.read_slot(5, unbuilt, reads), "lists");
        assert_eq!(tail.read_slot(5, |_| view(), reads), "view");
        assert_eq!(tail.read_slot(5, unbuilt, reads), "view");
        assert_eq!(tail.view_stats().0, 1);
        fold();
        assert_eq!(tail.view_stats(), (0, 0));
        assert_eq!(tail.read_slot(7, unbuilt, reads), "empty");
    }

    #[test]
    fn delta_golden_bytes() {
        let bytes = sample_delta_bytes();
        assert_eq!(DeltaTail::new(sample_delta(), 288).encode(), bytes);
        assert_eq!(decode_delta(&bytes, 288, 10).unwrap(), sample_delta());
        // An empty tail is its head alone.
        assert_eq!(DeltaTail::empty(288).encode(), [0; DELTA_HEAD_LEN]);
        assert_eq!(decode_delta(&[0; 12], 288, 10).unwrap(), (Vec::new(), 0));
    }

    #[test]
    fn delta_decoder_rejects_malformed_sections() {
        let clean = sample_delta_bytes();
        // Offsets of the second entry's fields, and of the first list.
        let second = DELTA_HEAD_LEN + DELTA_HEAD_LEN + 9;
        let set = |at: usize, bytes: &[u8]| {
            let mut b = clean.clone();
            b[at..at + bytes.len()].copy_from_slice(bytes);
            b
        };
        let cases: Vec<(&str, Vec<u8>, u32, usize)> = vec![
            (
                "keys out of order",
                set(second, &4u32.to_le_bytes()),
                288,
                10,
            ),
            (
                "duplicate key",
                set(second, &[5, 0, 0, 0, 3, 0, 0, 0]),
                288,
                10,
            ),
            ("slot outside the day", clean.clone(), 200, 10),
            ("segment outside the network", clean.clone(), 288, 9),
            (
                "list fails strict decode (zero id gap)",
                set(2 * DELTA_HEAD_LEN + 8, &[0x00]),
                288,
                10,
            ),
            (
                "length past the section",
                set(second + 8, &6u32.to_le_bytes()),
                288,
                10,
            ),
            ("trailing bytes", [clean.as_slice(), &[0]].concat(), 288, 10),
            (
                "live bytes above folded bytes",
                set(0, &13u64.to_le_bytes()),
                288,
                10,
            ),
            (
                "count past the entries",
                set(8, &3u32.to_le_bytes()),
                288,
                10,
            ),
        ];
        for (what, bytes, slots_per_day, num_segments) in cases {
            expect_corrupt(
                what,
                decode_delta(&bytes, slots_per_day, num_segments),
                "delta section",
            );
        }
        for cut in 0..clean.len() {
            expect_corrupt(
                &format!("prefix of {cut} bytes"),
                decode_delta(&clean[..cut], 288, 10),
                "delta section",
            );
        }
        // Exactly as many bytes folded in as live is fine.
        assert!(decode_delta(&set(0, &14u64.to_le_bytes()), 288, 10).is_ok());
    }
}
