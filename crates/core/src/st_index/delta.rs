//! The delta tail: a memtable of merged override lists keyed by (slot,
//! segment), the per-slot trajectory views held beside them, and its
//! snapshot section.
//!
//! # Trajectory views
//!
//! A slot's [`TrajectoryView`] inverts the slot as a segment-major read
//! sees it: per segment the delta list if there is one, else the base list.
//! It lives in the slot's cell of its stripe, beside the lists it was built
//! from. It is built on the second forward ask of the slot since the last
//! fold into it (a fresh state counts as one), with no lock held, from the
//! slot's lists copied out under the stripe's read lock, and kept only if
//! the slot still holds exactly those lists. Every fold into the slot drops
//! it and resets the slot's asks, under the stripe write lock the fold takes
//! anyway, so a slot folded into between asks is read segment-major until
//! two asks meet no fold between them. Views are never saved.
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
//! against the strict posting decoder.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use bytes::{Buf, BufMut};
use parking_lot::RwLock;
use streach_roadnet::SegmentId;
use streach_storage::{visit_posting, StorageError, StorageResult};

use super::view::{TrajectoryView, ViewStats};

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

/// One list of the delta tail: (slot, segment) and the fully merged list's
/// encoded bytes (base observations ∪ ingested ones).
pub(super) type DeltaEntry = ((u32, u32), Arc<[u8]>);

/// One slot's delta lists, copied out of the tail: (segment, merged list),
/// ascending.
pub(super) type ListsOf = Vec<(SegmentId, Arc<[u8]>)>;

/// One stripe of the delta tail: (slot, segment) → its merged list, in a
/// `BTreeMap`, so snapshots and compaction see the entries in key order
/// after one merge across stripes, and the trajectory view of each slot of
/// the stripe.
struct DeltaStripe {
    lists: BTreeMap<(u32, u32), Arc<[u8]>>,
    /// The view of slot `stripe + i * DELTA_STRIPES` at `i`, once built. A
    /// fold into the slot empties its cell.
    views: Box<[OnceLock<Arc<TrajectoryView>>]>,
}

/// The mutable delta tail: a memtable of merged override lists keyed by
/// (slot, segment), and the trajectory views of its state's slots.
pub(super) struct DeltaTail {
    /// Striped by `slot % DELTA_STRIPES`, so the apply lock is sharded:
    /// disjoint ingest batches (and concurrent readers) touching different
    /// slots take different locks.
    stripes: Vec<RwLock<DeltaStripe>>,
    /// Per slot of the day, the forward asks of the slot since the last
    /// fold into it: [`FRESH`], [`WALKED`] or [`CLAIMED`]. The second ask
    /// claims the build of the slot's view, and a fold resets the state
    /// with the view, so a slot folded into between asks is read
    /// segment-major until two asks meet no fold between them.
    walks: Box<[AtomicU8]>,
    /// Total number of entries across stripes, readable without any lock:
    /// the hot path's fast "no deltas" check.
    len: AtomicUsize,
    /// [`DeltaStats::delta_bytes`].
    folded_bytes: AtomicU64,
}

/// No forward ask of the slot since the last fold into it.
const FRESH: u8 = 0;
/// One forward ask of the slot since the last fold into it.
const WALKED: u8 = 1;
/// A later ask claimed the build of the slot's view.
const CLAIMED: u8 = 2;

impl DeltaTail {
    /// A tail over a day of `num_slots` slots holding the merged lists
    /// `entries`, with `folded_bytes` folded in so far.
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
            tail.insert(slot, segment, merged);
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

    pub(super) fn get(&self, slot: u32, segment: SegmentId) -> Option<Arc<[u8]>> {
        if self.is_empty() {
            return None;
        }
        self.stripes[Self::stripe_of(slot)]
            .read()
            .lists
            .get(&(slot, segment.0))
            .cloned()
    }

    /// Inserts (or replaces) one list, dropping its slot's view and
    /// resetting its asks, and maintains the lock-free length.
    fn insert(&self, slot: u32, segment: u32, list: Arc<[u8]>) {
        let mut stripe = self.stripes[Self::stripe_of(slot)].write();
        if let Some(view) = stripe.views.get_mut(slot as usize / DELTA_STRIPES) {
            view.take();
        }
        if let Some(walks) = self.walks.get(slot as usize) {
            walks.store(FRESH, Ordering::Relaxed);
        }
        if stripe.lists.insert((slot, segment), list).is_none() {
            self.len.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Publishes merged lists, each replacing its (slot, segment) pair's,
    /// and counts their bytes as folded in.
    pub(super) fn fold(&self, lists: impl IntoIterator<Item = DeltaEntry>) {
        let mut folded = 0u64;
        for ((slot, segment), list) in lists {
            folded += list.len() as u64;
            self.insert(slot, segment, list);
        }
        self.folded_bytes.fetch_add(folded, Ordering::Relaxed);
    }

    /// The lists of `slot`, copied out under its stripe's read lock.
    pub(super) fn slot_lists(&self, slot: u32) -> ListsOf {
        if self.is_empty() {
            return Vec::new();
        }
        self.stripes[Self::stripe_of(slot)]
            .read()
            .lists
            .range((slot, 0)..=(slot, u32::MAX))
            .map(|(&(_, segment), list)| (SegmentId(segment), Arc::clone(list)))
            .collect()
    }

    /// The view of `slot`, if it has one or this ask builds it. The second
    /// ask since the last fold into the slot builds it with `build`, from
    /// the slot's lists copied out under the stripe lock, with no lock held,
    /// so a build's base reads never hold up a fold. The view is kept only
    /// if the slot still holds exactly those lists. A failed build keeps no
    /// view, and the next ask builds again.
    pub(super) fn view(
        &self,
        slot: u32,
        build: impl FnOnce(&ListsOf) -> Option<TrajectoryView>,
    ) -> Option<Arc<TrajectoryView>> {
        let stripe = &self.stripes[Self::stripe_of(slot)];
        let cell = slot as usize / DELTA_STRIPES;
        if let Some(view) = stripe.read().views[cell].get() {
            return Some(Arc::clone(view));
        }
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
        if !claimed {
            return None;
        }
        let from = self.slot_lists(slot);
        let Some(view) = build(&from) else {
            step(CLAIMED, WALKED);
            return None;
        };
        let stripe = stripe.read();
        // A fold since the copy replaced or added a list.
        let at = |list: &Arc<[u8]>| Arc::as_ptr(list) as *const u8;
        let current = stripe.lists.range((slot, 0)..=(slot, u32::MAX));
        let same = current
            .map(|(_, list)| at(list))
            .eq(from.iter().map(|(_, list)| at(list)));
        same.then(|| Arc::clone(stripe.views[cell].get_or_init(|| Arc::new(view))))
    }

    /// The views built and the heap bytes they hold.
    pub(super) fn view_stats(&self) -> ViewStats {
        let mut stats = ViewStats::default();
        for stripe in &self.stripes {
            for view in stripe.read().views.iter().filter_map(OnceLock::get) {
                stats.views_built += 1;
                stats.resident_bytes += view.resident_bytes();
            }
        }
        stats
    }

    /// Per slot with a built view, the (date, trajectory, segment) triples
    /// it holds, ascending.
    #[cfg(test)]
    pub(super) fn view_triples(&self) -> Vec<(u32, Vec<super::view::Triple>)> {
        let mut views = Vec::new();
        for (stripe_no, stripe) in self.stripes.iter().enumerate() {
            let stripe = stripe.read();
            for (i, view) in stripe.views.iter().enumerate() {
                if let Some(view) = view.get() {
                    let slot = (stripe_no + i * DELTA_STRIPES) as u32;
                    views.push((slot, view.triples().collect()));
                }
            }
        }
        views.sort_unstable();
        views
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
        let mut entries: Vec<DeltaEntry> = Vec::new();
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
            buf.put_u32_le(u32::try_from(list.len()).expect("a list spans at most 4 GiB"));
            buf.put_slice(list);
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
    use streach_storage::TimeList;

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

    /// A slot's view is built on its second ask since the last fold,
    /// with no stripe lock held, and kept only if no fold replaced the
    /// slot's lists while it was built; a fold drops a kept view.
    #[test]
    fn a_fold_during_a_view_build_discards_the_view() {
        let tail = DeltaTail::new(sample_delta(), 288);
        let view = || TrajectoryView::from_pairs(vec![(4, SegmentId(3))]);
        let fold = || {
            let merged = tail.get(5, SegmentId(3)).unwrap();
            tail.fold([((5, 3), merged.to_vec().into())]);
        };
        let unbuilt = |_: &ListsOf| -> Option<TrajectoryView> { panic!("built") };
        let built = |got: Option<Arc<TrajectoryView>>| got.is_some();
        assert!(!built(tail.view(5, unbuilt)));
        // The fold takes the stripe's write lock: a build that held the
        // lock would never return.
        let during = |lists: &ListsOf| {
            assert_eq!(lists.len(), 1);
            fold();
            view()
        };
        assert!(!built(tail.view(5, during)));
        assert_eq!(tail.view_stats(), ViewStats::default());
        assert!(!built(tail.view(5, unbuilt)));
        assert!(built(tail.view(5, |_| view())));
        assert!(built(tail.view(5, unbuilt)));
        assert_eq!(tail.view_stats().views_built, 1);
        fold();
        assert_eq!(tail.view_stats(), ViewStats::default());
        // A slot with no list is viewed like any other.
        assert!(!built(tail.view(7, unbuilt)));
        assert!(built(tail.view(7, |lists| {
            assert!(lists.is_empty());
            view()
        })));
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
