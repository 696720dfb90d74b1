//! Trajectory views: a sealed base's slot inverted into (date, trajectory)
//! → segments, built in memory on the slot's second verification and never
//! saved; the delta views, the same layout over what a slot's delta lists
//! add to the base; and the forward reader the verifier walks both through
//! (see [`crate::query::verifier`], "Verifying forward").

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

use streach_roadnet::SegmentId;
use streach_storage::{visit_posting, PostingStore, StorageResult, TimeList};

use super::delta::{DeltaTail, ListsOf, SlotDelta};
use super::directory::SlotDirectory;
use super::{SealedBase, StIndexStore};

/// The trajectory view of one (sealed base, slot): the slot's time lists
/// inverted, so that for every (date, trajectory) pair with a posting in
/// the slot it lists the segments the trajectory passed there, ascending.
/// ~12 B per pair and 4 B per observation. A delta view has the same
/// layout over the observations a slot's delta lists add to the base
/// ([`TrajectoryView::build_delta`]).
pub(super) struct TrajectoryView {
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
    /// heap's [`IoStats`](streach_storage::IoStats). `None` on the first
    /// read fault or malformed blob.
    fn build(directory: &SlotDirectory, postings: &PostingStore<StIndexStore>) -> Option<Self> {
        let io = postings.io_stats();
        let mut run = postings.run();
        let mut buf = Vec::new();
        let mut pairs: Vec<(u64, SegmentId)> = Vec::new();
        for (segment, handle) in directory.entries() {
            let bytes = run.read(handle, &mut buf).ok()?;
            let (mut dates, mut ids_seen) = (0u64, 0u64);
            let well_formed = visit_posting(bytes, |date, ids| {
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
        Self::from_pairs(pairs)
    }

    /// The delta view of `slot` on `base`: its `lists` inverted over what
    /// each adds to the base's list of its segment, so that the base view's
    /// segments of a pair and the delta view's are, together, the segments
    /// whose merged lists hold the pair. A list that knows its `added`
    /// observations adds those; one that does not (reopened from a
    /// snapshot, or merged onto such a list) adds its merged list minus
    /// the base's, which is read and decoded once here. Runs with no delta
    /// lock held ([`DeltaTail::read_slot`]). Decodes are charged to the
    /// heap's [`IoStats`](streach_storage::IoStats). `None` on a read fault
    /// or a malformed list.
    pub(super) fn build_delta(lists: &ListsOf, base: &SealedBase, slot: u32) -> Option<Self> {
        let io = base.postings.io_stats();
        let directory = base.temporal.get(slot).ok()?;
        let mut run = base.postings.run();
        let (mut buf, mut next) = (Vec::new(), 0);
        let mut pairs: Vec<(u64, SegmentId)> = Vec::new();
        for &(segment, ref list) in lists {
            let (bytes, base_list) = match list.added() {
                Some(added) => (added, None),
                None => {
                    let base_list = match directory.seek(&mut next, segment) {
                        Some(entry) => {
                            let bytes = run.read(directory.handle(entry), &mut buf).ok()?;
                            let decoded = TimeList::decode(bytes)?;
                            io.record_posting_decode(
                                decoded.fixed_width_size(),
                                bytes.len() as u64,
                            );
                            Some(decoded)
                        }
                        None => None,
                    };
                    (&list.merged[..], base_list)
                }
            };
            let (mut dates, mut ids_seen) = (0u64, 0u64);
            let well_formed = visit_posting(bytes, |date, ids| {
                dates += 1;
                ids_seen += ids.len() as u64;
                let held = base_list
                    .as_ref()
                    .and_then(|l| l.ids_on(date))
                    .unwrap_or(&[]);
                pairs.extend(
                    ids.filter(|id| held.binary_search(id).is_err())
                        .map(|id| (Self::key(date, id), segment)),
                );
            });
            if !well_formed {
                return None;
            }
            io.record_posting_decode(
                streach_storage::fixed_width_size(dates, ids_seen),
                bytes.len() as u64,
            );
        }
        Self::from_pairs(pairs)
    }

    /// The view of `pairs`, ((date, trajectory) key, segment) pairs each
    /// given once, in any order.
    pub(super) fn from_pairs(mut pairs: Vec<(u64, SegmentId)>) -> Option<Self> {
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

    /// Every (date, trajectory, segment) the view holds, in key order.
    #[cfg(test)]
    pub(super) fn triples(&self) -> impl Iterator<Item = (u16, u32, SegmentId)> + '_ {
        self.keys.iter().enumerate().flat_map(move |(i, &key)| {
            let start = if i == 0 { 0 } else { self.ends[i - 1] };
            self.segments[start as usize..self.ends[i] as usize]
                .iter()
                .map(move |&segment| ((key >> 32) as u16, key as u32, segment))
        })
    }

    /// Heap bytes the view holds.
    pub(super) fn resident_bytes(&self) -> u64 {
        (self.keys.capacity() * 8 + self.ends.capacity() * 4 + self.segments.capacity() * 4) as u64
    }
}

/// The trajectory views of one sealed base, one lazily built cell per slot
/// of the day. A slot's view is built on its second verification touch of
/// the base, so a slot verified once pays nothing extra.
pub(super) struct SlotViews {
    views: Vec<OnceLock<TrajectoryView>>,
    /// Whether a verification touched the slot while it had no view.
    touched: Vec<AtomicBool>,
}

impl SlotViews {
    pub(super) fn new(num_slots: usize) -> Self {
        Self {
            views: (0..num_slots).map(|_| OnceLock::new()).collect(),
            touched: (0..num_slots).map(|_| AtomicBool::new(false)).collect(),
        }
    }

    /// The views built so far and the heap bytes they hold.
    pub(super) fn stats(&self) -> ViewStats {
        let built = self.views.iter().filter_map(OnceLock::get);
        ViewStats {
            views_built: built.clone().count() as u64,
            resident_bytes: built.map(TrajectoryView::resident_bytes).sum(),
            ..ViewStats::default()
        }
    }
}

/// Views built on an index's current state and the memory they hold; see
/// [`StIndex::view_stats`](super::StIndex::view_stats).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ViewStats {
    /// Slots whose trajectory view is built on the sealed base.
    pub views_built: u64,
    /// Heap bytes those views hold.
    pub resident_bytes: u64,
    /// Slots whose delta view is built on the delta tail.
    pub delta_views_built: u64,
    /// Heap bytes the delta views hold.
    pub delta_resident_bytes: u64,
}

/// A forward reader of one window slot, taken through
/// [`PostingSource::forward`](crate::query::verifier::PostingSource::forward):
/// one part per index the source reads — a single
/// [`StIndex`](super::StIndex) has one, a router one per shard. A part is
/// the slot's trajectory view on an index's pinned sealed base and that
/// pinned delta tail's share of the slot: its delta view, which holds what
/// the slot's delta lists add to the base, or, while the slot has none, the
/// lists themselves. A pair's segments in the base view and in the delta
/// view are exactly the segments whose lists, as a segment-major read sees
/// them, hold the pair; a list read segment-major carries what its base
/// list lacks (or, when that is unknown, the whole merged list, a superset
/// of the base list), so OR-ing its bits into the base view's is exact too.
/// The parts of a router hold disjoint segments (each shard's base and
/// delta hold only its own), so OR-ing them yields the single index's bits.
///
/// A [`SlotForward`] exists on the strength of the base view alone; the
/// delta's share is read when the walk reaches the part
/// ([`SlotForward::read`]).
pub struct SlotForward<'p> {
    parts: ForwardParts<'p>,
}

enum ForwardParts<'p> {
    One(ForwardPart<'p>),
    Many(Box<[ForwardPart<'p>]>),
}

/// One index's share of a [`SlotForward`].
struct ForwardPart<'p> {
    base: &'p SealedBase,
    view: &'p TrajectoryView,
    delta: &'p DeltaTail,
    /// The slot, wrapped into the day.
    slot: u32,
}

impl<'p> SlotForward<'p> {
    /// The forward reader of `slot` (wrapped into the day) on one index:
    /// the slot's view on `base` and the index's `delta` tail. A slot's
    /// first verification touch of the base gets `None`; a later one builds
    /// the view from one clean read of the whole slot. A build that fails
    /// is not kept: it gets `None`, and the caller's own read of the slot
    /// meets the fault.
    pub(super) fn single(base: &'p SealedBase, delta: &'p DeltaTail, slot: u32) -> Option<Self> {
        let cell = &base.views.views[slot as usize];
        // Relaxed: the flag publishes nothing; the view is published
        // through its `OnceLock`.
        let view = match cell.get() {
            Some(view) => view,
            None if !base.views.touched[slot as usize].swap(true, Ordering::Relaxed) => {
                return None
            }
            None => {
                let view = TrajectoryView::build(base.temporal.get(slot).ok()?, &base.postings)?;
                cell.get_or_init(|| view)
            }
        };
        Some(Self {
            parts: ForwardParts::One(ForwardPart {
                base,
                view,
                delta,
                slot,
            }),
        })
    }

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

    /// Calls `read` once per part, with the part's [`PartRead`], and stops
    /// at the first error `read` returns. Each call holds the part's delta
    /// stripe read lock (none when the tail is empty), so the delta view
    /// and the lists it reads are one consistent state. The slot's delta
    /// view is built on the second walk of the slot since the last ingest
    /// into it; until then the part reads the slot's delta lists
    /// segment-major ([`PartRead::visit_delta`]).
    pub fn read<F>(&self, mut read: F) -> StorageResult<()>
    where
        F: FnMut(&PartRead<'_>) -> StorageResult<()>,
    {
        for part in self.parts() {
            part.delta.read_slot(
                part.slot,
                |lists| TrajectoryView::build_delta(lists, part.base, part.slot),
                |delta| {
                    read(&PartRead {
                        view: part.view,
                        delta,
                    })
                },
            )?;
        }
        Ok(())
    }
}

/// One part of a [`SlotForward`] as a walk reads it: see
/// [`SlotForward::read`].
pub struct PartRead<'a> {
    view: &'a TrajectoryView,
    delta: SlotDelta<'a>,
}

impl PartRead<'_> {
    /// The segments trajectory `id` passed in the slot on `date`, by this
    /// part's base view and then its delta view, each ascending; the two
    /// never share a segment. Without a delta view, what the delta lists
    /// add comes from [`PartRead::visit_delta`] instead.
    pub fn segments(&self, date: u16, id: u32) -> impl Iterator<Item = SegmentId> + '_ {
        let added = match &self.delta {
            SlotDelta::View(view) => view.segments_of(date, id),
            SlotDelta::Empty | SlotDelta::Lists(_) => &[],
        };
        self.view.segments_of(date, id).iter().chain(added).copied()
    }

    /// The segment-major overlay of a part with no delta view: calls
    /// `visit(i, bytes)` for every `segments[i]` with a delta list in the
    /// slot, with the bytes beyond its base list (see [`SlotForward`]), in
    /// ascending `i`, and stops at the first error `visit` returns. Visits
    /// nothing when the part has a delta view or the slot no list.
    /// `segments` must ascend strictly.
    pub fn visit_delta<F>(&self, segments: &[SegmentId], mut visit: F) -> StorageResult<()>
    where
        F: FnMut(usize, &[u8]) -> StorageResult<()>,
    {
        let SlotDelta::Lists(lists) = &self.delta else {
            return Ok(());
        };
        let (Some(first), Some(last)) = (segments.first(), segments.last()) else {
            return Ok(());
        };
        let mut next = 0;
        for (segment, list) in lists.range(first.0..=last.0) {
            match segments[next..].binary_search(&segment) {
                Ok(k) => {
                    visit(next + k, list.beyond_base())?;
                    next += k + 1;
                }
                Err(k) => next += k,
            }
        }
        Ok(())
    }
}
