//! Trajectory views: a sealed base's slot inverted into (date, trajectory)
//! → segments, built in memory on the slot's second verification and never
//! saved, and the forward reader the verifier walks them through (see
//! [`crate::query::verifier`], "Verifying forward").

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

use streach_roadnet::SegmentId;
use streach_storage::{PostingStore, StorageResult};

use super::delta::DeltaTail;
use super::directory::SlotDirectory;
use super::{SealedBase, StIndexStore};

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
        }
    }
}

/// Views built on an index's current sealed base and the memory they hold;
/// see [`StIndex::view_stats`](super::StIndex::view_stats).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ViewStats {
    /// Slots whose trajectory view is built.
    pub views_built: u64,
    /// Heap bytes those views hold.
    pub resident_bytes: u64,
}

/// A forward reader of one window slot, taken through
/// [`PostingSource::forward`](crate::query::verifier::PostingSource::forward):
/// one part per index the source reads — a single
/// [`StIndex`](super::StIndex) has one, a router one per shard. A part is
/// the slot's trajectory view on an index's pinned sealed base and that
/// pinned delta tail's lists of the slot. Each delta list carries what its
/// base list lacks (or, when that is unknown, the whole merged list, a
/// superset of the base list), so the view's bits OR-ed with those lists'
/// bits are exactly the bits of the lists a segment-major read sees. The
/// parts of a router hold disjoint segments (each shard's base and delta
/// hold only its own), so OR-ing them yields the single index's bits.
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
            parts: ForwardParts::One(ForwardPart { view, delta, slot }),
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
            let mut next = 0;
            part.delta
                .visit_slot(part.slot, first.0..=last.0, |segment, list| {
                    match segments[next..].binary_search(&segment) {
                        Ok(k) => {
                            visit(next + k, list.beyond_base())?;
                            next += k + 1;
                        }
                        Err(k) => next += k,
                    }
                    Ok(())
                })?;
        }
        Ok(())
    }
}
