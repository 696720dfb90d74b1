//! Trajectory views: a slot inverted into (date, trajectory) → segments as
//! a segment-major read sees it, built in memory on the slot's second
//! forward ask and never saved, and the forward reader the verifier walks
//! them through (see [`crate::query::verifier`], "Verifying forward").

use std::sync::Arc;

use streach_roadnet::SegmentId;
use streach_storage::{visit_posting, StorageError};

use super::delta::ListsOf;
use super::SealedBase;

/// A (date, trajectory, segment) triple a view holds.
#[cfg(test)]
pub(super) type Triple = (u16, u32, SegmentId);

/// The trajectory view of one slot of an index state: the slot's time lists
/// as a segment-major read sees them (a delta list overriding its base
/// list) inverted, so that for every (date, trajectory) pair with a posting
/// in the slot it lists the segments the trajectory passed there,
/// ascending. ~12 B per pair and 4 B per observation.
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

    /// Inverts `slot` of `base` overridden by `delta`, the slot's delta
    /// lists, walking both in segment order ([`SealedBase::walk_slot`]), and
    /// charges every decode to the heap's
    /// [`IoStats`](streach_storage::IoStats). `None` on the first read fault
    /// or malformed list.
    pub(super) fn build(base: &SealedBase, slot: u32, delta: &ListsOf) -> Option<Self> {
        let io = base.postings.io_stats();
        let mut pairs: Vec<(u64, SegmentId)> = Vec::new();
        base.walk_slot(slot, delta, &mut Vec::new(), |segment, bytes| {
            let (mut dates, mut ids_seen) = (0u64, 0u64);
            let well_formed = visit_posting(bytes, |date, ids| {
                dates += 1;
                ids_seen += ids.len() as u64;
                pairs.extend(ids.map(|id| (Self::key(date, id), segment)));
            });
            if !well_formed {
                return Err(StorageError::corrupt("malformed time list"));
            }
            io.record_posting_decode(
                streach_storage::fixed_width_size(dates, ids_seen),
                bytes.len() as u64,
            );
            Ok(())
        })
        .ok()?;
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
    pub(super) fn triples(&self) -> impl Iterator<Item = Triple> + '_ {
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

/// Views built on an index's current state and the memory they hold; see
/// [`StIndex::view_stats`](super::StIndex::view_stats).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ViewStats {
    /// Slots whose trajectory view is built.
    pub views_built: u64,
    /// Heap bytes those views hold.
    pub resident_bytes: u64,
}

/// A forward reader of one window slot, taken through
/// [`PostingSource::forward`](crate::query::verifier::PostingSource::forward):
/// one trajectory view per index the source reads — a single
/// [`StIndex`](super::StIndex) has one, a router one per shard. A view holds
/// exactly the (date, trajectory, segment) triples of the slot's lists as a
/// segment-major read of its index state sees them. The views of a router
/// hold disjoint segments (each shard's base and delta hold only its own),
/// so together they hold the single index's triples. The reader owns its
/// views: a fold that drops one from its slot leaves this reader whole.
pub struct SlotForward {
    parts: ForwardParts,
}

enum ForwardParts {
    One(Arc<TrajectoryView>),
    Many(Box<[Arc<TrajectoryView>]>),
}

impl SlotForward {
    /// The forward reader of one index's `view`.
    pub(super) fn single(view: Arc<TrajectoryView>) -> Self {
        Self {
            parts: ForwardParts::One(view),
        }
    }

    /// One forward reader over the views of `readers`, one per index, or
    /// `None` when there are none.
    pub(crate) fn join(readers: Vec<SlotForward>) -> Option<Self> {
        let mut parts: Vec<Arc<TrajectoryView>> = Vec::with_capacity(readers.len());
        for reader in readers {
            match reader.parts {
                ForwardParts::One(view) => parts.push(view),
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

    /// The segments trajectory `id` passed in the slot on `date`, ascending
    /// within each index's view.
    pub fn segments(&self, date: u16, id: u32) -> impl Iterator<Item = SegmentId> + '_ {
        let parts = match &self.parts {
            ForwardParts::One(view) => std::slice::from_ref(view),
            ForwardParts::Many(views) => views,
        };
        parts
            .iter()
            .flat_map(move |view| view.segments_of(date, id).iter().copied())
    }
}
