//! Reachability-probability verification against the ST-Index.
//!
//! Both the exhaustive-search baseline and the trace back search decide
//! whether a road segment `r` belongs to the Prob-reachable region by
//! checking, for every day `d`, whether some trajectory passed the start
//! segment `r0` during `[T, T + Δt]` *and* passed `r` during `[T, T + L]`
//! (Eq. 3.1):
//!
//! ```text
//! probability(r, r0) = m* / m
//! where m* = #{ d : Tr(r0, T0, d) ∩ Tr(r, TB, d) ≠ ∅ }
//! ```
//!
//! Every verification reads the time lists of `r` for the slots overlapping
//! `[T, T + L)` from the posting store — this is exactly the disk I/O the
//! Con-Index pruning tries to minimise. A query verifies hundreds of
//! candidate segments, so verification works on the whole sorted batch at
//! once, a window slot at a time:
//!
//! * [`VerifierCore`] holds everything immutable per query: the start
//!   segment's trajectory IDs as a **day-indexed** table (`Vec` indexed by
//!   `date as usize`, each day pre-sorted and deduplicated at construction),
//!   the window's slot range, and the index view pinned once for the whole
//!   query ([`PostingSource::pin`]). It is freely shared across threads,
//!   and its reads write no index-wide shared state.
//! * [`VerifierCore::probabilities`] splits the batch into one contiguous
//!   range per worker (`streach_par::try_par_chunks`). For each window slot
//!   a range asks the source to visit its segments' postings
//!   ([`PostingSource::visit_slot`]); the ST-Index merges the range with
//!   the slot's directory and reads the matched blobs in heap order, one
//!   pool fetch per page, lending in-page blobs without a copy.
//! * Eq. 3.1 is counted as one bit per (segment, day): a day's bit is set
//!   when a posting's IDs for that day meet the start segment's, and `m*`
//!   is the popcount once every slot was visited.
//!
//! # Verifying forward
//!
//! The segment-major read decodes every posting of the batch, although
//! only the start's few (day, trajectory) pairs can set a bit. The bit
//! (r, d) is set iff some ID of `start_ids[d]` is in r's list for day d,
//! so the same bits come from walking those pairs forward: for each pair,
//! the segments its trajectory passed in the slot. A window slot whose
//! **trajectory view** exists is read that way
//! ([`PostingSource::forward`]):
//!
//! * A view inverts one slot of an index state as a segment-major read
//!   sees it: sorted (day, trajectory) keys, each with its ascending
//!   segments, taken per segment from the delta list if there is one, else
//!   from the base list. So one rule covers the delta tail: a delta list
//!   overrides its base list, in the view as in every other read, and new
//!   days and mid-trajectory continuations are walked like the base.
//!   [`StIndex`] derives a view in memory from one walk of the slot's base
//!   blobs (in heap order) and delta lists, on the slot's *second* forward
//!   ask since the state was published or last folded into, and keeps it
//!   beside the slot's delta lists. A slot verified once builds nothing.
//!   Every ingest batch folding into the slot drops its view, so a slot
//!   ingested into between asks stays segment-major until two asks meet no
//!   ingest between them; a compaction publishes a state with no views.
//! * A build that meets a read fault or a malformed blob is not kept, and
//!   the slot is read segment-major, so every error surfaces where it
//!   would without views. The build's decodes are charged to the query
//!   that triggers it; a forward read decodes no posting.
//!
//! A core plans its reads on its first verification: it asks the source
//! once per window slot, which is that core's one touch of the slot, and
//! keeps the plan for its later batches. The forward slots are walked
//! inline after the segment-major slots were read across workers; a batch
//! whose every slot has a view never fans out. Each walk asks the source
//! for the slot's view again: a pinned core keeps seeing ingest folded into
//! its pinned state, so where a fold dropped the view after the plan, the
//! walk reads that slot segment-major inline ([`PostingSource::visit_slot`])
//! instead.
//!
//! A sharded router reads forward too ([`crate::sharded`]): a slot is
//! forward when every shard's first-choice engine is live and offers its
//! view, and the walk reads one view per shard. Each shard's view holds
//! only the segments it owns, so the views never overlap and together
//! hold exactly the single index's triples. A shard whose first choice is
//! dead makes the slot segment-major, read through the router's failover.
//! Every shard is asked even after one declined, and a slot's view is
//! dropped by any fold into it, so a router reads forward exactly where a
//! single engine that saw the same asks and folds does.
//!
//! # Deciding before verifying
//!
//! `m*` only counts days on which the start segment itself was active, so
//! no segment can score above `active_days / m`. When that ceiling is below
//! Prob (or `m` is 0), the query is **decided** before any candidate is
//! read: no segment passes ([`VerifierCore::decided`]). The bound is exact
//! in floating point — every probability is `met / m` with
//! `met ≤ active_days` over the same `m`, and IEEE division is monotone in
//! its numerator — so deciding changes no answer bit. The query pipeline
//! builds the core first and lets this one test pick its plan:
//! [`VerifierCore::passing`] returns `None` without reading for a decided
//! query, and the pipeline then skips what only feeds the verification
//! (SQMB's Far expansion, ES's network expansion).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use streach_roadnet::SegmentId;
use streach_storage::{
    fixed_width_size, visit_posting, IoStats, IoStatsSnapshot, StorageError, StorageResult,
};

use crate::st_index::{SlotForward, StIndex};
use crate::time::{slots_overlapping, SlotWindow};

/// The read-side surface the verifiers need from a posting index.
///
/// This is exactly the set of [`StIndex`] methods the verification hot path
/// touches — nothing about building, ingest, or compaction. [`StIndex`] is
/// the canonical implementation; a sharded deployment implements it with a
/// router that resolves each `(segment, slot)` read against the shard (and
/// replica) owning that segment, so the verifier is oblivious to the
/// topology behind it.
///
/// # Pinned reads
///
/// Reads go through a [`PostingSource::Pin`]: a consistent view of the
/// index taken once (by [`VerifierCore::new`], once per query) and then
/// shared by every verification worker. For [`StIndex`] the pin is the
/// current (sealed base, delta tail) pair: every read through it sees that
/// one base — a compaction publishing a new base meanwhile neither blocks
/// the reader nor pulls the base out from under it (the pin keeps the old
/// heap alive and readable) — and ingest folded into that delta tail after
/// the pin stays visible, exactly as for an unpinned read. A pinned read
/// writes no index-wide shared state (no lock, no reference count); the
/// only shared writes left on a warm read are the buffer pool's page shard
/// and the thread's own [`IoStats`] stripe.
pub trait PostingSource: Sync {
    /// A consistent read view; see the trait docs.
    type Pin: Send + Sync;

    /// Slot width in seconds of the underlying index.
    fn slot_s(&self) -> u32;

    /// Number of observed days (the denominator `m` of Eq. 3.1).
    fn num_days(&self) -> u16;

    /// Shared I/O counters that posting decodes are reported against.
    fn io_stats(&self) -> Arc<IoStats>;

    /// Every I/O counter a read through this source can move, summed: the
    /// snapshot a query reports its I/O delta over. One set of counters for
    /// a single index; a router also sums the counters of every engine its
    /// reads can reach.
    fn io_snapshot(&self) -> IoStatsSnapshot {
        self.io_stats().snapshot()
    }

    /// Pins the current view for a batch of reads.
    fn pin(&self) -> Self::Pin;

    /// Prepares the index structures of `slots` for reading, so a query
    /// meets a damaged structure before it bounds anything: a reopened
    /// [`StIndex`] decodes those slots' directories. The default prepares
    /// nothing; such a source decodes while it reads.
    fn resolve(&self, slots: SlotWindow) -> StorageResult<()> {
        let _ = slots;
        Ok(())
    }

    /// Copies the encoded time list for `(segment, slot)` as seen by `pin`
    /// into `buf`. Returns `Ok(false)` when no posting exists for the pair.
    fn read_pinned(
        &self,
        pin: &Self::Pin,
        segment: SegmentId,
        slot: u32,
        buf: &mut Vec<u8>,
    ) -> StorageResult<bool>;

    /// Calls `visit(i, bytes)` with the encoded time list of every
    /// `segments[i]` that has one in `slot` as seen by `pin`, in ascending
    /// `i`, and stops at the first error `visit` returns. `segments` must
    /// ascend strictly; `buf` holds any bytes that have to be copied.
    ///
    /// The default reads pair by pair through
    /// [`read_pinned`](Self::read_pinned). [`StIndex`] reads the slot's
    /// blobs in heap order instead, a page at a time.
    fn visit_slot<F>(
        &self,
        pin: &Self::Pin,
        segments: &[SegmentId],
        slot: u32,
        buf: &mut Vec<u8>,
        mut visit: F,
    ) -> StorageResult<()>
    where
        F: FnMut(usize, &[u8]) -> StorageResult<()>,
    {
        for (i, &segment) in segments.iter().enumerate() {
            if self.read_pinned(pin, segment, slot, buf)? {
                visit(i, buf)?;
            }
        }
        Ok(())
    }

    /// A forward reader of `slot` as seen by `pin` now (see the module
    /// docs), owning the slot's current views, or `None` when the caller
    /// must read the slot through [`visit_slot`](Self::visit_slot). A
    /// verification asks once per window slot, before it reads any, and
    /// again each time it walks a slot it planned forward; an answer may
    /// change between asks. [`StIndex`] answers with the slot's trajectory
    /// view on the pinned state, built on the slot's second ask since the
    /// last fold into it; the router joins its shards' answers; the default
    /// offers none.
    fn forward(&self, pin: &Self::Pin, slot: u32) -> Option<SlotForward> {
        let _ = (pin, slot);
        None
    }

    /// The typed error describing a structurally invalid posting at
    /// `(segment, slot)`.
    fn malformed_posting(&self, segment: SegmentId, slot: u32) -> StorageError;
}

/// The verifier of one (start segment, T, Δt, L) combination, shared by
/// every worker of the query.
pub struct VerifierCore<'a, I: PostingSource + ?Sized = StIndex> {
    source: &'a I,
    /// The view every read of this core goes through, pinned once at
    /// construction (see [`PostingSource`]).
    pin: I::Pin,
    /// Trajectory IDs that passed the start segment during `[T, T + Δt)`,
    /// indexed by date (sorted + deduplicated; empty = day inactive).
    start_ids: Vec<Vec<u32>>,
    /// Number of days with a non-empty start list.
    active_days: usize,
    /// Number of (day, trajectory) pairs in `start_ids`.
    start_pairs: u64,
    /// Slots overlapping the query window `[T, T + L)`, wrapping past
    /// midnight (the same circular-day semantics the indexes use).
    window_slots: crate::time::SlotWindow,
    /// Query window `[T, T + L)`; the end may exceed the day length, in
    /// which case the window wraps.
    window: (u32, u32),
    num_days: u16,
    /// Shared I/O counters: every posting visited here reports its decoded
    /// (fixed-width-equivalent) vs resident (stored) byte counts, making the
    /// compression win observable per query.
    io: Arc<IoStats>,
    /// Per window slot, whether it is read forward: asked of the source on
    /// the core's first verification, which is the core's one touch of
    /// each slot.
    plan: OnceLock<Box<[bool]>>,
    /// [`VerifierCore::view_pairs_walked`] so far, added to once per
    /// [`VerifierCore::probabilities`] call that walks.
    pairs_walked: AtomicU64,
}

/// Returns `true` if the sorted `start` IDs share an element with the
/// ascending `ids` (duplicates are permitted; order is what matters).
fn meets(start: &[u32], ids: impl IntoIterator<Item = u32>) -> bool {
    let mut i = 0;
    for id in ids {
        while i < start.len() && start[i] < id {
            i += 1;
        }
        match start.get(i) {
            Some(&s) if s == id => return true,
            Some(_) => {}
            None => return false,
        }
    }
    false
}

impl<'a, I: PostingSource + ?Sized> VerifierCore<'a, I> {
    /// Builds the core for queries starting from `start_segment` at time
    /// `start_time_s`, with query duration `duration_s`.
    ///
    /// `Tr(r0, T0, d)` is extracted once here (T0 = `[T, T + Δt)`), which is
    /// the first step of the trace back search. The start segment's posting
    /// reads are real page I/O, so construction is fallible: a disk fault or
    /// malformed posting surfaces as `Err` instead of aborting the process.
    ///
    /// The index view is pinned here, once: this read and every later
    /// [`VerifierCore::probabilities`] read the same (base, delta) pair, even
    /// across a concurrent compaction (see [`PostingSource`]).
    pub fn new(
        source: &'a I,
        start_segment: SegmentId,
        start_time_s: u32,
        duration_s: u32,
    ) -> StorageResult<Self> {
        let slot_s = source.slot_s();
        let num_days = source.num_days();
        // Windows wrap past midnight instead of clamping: the bounding phase
        // (SQMB / Con-Index) has always used modular slot arithmetic, and the
        // verifier must read exactly the slots the bounds were computed over.
        let t0_end = start_time_s.saturating_add(slot_s);
        let end = start_time_s.saturating_add(duration_s);

        let io = source.io_stats();
        let pin = source.pin();
        let mut start_ids: Vec<Vec<u32>> = vec![Vec::new(); num_days as usize];
        let mut bytes = Vec::new();
        for slot in slots_overlapping(start_time_s, t0_end, slot_s) {
            if source.read_pinned(&pin, start_segment, slot, &mut bytes)? {
                let (mut dates, mut ids_seen) = (0u64, 0u64);
                let well_formed = visit_posting(&bytes, |date, ids| {
                    dates += 1;
                    ids_seen += ids.len() as u64;
                    if let Some(day) = start_ids.get_mut(date as usize) {
                        day.extend(ids);
                    }
                });
                if !well_formed {
                    return Err(source.malformed_posting(start_segment, slot));
                }
                io.record_posting_decode(fixed_width_size(dates, ids_seen), bytes.len() as u64);
            }
        }
        let (mut active_days, mut start_pairs) = (0, 0);
        for day in &mut start_ids {
            if !day.is_empty() {
                day.sort_unstable();
                day.dedup();
                active_days += 1;
                start_pairs += day.len() as u64;
            }
        }

        Ok(Self {
            source,
            pin,
            start_ids,
            active_days,
            start_pairs,
            window_slots: slots_overlapping(start_time_s, end, slot_s),
            window: (start_time_s, end),
            num_days,
            io,
            plan: OnceLock::new(),
            pairs_walked: AtomicU64::new(0),
        })
    }

    /// The start's (day, trajectory) pairs the forward walks of every
    /// verification of this core looked up so far, once per window slot
    /// walked: a function of the query and the view state alone, the same
    /// on any number of workers and shards. A query reports the difference
    /// over its own.
    pub fn view_pairs_walked(&self) -> u64 {
        self.pairs_walked.load(Ordering::Relaxed)
    }

    /// Number of days on which at least one trajectory passed the start
    /// segment during `[T, T + Δt)`.
    pub fn active_days(&self) -> usize {
        self.active_days
    }

    /// The query window `[T, T + L)`.
    pub fn window(&self) -> (u32, u32) {
        self.window
    }

    /// Whether no segment can reach `prob` from this start: the day count
    /// `m` is 0, or `active_days / m < prob`, the ceiling of every
    /// probability this core computes (see the module docs). For a `prob`
    /// in `(0, 1]`, the range [`SQuery`](crate::query::SQuery) validates,
    /// a decided query's verification admits nothing, bit for bit.
    pub fn decided(&self, prob: f64) -> bool {
        // Explicit: `x / 0.0` is NaN, and NaN compares below nothing.
        self.num_days == 0 || (self.active_days as f64 / self.num_days as f64) < prob
    }

    /// The segments of `segments` whose probability reaches `prob`, in
    /// input order, or `None` without reading a posting when the query is
    /// [`decided`](Self::decided). `segments` must ascend strictly, as for
    /// [`probabilities`](Self::probabilities). `Some` means every segment
    /// of the batch was verified; `None` means none was.
    pub fn passing(
        &self,
        segments: &[SegmentId],
        prob: f64,
    ) -> StorageResult<Option<Vec<SegmentId>>> {
        if self.decided(prob) {
            return Ok(None);
        }
        let probabilities = self.probabilities(segments)?;
        Ok(Some(
            segments
                .iter()
                .zip(probabilities)
                .filter(|(_, p)| *p >= prob)
                .map(|(segment, _)| *segment)
                .collect(),
        ))
    }

    /// The reachable probability `probability(r, r0)` of Eq. 3.1 for every
    /// segment of `segments`, in input order. `segments` must ascend
    /// strictly (an annulus, or sorted candidates); the call panics
    /// otherwise, since the scan would miss postings.
    ///
    /// Window slots with a trajectory view are read forward, inline; the
    /// batch is split into one contiguous range per worker for the rest,
    /// and each range reads its postings a window slot at a time (see the
    /// module docs). Every call may read postings, so the result is a
    /// [`StorageResult`]: a disk fault (`EIO`, truncation after open) or a
    /// structurally invalid posting (torn/zeroed page) is reported as `Err`
    /// naming the segment and slot — never a panic, and never a silently
    /// wrong probability computed from a partial read.
    pub fn probabilities(&self, segments: &[SegmentId]) -> StorageResult<Vec<f64>> {
        assert!(
            segments.windows(2).all(|w| w[0] < w[1]),
            "a verification batch must ascend strictly"
        );
        if segments.is_empty() || self.num_days == 0 || self.active_days == 0 {
            return Ok(vec![0.0; segments.len()]);
        }
        let words = self.words();
        let plan = self.plan.get_or_init(|| {
            self.window_slots
                .clone()
                .map(|slot| self.source.forward(&self.pin, slot).is_some())
                .collect()
        });
        let mut met = if plan.contains(&false) {
            streach_par::try_par_chunks(segments, |range| self.scan_range(range, plan))?
        } else {
            vec![0u64; segments.len() * words]
        };
        let (mut walked, mut buf) = (0, Vec::new());
        for (slot, _) in self
            .window_slots
            .clone()
            .zip(plan.iter())
            .filter(|(_, &f)| f)
        {
            match self.source.forward(&self.pin, slot) {
                Some(forward) => {
                    self.walk_forward(&forward, segments, &mut met);
                    walked += self.start_pairs;
                }
                // A fold dropped the slot's view since the plan.
                None => self.scan_slot(segments, slot, &mut buf, &mut met)?,
            }
        }
        if walked > 0 {
            self.pairs_walked.fetch_add(walked, Ordering::Relaxed);
        }
        Ok(met
            .chunks(words)
            .map(|days| {
                let matching_days: u32 = days.iter().map(|w| w.count_ones()).sum();
                matching_days as f64 / self.num_days as f64
            })
            .collect())
    }

    /// Words of day bits per segment.
    fn words(&self) -> usize {
        (self.num_days as usize).div_ceil(64)
    }

    /// The day bits, one per (segment, day), that the window slots `plan`
    /// does not read forward set over one worker's range.
    fn scan_range(&self, segments: &[SegmentId], plan: &[bool]) -> StorageResult<Vec<u64>> {
        let mut met = vec![0u64; segments.len() * self.words()];
        // Sized so that copying a blob of up to a page never grows it.
        let mut buf = Vec::with_capacity(streach_storage::PAGE_SIZE);
        for (slot, _) in self.window_slots.clone().zip(plan).filter(|(_, &f)| !f) {
            self.scan_slot(segments, slot, &mut buf, &mut met)?;
        }
        Ok(met)
    }

    /// Sets the day bits of `met` that `slot` sets, read segment-major.
    fn scan_slot(
        &self,
        segments: &[SegmentId],
        slot: u32,
        buf: &mut Vec<u8>,
        met: &mut [u64],
    ) -> StorageResult<()> {
        let words = self.words();
        self.source
            .visit_slot(&self.pin, segments, slot, buf, |i, bytes| {
                self.meet(
                    &mut met[i * words..(i + 1) * words],
                    bytes,
                    segments[i],
                    slot,
                )
            })
    }

    /// Sets the day bits of `met` that a slot sets through its views: the
    /// segments each start (day, trajectory) passed in the slot.
    fn walk_forward(&self, forward: &SlotForward, segments: &[SegmentId], met: &mut [u64]) {
        let words = self.words();
        for (day, ids) in self.start_ids.iter().enumerate() {
            let (word, bit) = (day / 64, 1u64 << (day % 64));
            for &id in ids {
                for segment in forward.segments(day as u16, id) {
                    if let Ok(i) = segments.binary_search(&segment) {
                        met[i * words + word] |= bit;
                    }
                }
            }
        }
    }

    /// Sets the bit of every day on which `bytes`, the time list of
    /// `segment` in `slot`, meets the start IDs, in `met`, that segment's
    /// day bits.
    fn meet(
        &self,
        met: &mut [u64],
        bytes: &[u8],
        segment: SegmentId,
        slot: u32,
    ) -> StorageResult<()> {
        let (mut dates, mut ids_seen) = (0u64, 0u64);
        let well_formed = visit_posting(bytes, |date, ids| {
            dates += 1;
            ids_seen += ids.len() as u64;
            // Days on which the start segment saw no trajectory (or past
            // the pinned day count) cannot count.
            let day = date as usize;
            let (word, bit) = (day / 64, 1u64 << (day % 64));
            if day < self.start_ids.len()
                && met[word] & bit == 0
                && meets(&self.start_ids[day], ids)
            {
                met[word] |= bit;
            }
        });
        if !well_formed {
            return Err(self.source.malformed_posting(segment, slot));
        }
        self.io
            .record_posting_decode(fixed_width_size(dates, ids_seen), bytes.len() as u64);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::IndexConfig;
    use crate::query::reference::NaiveVerifier;
    use crate::st_index::PinnedState;
    use std::sync::Arc;
    use streach_roadnet::{GeneratorConfig, SyntheticCity};
    use streach_storage::{fault::mix, BlobHandle, Page, PageStore, PAGE_SIZE};
    use streach_traj::{
        FleetConfig, MatchedTrajectory, SegmentVisit, TrajPoint, TrajectoryDataset,
    };

    fn build() -> (
        Arc<streach_roadnet::RoadNetwork>,
        TrajectoryDataset,
        StIndex,
    ) {
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
        let st = StIndex::build(network.clone(), &dataset, &IndexConfig::default());
        (network, dataset, st)
    }

    #[test]
    fn meets_cases() {
        assert!(meets(&[1, 3, 5], [5, 7]));
        assert!(meets(&[1, 3, 5], [0, 1]));
        assert!(!meets(&[1, 3, 5], [2, 4, 6]));
        assert!(!meets(&[], [1]));
        assert!(!meets(&[], []));
        // Duplicates are fine — the inputs are sorted, not necessarily unique.
        assert!(meets(&[2, 2, 4], [1, 2, 2]));
    }

    #[test]
    fn start_segment_reaches_itself_with_full_probability_of_active_days() {
        let (_, dataset, st) = build();
        // Pick a (segment, time) straight out of the data so it is active.
        let traj = &dataset.trajectories()[0];
        let visit = traj.visits[0];
        let core = VerifierCore::new(&st, visit.segment, visit.enter_time_s, 600).unwrap();
        assert!(core.active_days() >= 1);
        let batch = core.probabilities(&[visit.segment]).unwrap();
        assert_eq!(batch.len(), 1);
        let p = batch[0];
        assert!(
            p > 0.0,
            "start segment must be reachable from itself on active days"
        );
        assert!(p <= 1.0);
        // Probability equals active days / m when the start segment is the target.
        assert!((p - core.active_days() as f64 / dataset.num_days() as f64).abs() < 1e-9);
    }

    #[test]
    fn unvisited_time_gives_zero_probability() {
        let (network, _, st) = build();
        let seg = network.segment_ids().next().unwrap();
        // 02:00: the tiny fleet does not operate, so no trajectory passes r0.
        let core = VerifierCore::new(&st, seg, 2 * 3600, 600).unwrap();
        assert_eq!(core.active_days(), 0);
        assert_eq!(core.probabilities(&[seg]).unwrap(), [0.0]);
    }

    #[test]
    fn probability_monotone_in_duration() {
        let (_, dataset, st) = build();
        let traj = &dataset.trajectories()[0];
        let start = traj.visits[0];
        // A segment the same trajectory visits a bit later.
        let later = traj.visits[traj.visits.len().min(8) - 1];
        let short = VerifierCore::new(&st, start.segment, start.enter_time_s, 120).unwrap();
        let long = VerifierCore::new(&st, start.segment, start.enter_time_s, 3600).unwrap();
        let p_short = short.probabilities(&[later.segment]).unwrap()[0];
        let p_long = long.probabilities(&[later.segment]).unwrap()[0];
        assert!(
            p_long >= p_short,
            "longer duration cannot lower the probability"
        );
        assert!(
            p_long > 0.0,
            "the trajectory itself reaches the later segment"
        );
    }

    #[test]
    fn nearby_segments_more_probable_than_far_ones() {
        let (network, _, st) = build();
        // Use the busiest segment at 09:00 as the start.
        let slot = crate::time::slot_of(9 * 3600, st.slot_s());
        let start = network
            .segment_ids()
            .max_by_key(|s| {
                st.time_list(*s, slot)
                    .unwrap()
                    .map(|l| l.num_observations())
                    .unwrap_or(0)
            })
            .unwrap();
        let core = VerifierCore::new(&st, start, 9 * 3600, 900).unwrap();
        let mut neighbors = network.successors(start).to_vec();
        neighbors.sort_unstable();
        neighbors.dedup();
        let neighbor_prob = core
            .probabilities(&neighbors)
            .unwrap()
            .into_iter()
            .fold(0.0, f64::max);
        // A far-away corner segment is very unlikely to be reached in 15 minutes.
        let bounds = network.bounds();
        let corner = network
            .nearest_segment(&streach_geo::GeoPoint::new(bounds.min_lon, bounds.min_lat))
            .unwrap()
            .0;
        let corner_prob = core.probabilities(&[corner]).unwrap()[0];
        assert!(
            neighbor_prob >= corner_prob,
            "neighbor {neighbor_prob} vs corner {corner_prob}"
        );
    }

    #[test]
    fn batch_answers_do_not_depend_on_its_split() {
        let (network, dataset, st) = build();
        let traj = &dataset.trajectories()[0];
        let visit = traj.visits[0];
        let core = VerifierCore::new(&st, visit.segment, visit.enter_time_s, 900).unwrap();
        let segments: Vec<SegmentId> = network.segment_ids().take(100).collect();
        let one = streach_par::with_worker_override(1, || core.probabilities(&segments)).unwrap();
        let two = streach_par::with_worker_override(2, || core.probabilities(&segments)).unwrap();
        assert_eq!(one, two);
        // Each answer equals the segment verified in a batch of its own.
        for (seg, p) in segments.iter().zip(&one) {
            assert_eq!(core.probabilities(&[*seg]).unwrap(), [*p], "segment {seg}");
        }
        assert!(core.probabilities(&[]).unwrap().is_empty());
    }

    /// An index over `num_days` days on which one trajectory a day drives
    /// `start` then its first successor at 09:00, on days `0..active_days`.
    fn active_on(num_days: u16, active_days: u16) -> (StIndex, SegmentId, SegmentId) {
        let city = SyntheticCity::generate(GeneratorConfig::small());
        let center = city.central_point();
        let network = Arc::new(city.network);
        let start = network.nearest_segment(&center).unwrap().0;
        let next = network.successors(start)[0];
        let trajectories = (0..active_days)
            .map(|date| MatchedTrajectory {
                traj_id: date as u32,
                date,
                visits: vec![
                    SegmentVisit {
                        segment: start,
                        enter_time_s: 9 * 3600 + 10,
                    },
                    SegmentVisit {
                        segment: next,
                        enter_time_s: 9 * 3600 + 60,
                    },
                ],
            })
            .collect();
        let dataset = TrajectoryDataset::from_matched(trajectories, 1, num_days);
        let st = StIndex::build(network, &dataset, &IndexConfig::default());
        (st, start, next)
    }

    #[test]
    fn a_start_decides_exactly_when_its_active_days_cannot_reach_prob() {
        // m = 15, Prob 0.2: 3 active days reach 3/15 = 0.2, 2 reach 2/15.
        let (st, start, next) = active_on(15, 3);
        let core = VerifierCore::new(&st, start, 9 * 3600, 600).unwrap();
        assert_eq!(core.active_days(), 3);
        assert!(!core.decided(0.2));
        let mut batch = vec![start, next];
        batch.sort_unstable();
        // The ceiling is tight: both segments score exactly 3/15 and pass.
        assert_eq!(core.probabilities(&batch).unwrap(), [0.2, 0.2]);
        assert_eq!(core.passing(&batch, 0.2).unwrap(), Some(batch.clone()));
        assert!(core.decided(0.25));
        assert_eq!(core.passing(&batch, 0.25).unwrap(), None);

        let (st, start, _) = active_on(15, 2);
        let core = VerifierCore::new(&st, start, 9 * 3600, 600).unwrap();
        assert_eq!(core.active_days(), 2);
        assert!(core.decided(0.2));
        assert_eq!(core.probabilities(&[start]).unwrap(), [2.0 / 15.0]);
        assert_eq!(core.passing(&[start], 0.2).unwrap(), None);
        assert!(!core.decided(2.0 / 15.0));
    }

    #[test]
    fn no_days_decide_every_query() {
        let (st, start, _) = active_on(0, 0);
        let core = VerifierCore::new(&st, start, 9 * 3600, 600).unwrap();
        for prob in [f64::MIN_POSITIVE, 0.2, 1.0] {
            assert!(core.decided(prob), "prob {prob}");
            assert_eq!(core.passing(&[start], prob).unwrap(), None);
        }
    }

    #[test]
    fn a_decided_batch_reads_nothing() {
        let (st, start, next) = active_on(15, 2);
        let core = VerifierCore::new(&st, start, 9 * 3600, 600).unwrap();
        let mut batch = vec![start, next];
        batch.sort_unstable();
        let before = st.io_snapshot();
        assert_eq!(core.passing(&batch, 0.2).unwrap(), None);
        assert_eq!(st.io_snapshot().delta_since(&before), Default::default());
        // The same batch below the ceiling reads its postings.
        assert!(core.passing(&batch, 0.1).unwrap().is_some());
        assert!(st.io_snapshot().delta_since(&before).bytes_decoded > 0);
    }

    // The batched-scan contract. The fleet drives around the clock, so the
    // slots on both sides of midnight hold postings, and its heap holds
    // blobs that straddle a page.

    fn around_the_clock(
        slot_s: u32,
    ) -> (
        Arc<streach_roadnet::RoadNetwork>,
        TrajectoryDataset,
        StIndex,
    ) {
        let city = SyntheticCity::generate(GeneratorConfig::small());
        let network = Arc::new(city.network);
        let dataset = TrajectoryDataset::simulate(
            &network,
            FleetConfig {
                num_taxis: 25,
                num_days: 4,
                day_start_s: 0,
                day_end_s: streach_traj::SECONDS_PER_DAY,
                seed: 99,
                ..FleetConfig::default()
            },
        );
        let config = IndexConfig {
            slot_s,
            ..IndexConfig::default()
        };
        let st = StIndex::build(network.clone(), &dataset, &config);
        let pin = st.pin();
        let straddlers = pin
            .directory()
            .directories()
            .unwrap()
            .into_iter()
            .flat_map(|dir| dir.entries())
            .filter(|(_, handle)| handle.pages_spanned() > 1)
            .count();
        assert!(
            straddlers > 0,
            "the heap must hold a blob straddling a page"
        );
        (network, dataset, st)
    }

    /// Points re-driving some trajectories of day 0 on the next day and
    /// again on day 0 under new IDs: ingested without compaction, they give
    /// pairs whose delta list overrides the base list.
    fn extra_day(dataset: &TrajectoryDataset) -> Vec<TrajPoint> {
        let next_day = dataset.num_days();
        let mut points = Vec::new();
        for traj in dataset
            .trajectories()
            .iter()
            .filter(|t| t.date == 0)
            .take(8)
        {
            for visit in &traj.visits {
                for (date, traj_id) in [(next_day, traj.traj_id), (0, traj.traj_id + 1_000_000)] {
                    points.push(TrajPoint {
                        traj_id,
                        date,
                        segment: visit.segment,
                        enter_time_s: visit.enter_time_s,
                    });
                }
            }
        }
        points
    }

    /// Visiting `segments` in `slot` as a batch yields exactly the
    /// (segment, bytes) pairs that reading them pair by pair does.
    fn assert_visit_matches_reads(
        st: &StIndex,
        pin: &PinnedState,
        segments: &[SegmentId],
        slot: u32,
    ) {
        let mut visited = Vec::new();
        st.visit_slot(pin, segments, slot, &mut Vec::new(), |i, bytes| {
            visited.push((segments[i], bytes.to_vec()));
            Ok(())
        })
        .unwrap();
        let mut read = Vec::new();
        let mut buf = Vec::new();
        for &segment in segments {
            if st.read_pinned(pin, segment, slot, &mut buf).unwrap() {
                read.push((segment, buf.clone()));
            }
        }
        assert_eq!(visited, read, "slot {slot}, batch of {}", segments.len());
    }

    fn batch_scan_matches_per_pair_reads(st: &StIndex, num_segments: u32, seed: u64) {
        let pin = st.pin();
        let mut draws = 0u64;
        for slot in 0..IndexConfig::default().slots_per_day() {
            let listed: Vec<SegmentId> = pin
                .directory()
                .get(slot)
                .unwrap()
                .entries()
                .map(|(segment, _)| segment)
                .collect();
            let mut batches = vec![Vec::new(), listed];
            // Seeded random sorted batches over the whole network: most of
            // their segments have no list in the slot.
            for density in [2u64, 8, 64] {
                let batch: Vec<SegmentId> = (0..num_segments)
                    .filter(|_| {
                        draws += 1;
                        mix(seed, draws).is_multiple_of(density)
                    })
                    .map(SegmentId)
                    .collect();
                batches.push(batch);
            }
            for batch in &batches {
                assert_visit_matches_reads(st, &pin, batch, slot);
            }
        }
    }

    #[test]
    fn batch_scan_yields_the_postings_of_per_pair_reads() {
        let (network, dataset, st) = around_the_clock(300);
        let num_segments = network.num_segments() as u32;
        batch_scan_matches_per_pair_reads(&st, num_segments, 36);

        st.apply_points(&extra_day(&dataset)).unwrap();
        st.raise_num_days(dataset.num_days() + 1);
        assert!(st.delta_stats().delta_lists > 0);
        batch_scan_matches_per_pair_reads(&st, num_segments, 37);
    }

    fn assert_matches_oracle(st: &StIndex, network: &streach_roadnet::RoadNetwork) {
        let segments: Vec<SegmentId> = network.segment_ids().collect();
        let center = network.bounds().center();
        let start = network.nearest_segment(&center).unwrap().0;
        // Morning windows of one and several slots, and one that wraps
        // midnight (23:55 + 10 min reads slots 287, 0 and 1).
        for (t, l) in [
            (9 * 3600, 300),
            (9 * 3600 + 120, 1500),
            (23 * 3600 + 3300, 600),
        ] {
            let naive = NaiveVerifier::new(st, start, t, l).unwrap();
            let expected: Vec<u64> = segments
                .iter()
                .map(|&s| naive.probability(s).unwrap().to_bits())
                .collect();
            assert!(
                expected.iter().any(|&p| p != 0),
                "T={t}: some segment is reachable"
            );
            // Segment-major, then build, then forward.
            for ask in 0..3 {
                let core = VerifierCore::new(st, start, t, l).unwrap();
                assert!(core.active_days() > 0, "T={t}: the start must be active");
                for workers in [1, 2] {
                    let got: Vec<u64> = streach_par::with_worker_override(workers, || {
                        core.probabilities(&segments)
                    })
                    .unwrap()
                    .into_iter()
                    .map(f64::to_bits)
                    .collect();
                    assert_eq!(got, expected, "T={t} L={l} workers={workers} ask {ask}");
                }
            }
        }
    }

    #[test]
    fn batch_scan_probabilities_match_the_oracle() {
        let (network, dataset, st) = around_the_clock(300);
        assert_matches_oracle(&st, &network);
        st.apply_points(&extra_day(&dataset)).unwrap();
        st.raise_num_days(dataset.num_days() + 1);
        assert_matches_oracle(&st, &network);
    }

    /// A slot's run of blobs covering at least three pages, and its
    /// entries.
    fn slot_over_three_pages(pin: &PinnedState) -> (u32, Vec<(SegmentId, BlobHandle)>) {
        let page_of = |offset: u64| offset / PAGE_SIZE as u64;
        pin.directory()
            .directories()
            .unwrap()
            .into_iter()
            .enumerate()
            .map(|(slot, dir)| (slot as u32, dir.entries().collect::<Vec<_>>()))
            .find(|(_, entries)| {
                entries.len() > 1 && {
                    let (first, last) = (entries[0].1, entries[entries.len() - 1].1);
                    page_of(last.offset + last.len as u64 - 1) >= page_of(first.offset) + 2
                }
            })
            .expect("a slot whose blobs span three pages")
    }

    /// A view build meeting a damaged page keeps no view and the slot is
    /// read segment-major, bit-identically when the batch's own blobs are
    /// intact; once the page reads cleanly again, the next touch builds.
    #[test]
    fn a_failed_view_build_is_not_kept_and_falls_back() {
        let (_, _, st) = around_the_clock(1800);
        let pin = st.pin();
        let (slot, entries) = slot_over_three_pages(&pin);
        let page_of = |offset: u64| offset / PAGE_SIZE as u64;
        let damaged = page_of(entries[0].1.offset) + 1;
        // The start and the batch: the entries wholly before the page.
        let batch: Vec<SegmentId> = entries
            .iter()
            .filter(|(_, h)| page_of(h.offset + h.len as u64 - 1) < damaged)
            .map(|(segment, _)| *segment)
            .collect();
        let ask = || {
            let core = VerifierCore::new(&st, batch[0], slot * st.slot_s(), st.slot_s()).unwrap();
            assert!(core.active_days() > 0);
            core.probabilities(&batch).unwrap()
        };
        let segment_major = ask();

        let store = pin.base_postings().store();
        let intact = store.read_page(damaged).unwrap();
        store.write_page(damaged, &Page::zeroed()).unwrap();
        st.clear_cache();
        assert_eq!(ask(), segment_major, "the fallback reads only intact blobs");
        assert_eq!(
            st.view_stats(),
            Default::default(),
            "a failed build kept a view"
        );

        store.write_page(damaged, &intact).unwrap();
        st.clear_cache();
        assert_eq!(ask(), segment_major);
        assert_eq!(st.view_stats().views_built, 1);
        assert_eq!(ask(), segment_major);
    }

    #[test]
    fn batch_scan_zeroed_page_mid_run_is_typed_corrupt() {
        // Half-hour slots: a slot's run of blobs covers several pages.
        let (_, _, st) = around_the_clock(1800);
        let pin = st.pin();
        // A slot whose run covers at least three pages; zero its second.
        let page_of = |offset: u64| offset / PAGE_SIZE as u64;
        let (slot, entries) = slot_over_three_pages(&pin);
        let zeroed = page_of(entries[0].1.offset) + 1;
        // The start segment's list lies wholly before the zeroed page.
        let (start, _) = entries
            .iter()
            .copied()
            .find(|(_, h)| page_of(h.offset + h.len as u64 - 1) < zeroed)
            .expect("an entry before the zeroed page");
        pin.base_postings()
            .store()
            .write_page(zeroed, &Page::zeroed())
            .unwrap();
        st.clear_cache();

        let segments: Vec<SegmentId> = entries.iter().map(|(segment, _)| *segment).collect();
        // What per-pair reads of the damaged heap reject: the first one
        // names the segment the batch must fail on.
        let mut buf = Vec::new();
        let rejected: Vec<SegmentId> = segments
            .iter()
            .copied()
            .filter(|&segment| {
                assert!(st.read_pinned(&pin, segment, slot, &mut buf).unwrap());
                !visit_posting(&buf, |_, _| {})
            })
            .collect();
        assert!(
            !rejected.is_empty(),
            "a blob inside the zeroed page is rejected"
        );

        let core = VerifierCore::new(&st, start, slot * st.slot_s(), st.slot_s()).unwrap();
        assert!(core.active_days() > 0);
        for workers in [1, 2] {
            let err = streach_par::with_worker_override(workers, || core.probabilities(&segments))
                .expect_err("a zeroed page must not yield an answer");
            assert!(matches!(err, StorageError::Corrupt { .. }), "{err:?}");
            let named = rejected
                .iter()
                .map(|&segment| st.malformed_posting(segment, slot).to_string())
                .position(|expected| expected == err.to_string());
            match workers {
                1 => assert_eq!(named, Some(0), "{err}"),
                _ => assert!(named.is_some(), "{err}"),
            }
        }
    }
}
