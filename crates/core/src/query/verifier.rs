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
//! Con-Index pruning tries to minimise. Because a query verifies hundreds of
//! candidate segments, this module is built for a *zero-allocation steady
//! state*:
//!
//! * [`VerifierCore`] holds everything immutable per query: the start
//!   segment's trajectory IDs as a **day-indexed** table (`Vec` indexed by
//!   `date as usize`, each day pre-sorted and deduplicated at construction),
//!   plus the window's slot range, and the index view pinned once for the
//!   whole query ([`PostingSource::pin`]). It is freely shared across
//!   threads, and its reads write no index-wide shared state.
//! * [`VerifierScratch`] holds the per-worker mutable state: a day-indexed
//!   candidate-ID table, the list of days touched by the current call, and
//!   the raw posting byte buffer. All of it is recycled between calls, so
//!   after the first few verifications a `probability` call performs **no
//!   heap allocation** — postings are copied into the reusable byte buffer
//!   via [`PostingSource::read_pinned`] and decoded in place with
//!   [`streach_storage::visit_posting`].
//!
//! [`ReachabilityVerifier`] bundles one core with one scratch for the
//! sequential call sites; parallel call sites share one core across workers
//! and give each worker its own scratch (see `streach_par::par_map_with`).

use std::sync::Arc;

use streach_roadnet::SegmentId;
use streach_storage::{visit_posting, IoStats, IoStatsSnapshot, StorageError, StorageResult};

use crate::st_index::StIndex;
use crate::time::slots_overlapping;

/// The read-side surface the verifiers need from a posting index.
///
/// This is exactly the set of [`StIndex`] methods the verification hot path
/// touches — nothing about building, ingest, or compaction. [`StIndex`] is
/// the canonical implementation; a sharded deployment implements it with a
/// router that resolves each `(segment, slot)` read against the shard (and
/// replica) owning that segment, so the zero-allocation verify loop is
/// oblivious to the topology behind it.
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

    /// Copies the encoded time list for `(segment, slot)` as seen by `pin`
    /// into `buf`. Returns `Ok(false)` when no posting exists for the pair.
    fn read_pinned(
        &self,
        pin: &Self::Pin,
        segment: SegmentId,
        slot: u32,
        buf: &mut Vec<u8>,
    ) -> StorageResult<bool>;

    /// The typed error describing a structurally invalid posting at
    /// `(segment, slot)`.
    fn malformed_posting(&self, segment: SegmentId, slot: u32) -> StorageError;
}

/// The immutable, shareable half of a verifier: one (start segment, T, Δt, L)
/// combination.
pub struct VerifierCore<'a, I: PostingSource + ?Sized = StIndex> {
    st_index: &'a I,
    /// The view every read of this core goes through, pinned once at
    /// construction (see [`PostingSource`]).
    pin: I::Pin,
    /// Trajectory IDs that passed the start segment during `[T, T + Δt)`,
    /// indexed by date (sorted + deduplicated; empty = day inactive).
    start_ids: Vec<Vec<u32>>,
    /// Number of days with a non-empty start list.
    active_days: usize,
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
}

/// The reusable per-worker mutable half of a verifier.
///
/// All buffers grow to their high-water mark and are then recycled: clearing
/// a `Vec` keeps its capacity, and only the days touched by the previous call
/// are cleared (tracked in `touched`), so reset cost is proportional to the
/// work actually done.
#[derive(Default)]
pub struct VerifierScratch {
    /// Candidate segment's trajectory IDs, indexed by date.
    target_ids: Vec<Vec<u32>>,
    /// Days with a non-empty `target_ids` entry in the current call.
    touched: Vec<u16>,
    /// Raw encoded time-list bytes of the posting being visited.
    bytes: Vec<u8>,
    /// Number of probability evaluations performed with this scratch.
    pub verifications: usize,
}

impl VerifierScratch {
    /// Creates an empty scratch; buffers are sized lazily on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Returns `true` if the two sorted slices share an element (duplicates are
/// permitted; order is what matters).
fn sorted_intersects(a: &[u32], b: &[u32]) -> bool {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => return true,
        }
    }
    false
}

impl<'a, I: PostingSource + ?Sized> VerifierCore<'a, I> {
    /// Builds the shared core for queries starting from `start_segment` at
    /// time `start_time_s`, with query duration `duration_s`.
    ///
    /// `Tr(r0, T0, d)` is extracted once here (T0 = `[T, T + Δt)`), which is
    /// the first step of the trace back search. The start segment's posting
    /// reads are real page I/O, so construction is fallible: a disk fault or
    /// malformed posting surfaces as `Err` instead of aborting the process.
    ///
    /// The index view is pinned here, once: this read and every later
    /// [`VerifierCore::probability`] read the same (base, delta) pair, even
    /// across a concurrent compaction (see [`PostingSource`]).
    pub fn new(
        st_index: &'a I,
        start_segment: SegmentId,
        start_time_s: u32,
        duration_s: u32,
    ) -> StorageResult<Self> {
        let slot_s = st_index.slot_s();
        let num_days = st_index.num_days();
        // Windows wrap past midnight instead of clamping: the bounding phase
        // (SQMB / Con-Index) has always used modular slot arithmetic, and the
        // verifier must read exactly the slots the bounds were computed over.
        let t0_end = start_time_s.saturating_add(slot_s);
        let end = start_time_s.saturating_add(duration_s);

        let io = st_index.io_stats();
        let pin = st_index.pin();
        let mut start_ids: Vec<Vec<u32>> = vec![Vec::new(); num_days as usize];
        let mut bytes = Vec::new();
        for slot in slots_overlapping(start_time_s, t0_end, slot_s) {
            if st_index.read_pinned(&pin, start_segment, slot, &mut bytes)? {
                let (mut dates, mut ids_seen) = (0u64, 0u64);
                let well_formed = visit_posting(&bytes, |date, ids| {
                    dates += 1;
                    ids_seen += ids.len() as u64;
                    if let Some(day) = start_ids.get_mut(date as usize) {
                        day.extend(ids);
                    }
                });
                if !well_formed {
                    return Err(st_index.malformed_posting(start_segment, slot));
                }
                io.record_posting_decode(4 + dates * 6 + ids_seen * 4, bytes.len() as u64);
            }
        }
        let mut active_days = 0;
        for day in &mut start_ids {
            if !day.is_empty() {
                day.sort_unstable();
                day.dedup();
                active_days += 1;
            }
        }

        Ok(Self {
            st_index,
            pin,
            start_ids,
            active_days,
            window_slots: slots_overlapping(start_time_s, end, slot_s),
            window: (start_time_s, end),
            num_days,
            io,
        })
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

    /// The reachable probability `probability(r, r0)` of Eq. 3.1.
    ///
    /// Steady-state calls perform no heap allocation: posting bytes land in
    /// `scratch.bytes`, per-day candidate IDs accumulate in the recycled
    /// day-indexed table, and the intersection test runs over sorted slices.
    ///
    /// Every call reads postings, so the result is a [`StorageResult`]: a
    /// disk fault (`EIO`, truncation after open) or a structurally invalid
    /// posting (torn/zeroed page) is reported as `Err` — never a panic, and
    /// never a silently wrong probability computed from a partial read.
    pub fn probability(
        &self,
        scratch: &mut VerifierScratch,
        segment: SegmentId,
    ) -> StorageResult<f64> {
        scratch.verifications += 1;
        if self.num_days == 0 || self.active_days == 0 {
            return Ok(0.0);
        }
        // Recycle the scratch table: clear only the previously touched days.
        if scratch.target_ids.len() < self.num_days as usize {
            scratch
                .target_ids
                .resize_with(self.num_days as usize, Vec::new);
        }
        for &day in &scratch.touched {
            scratch.target_ids[day as usize].clear();
        }
        scratch.touched.clear();

        // One posting read per (segment, slot) of the window; each entry's
        // IDs go straight into the day bucket. Days on which the start
        // segment saw no trajectory cannot contribute to m* and are skipped
        // before any copying happens.
        let touched = &mut scratch.touched;
        let target_ids = &mut scratch.target_ids;
        for slot in self.window_slots.clone() {
            if self
                .st_index
                .read_pinned(&self.pin, segment, slot, &mut scratch.bytes)?
            {
                let (mut dates, mut ids_seen) = (0u64, 0u64);
                let well_formed = visit_posting(&scratch.bytes, |date, ids| {
                    dates += 1;
                    ids_seen += ids.len() as u64;
                    let day = date as usize;
                    if day < self.start_ids.len() && !self.start_ids[day].is_empty() {
                        let bucket = &mut target_ids[day];
                        if bucket.is_empty() {
                            touched.push(date);
                        }
                        bucket.extend(ids);
                    }
                });
                if !well_formed {
                    return Err(self.st_index.malformed_posting(segment, slot));
                }
                self.io.record_posting_decode(
                    4 + dates * 6 + ids_seen * 4,
                    scratch.bytes.len() as u64,
                );
            }
        }
        if scratch.touched.is_empty() {
            return Ok(0.0);
        }

        let mut matching_days = 0u32;
        for &date in &scratch.touched {
            let bucket = &mut scratch.target_ids[date as usize];
            // A single slot contributes a sorted run; multi-slot windows can
            // interleave runs, so restore sortedness only when violated.
            // (`sorted_intersects` tolerates duplicates, so no dedup needed.)
            if !bucket.is_sorted() {
                bucket.sort_unstable();
            }
            if sorted_intersects(&self.start_ids[date as usize], bucket) {
                matching_days += 1;
            }
        }
        Ok(matching_days as f64 / self.num_days as f64)
    }

    /// Convenience: `probability(segment) >= prob`.
    pub fn is_reachable(
        &self,
        scratch: &mut VerifierScratch,
        segment: SegmentId,
        prob: f64,
    ) -> StorageResult<bool> {
        Ok(self.probability(scratch, segment)? >= prob)
    }
}

/// A reusable verifier for one (start segment, T, Δt, L) combination:
/// a [`VerifierCore`] bundled with one [`VerifierScratch`] for sequential
/// call sites.
pub struct ReachabilityVerifier<'a, I: PostingSource + ?Sized = StIndex> {
    core: VerifierCore<'a, I>,
    scratch: VerifierScratch,
}

impl<'a, I: PostingSource + ?Sized> ReachabilityVerifier<'a, I> {
    /// Builds a verifier for queries starting from `start_segment` at time
    /// `start_time_s`, with query duration `duration_s`. Fallible for the
    /// same reason [`VerifierCore::new`] is: the start segment's postings
    /// are read here.
    pub fn new(
        st_index: &'a I,
        start_segment: SegmentId,
        start_time_s: u32,
        duration_s: u32,
    ) -> StorageResult<Self> {
        Ok(Self {
            core: VerifierCore::new(st_index, start_segment, start_time_s, duration_s)?,
            scratch: VerifierScratch::new(),
        })
    }

    /// The shareable immutable half (for parallel verification, pair it with
    /// one [`VerifierScratch`] per worker).
    pub fn core(&self) -> &VerifierCore<'a, I> {
        &self.core
    }

    /// Number of days on which at least one trajectory passed the start
    /// segment during `[T, T + Δt)`.
    pub fn active_days(&self) -> usize {
        self.core.active_days()
    }

    /// Number of probability evaluations performed.
    pub fn verifications(&self) -> usize {
        self.scratch.verifications
    }

    /// The reachable probability `probability(r, r0)` of Eq. 3.1.
    pub fn probability(&mut self, segment: SegmentId) -> StorageResult<f64> {
        self.core.probability(&mut self.scratch, segment)
    }

    /// Convenience: `probability(segment) >= prob`.
    pub fn is_reachable(&mut self, segment: SegmentId, prob: f64) -> StorageResult<bool> {
        Ok(self.probability(segment)? >= prob)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::IndexConfig;
    use std::sync::Arc;
    use streach_roadnet::{GeneratorConfig, SyntheticCity};
    use streach_traj::{FleetConfig, TrajectoryDataset};

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
        let st = StIndex::build(
            network.clone(),
            &dataset,
            &IndexConfig {
                read_latency_us: 0,
                ..Default::default()
            },
        );
        (network, dataset, st)
    }

    #[test]
    fn sorted_intersects_cases() {
        assert!(sorted_intersects(&[1, 3, 5], &[5, 7]));
        assert!(sorted_intersects(&[1, 3, 5], &[0, 1]));
        assert!(!sorted_intersects(&[1, 3, 5], &[2, 4, 6]));
        assert!(!sorted_intersects(&[], &[1]));
        assert!(!sorted_intersects(&[], &[]));
        // Duplicates are fine — the inputs are sorted, not necessarily unique.
        assert!(sorted_intersects(&[2, 2, 4], &[1, 2, 2]));
    }

    #[test]
    fn start_segment_reaches_itself_with_full_probability_of_active_days() {
        let (_, dataset, st) = build();
        // Pick a (segment, time) straight out of the data so it is active.
        let traj = &dataset.trajectories()[0];
        let visit = traj.visits[0];
        let mut v = ReachabilityVerifier::new(&st, visit.segment, visit.enter_time_s, 600).unwrap();
        assert!(v.active_days() >= 1);
        let p = v.probability(visit.segment).unwrap();
        assert!(
            p > 0.0,
            "start segment must be reachable from itself on active days"
        );
        assert_eq!(v.verifications(), 1);
        assert!(p <= 1.0);
        // Probability equals active days / m when the start segment is the target.
        assert!((p - v.active_days() as f64 / dataset.num_days() as f64).abs() < 1e-9);
    }

    #[test]
    fn unvisited_time_gives_zero_probability() {
        let (network, _, st) = build();
        let seg = network.segment_ids().next().unwrap();
        // 02:00: the tiny fleet does not operate, so no trajectory passes r0.
        let mut v = ReachabilityVerifier::new(&st, seg, 2 * 3600, 600).unwrap();
        assert_eq!(v.active_days(), 0);
        assert_eq!(v.probability(seg).unwrap(), 0.0);
    }

    #[test]
    fn probability_monotone_in_duration() {
        let (_, dataset, st) = build();
        let traj = &dataset.trajectories()[0];
        let start = traj.visits[0];
        // A segment the same trajectory visits a bit later.
        let later = traj.visits[traj.visits.len().min(8) - 1];
        let mut short =
            ReachabilityVerifier::new(&st, start.segment, start.enter_time_s, 120).unwrap();
        let mut long =
            ReachabilityVerifier::new(&st, start.segment, start.enter_time_s, 3600).unwrap();
        let p_short = short.probability(later.segment).unwrap();
        let p_long = long.probability(later.segment).unwrap();
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
        let (network, dataset, st) = build();
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
        let mut v = ReachabilityVerifier::new(&st, start, 9 * 3600, 900).unwrap();
        let neighbor_prob: f64 = network
            .successors(start)
            .iter()
            .map(|s| v.probability(*s).unwrap())
            .fold(0.0, f64::max);
        // A far-away corner segment is very unlikely to be reached in 15 minutes.
        let bounds = network.bounds();
        let corner = network
            .nearest_segment(&streach_geo::GeoPoint::new(bounds.min_lon, bounds.min_lat))
            .unwrap()
            .0;
        let corner_prob = v.probability(corner).unwrap();
        assert!(
            neighbor_prob >= corner_prob,
            "neighbor {neighbor_prob} vs corner {corner_prob}"
        );
        let _ = dataset;
    }

    #[test]
    fn shared_core_gives_identical_answers_across_scratches() {
        let (network, dataset, st) = build();
        let traj = &dataset.trajectories()[0];
        let visit = traj.visits[0];
        let core = VerifierCore::new(&st, visit.segment, visit.enter_time_s, 900).unwrap();
        let mut a = VerifierScratch::new();
        let mut b = VerifierScratch::new();
        for seg in network.segment_ids().take(100) {
            let pa = core.probability(&mut a, seg).unwrap();
            let pb = core.probability(&mut b, seg).unwrap();
            assert_eq!(pa, pb, "segment {seg}");
        }
        // Interleaved reuse of one scratch matches a fresh scratch per call.
        for seg in network.segment_ids().take(50) {
            let fresh = core.probability(&mut VerifierScratch::new(), seg).unwrap();
            let reused = core.probability(&mut a, seg).unwrap();
            assert_eq!(fresh, reused, "segment {seg}");
        }
    }
}
