//! Sealing a base: the build encodes every slot from the dataset, a
//! compaction merges every slot of the old base with the delta tail, and
//! both write the encoded slots through [`seal`], so a compacted base is
//! byte-identical to a from-scratch build on the combined data by
//! construction.

use std::sync::atomic::{AtomicU16, AtomicU64};
use std::sync::Arc;

use parking_lot::RwLock;
use streach_roadnet::{RoadNetwork, SegmentId};
use streach_storage::{InMemoryPageStore, PostingWriter, StorageResult};
use streach_traj::{MatchedTrajectory, TrajectoryDataset};

use super::delta::{DeltaStats, DeltaTail};
use super::directory::{oversized_slot, SlotDirectory, TemporalIndex};
use super::{slots_per_day, IndexState, SealedBase, StIndex, StIndexStore};
use crate::config::IndexConfig;
use crate::time::slot_of;

/// One slot's time lists, encoded back to back in segment order.
#[derive(Default)]
struct EncodedSlot {
    /// The blobs of the slot, concatenated.
    blobs: Vec<u8>,
    /// The slot's segments, ascending.
    segments: Vec<SegmentId>,
    /// `ends[i]`: end of `segments[i]`'s blob in `blobs`.
    ends: Vec<u32>,
}

impl EncodedSlot {
    /// Ends the blob appended to `blobs` since the last entry as the list
    /// of `segment`, which exceeds every segment already in the slot.
    /// `None` when the slot's blobs would span more than `u32::MAX` bytes.
    fn close(&mut self, segment: SegmentId) -> Option<()> {
        self.ends.push(u32::try_from(self.blobs.len()).ok()?);
        self.segments.push(segment);
        Some(())
    }

    /// Appends `segment`'s encoded list, as [`EncodedSlot::close`].
    fn push(&mut self, segment: SegmentId, list: &[u8]) -> Option<()> {
        self.blobs.extend_from_slice(list);
        self.close(segment)
    }
}

/// Encodes one slot's (segment, date, trajectory) observations, given in
/// `parts` in (date, trajectory) order: a stable counting sort groups them
/// by segment, and each group is encoded straight from its run, a repeated
/// observation dropped. The bytes are the ones
/// [`TimeList::encode`](streach_storage::TimeList::encode) gives each
/// group's list, with no list built.
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
    let mut slot = EncodedSlot::default();
    for (segment, group) in starts.windows(2).enumerate() {
        let group = &grouped[group[0] as usize..group[1] as usize];
        if group.is_empty() {
            continue;
        }
        streach_storage::encode_sorted(group, |&pair| pair, &mut slot.blobs);
        slot.close(SegmentId(segment as u32))
            .expect("one slot's time lists span at most 4 GiB");
    }
    slot
}

/// Merges the old base's lists of `slot` with the delta tail's through the
/// slot walker the view builds use ([`SealedBase::walk_slot`]): where the
/// delta has a list it wins, as on the read path.
fn merge_slot(state: &IndexState, slot: u32, buf: &mut Vec<u8>) -> StorageResult<EncodedSlot> {
    let mut out = EncodedSlot::default();
    let delta = state.delta.slot_lists(slot);
    state.base.walk_slot(slot, &delta, buf, |segment, list| {
        out.push(segment, list).ok_or_else(|| oversized_slot(slot))
    })?;
    Ok(out)
}

/// Writes one encoded slot per slot of the day to a fresh heap on `store`,
/// slot by slot (the clustered (slot, segment) layout), and seals it under
/// its temporal directory: the one writer of a sealed base. On `Err` (a
/// page write fault) nothing is sealed.
fn seal(
    slots: Vec<EncodedSlot>,
    store: StIndexStore,
    pool_pages: usize,
    read_retries: u32,
) -> StorageResult<SealedBase> {
    let mut writer = PostingWriter::new(store);
    let mut directories = Vec::with_capacity(slots.len());
    for slot in slots {
        directories.push(if slot.segments.is_empty() {
            SlotDirectory::default()
        } else {
            let run = writer.push(&slot.blobs)?;
            SlotDirectory::new(run.offset, slot.segments, slot.ends)
        });
    }
    let postings = writer.finish(pool_pages, read_retries)?;
    Ok(SealedBase {
        temporal: TemporalIndex::built(directories),
        postings,
    })
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
        let num_time_lists = slots.iter().map(|slot| slot.segments.len() as u64).sum();

        let store: StIndexStore = Box::new(InMemoryPageStore::new());
        let base = seal(slots, store, config.pool_pages, config.read_retries)
            .expect("in-memory posting store cannot fail");
        // Index construction is not part of any timed experiment; reset the
        // I/O counters so queries start from zero.
        base.postings.io_stats().reset();

        Self {
            network,
            slot_s,
            num_days: AtomicU16::new(dataset.num_days()),
            state: RwLock::new(Arc::new(IndexState {
                base,
                delta: DeltaTail::empty(num_slots),
            })),
            num_time_lists: AtomicU64::new(num_time_lists),
            num_observations: AtomicU64::new(num_observations),
        }
    }

    /// Folds the delta tail into a **new sealed base**: per slot, in
    /// parallel, the old base's lists and the delta's are merged in segment
    /// order (a delta list overriding its base list), and the merged slots
    /// are sealed into a fresh in-memory heap through the writer
    /// [`StIndex::build`] uses, so post-compaction queries and snapshots
    /// are bit-exact with a from-scratch rebuild on the combined data. The
    /// delta is emptied. The number of time lists does not change: every
    /// delta list a pair gained without a base list was counted when it was
    /// ingested.
    ///
    /// On `Err` (a read fault while merging, or a slot whose blobs would
    /// span more than 4 GiB) no heap is sealed and the index is left
    /// untouched: the old base keeps serving and the compaction is
    /// retryable.
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
        let slot_ids: Vec<u32> = (0..state.base.temporal.len() as u32).collect();
        let slots = streach_par::try_par_map_with(&slot_ids, Vec::new, |buf, &slot| {
            merge_slot(&state, slot, buf)
        })?;

        let postings = &state.base.postings;
        let store: StIndexStore = Box::new(InMemoryPageStore::with_stats(postings.io_stats()));
        let base = seal(
            slots,
            store,
            postings.pool_capacity(),
            postings.read_retries(),
        )?;

        // Publish: one pointer swap. Readers in flight finish on the old
        // state (kept alive by their pinned `Arc`s); new readers see the
        // fresh sealed base and an empty delta tail.
        *self.state.write() = Arc::new(IndexState {
            base,
            delta: DeltaTail::empty(slot_ids.len()),
        });
        Ok(folded)
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use super::*;
    use streach_roadnet::{GeneratorConfig, SyntheticCity};
    use streach_storage::{PageStore, PostingStore, TimeList};
    use streach_traj::FleetConfig;

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
        let num_slots = slots_per_day(config.slot_s);
        let mut directory = vec![SlotDirectory::default(); num_slots];
        for slot in obs.chunk_by(|a, b| a.0 == b.0) {
            let (mut first, mut segments, mut ends) = (None, Vec::new(), Vec::new());
            for group in slot.chunk_by(|a, b| a.1 == b.1) {
                let mut list = TimeList::new();
                for &(_, _, date, id) in group {
                    list.add(date, id);
                }
                let handle = oracle.push(&list.encode()).unwrap();
                let first = *first.get_or_insert(handle.offset);
                segments.push(SegmentId(group[0].1));
                ends.push((handle.offset + handle.len as u64 - first) as u32);
            }
            directory[slot[0].0 as usize] = SlotDirectory::new(first.unwrap(), segments, ends);
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
}
