//! The Connection Index (Con-Index).
//!
//! "The basic idea is to use the historical trajectory data to build a
//! connection table for each road segment and record the lower and upper
//! bound of its reachable road segments based on our temporal granularity.
//! In particular, each road segment with different temporal granularity is
//! associated with: 1) Near ID list (lower bound range) and 2) Far ID list
//! (upper bound range) indicating the nearest (farthest) road segments that
//! could be arrived at within the given time slot." (Section 3.2.2)
//!
//! The lists of one Δt slot come from running the network-expansion
//! algorithm with the historical **minimum** observed speed (Near list) and
//! the historical **maximum** observed speed (Far list) of every segment.
//!
//! # Memory model
//!
//! The paper builds the full Con-Index offline over a 194 GB dataset; its
//! queries then *hop* through the stored lists: `B ← ⋃_{r∈B} Far(r, slot)`.
//! Because `Far(r, slot)` is defined as what one bounded expansion from `r`
//! reaches, that union is by definition what a single **multi-source**
//! expansion from `B` reaches (the floating-point argument is on
//! [`DijkstraWorkspace::expand_within_time`]). The query path therefore
//! stores nothing: a bounding pass pins one version of the
//! speed statistics and evaluates every hop directly on the calling
//! thread's dense workspace, in time proportional to the segments the hop
//! touches. Nothing has to be warmed before a query, invalidated by
//! ingest, shared between server workers or carried through a checkpoint.
//!
//! Materialised per-slot tables ([`SlotTable`], [`ConIndex::slot_table`],
//! [`ConIndex::build_slots`]) remain, in memory only, for inspection, for
//! the literal Algorithm 1/3 oracle in [`crate::query::reference`] and for
//! the benchmark's probes; they are never persisted, and are built on demand through the same hop primitive, cached up to
//! [`IndexConfig::max_cached_con_slots`](crate::config::IndexConfig) and
//! dropped when ingest touches their slot. No query, serving, subscription
//! or router path reads or builds one.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};
use streach_roadnet::{with_thread_workspace, DijkstraWorkspace, RoadNetwork, SegmentId};

use crate::config::IndexConfig;
use crate::speed_stats::SpeedStats;

/// The Near and Far ID lists of one road segment in one time slot.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ConnectionLists {
    /// Segments reachable within one Δt at the minimum historical speed
    /// (lower bound), excluding the segment itself, sorted by ID.
    pub near: Vec<SegmentId>,
    /// Segments reachable within one Δt at the maximum historical speed
    /// (upper bound), excluding the segment itself, sorted by ID.
    pub far: Vec<SegmentId>,
}

/// The connection table of one time slot: one [`ConnectionLists`] per
/// segment, indexed by segment ID.
pub struct SlotTable {
    slot: u32,
    lists: Vec<ConnectionLists>,
}

impl SlotTable {
    /// The slot this table describes.
    pub fn slot(&self) -> u32 {
        self.slot
    }

    /// Far ID list (upper bound) of a segment.
    pub fn far(&self, segment: SegmentId) -> &[SegmentId] {
        &self.lists[segment.index()].far
    }

    /// Near ID list (lower bound) of a segment.
    pub fn near(&self, segment: SegmentId) -> &[SegmentId] {
        &self.lists[segment.index()].near
    }

    /// Both lists of a segment.
    pub fn lists(&self, segment: SegmentId) -> &ConnectionLists {
        &self.lists[segment.index()]
    }

    /// Total number of IDs stored in this table.
    pub fn total_entries(&self) -> usize {
        self.lists.iter().map(|l| l.near.len() + l.far.len()).sum()
    }
}

struct Cache {
    tables: HashMap<u32, Arc<SlotTable>>,
    /// Most recently used at the back.
    lru: Vec<u32>,
    built: u64,
    evicted: u64,
}

/// One bounding pass over the Con-Index: a single pinned version of the
/// speed statistics plus the calling thread's expansion workspace, so every
/// hop of the pass sees the same speeds even while ingest publishes newer
/// ones. Obtained from [`ConIndex::bounding_pass`].
pub(crate) struct BoundingPass<'a> {
    con: &'a ConIndex,
    stats: &'a SpeedStats,
    ws: &'a mut DijkstraWorkspace,
}

impl BoundingPass<'_> {
    /// One Con-Index hop: `sources ∪ ⋃_{r∈sources} Far(r, slot)` (Near
    /// lists when `use_far` is false), evaluated as one multi-source
    /// expansion over Δt at the slot's maximum (minimum) speeds. Yields
    /// every reached segment exactly once, sources included.
    pub(crate) fn hop<'s>(
        &'s mut self,
        sources: &[SegmentId],
        slot: u32,
        use_far: bool,
    ) -> impl Iterator<Item = SegmentId> + 's {
        let BoundingPass { con, stats, .. } = *self;
        let network: &RoadNetwork = &con.network;
        let budget = con.slot_s as f64;
        if use_far {
            self.ws.expand_within_time(network, sources, budget, |s| {
                stats.max_speed_ms(network, s, slot)
            });
        } else {
            self.ws.expand_within_time(network, sources, budget, |s| {
                stats.min_speed_ms(network, s, slot, con.fallback_min_speed_ms)
            });
        }
        self.ws.settled().map(|(seg, _)| seg)
    }
}

/// The Con-Index.
pub struct ConIndex {
    network: Arc<RoadNetwork>,
    /// The historical speed statistics the hops derive from. Behind a
    /// copy-on-write `RwLock<Arc<..>>` so streaming ingest can fold new
    /// observations in while an in-flight bounding pass or table build
    /// keeps reading its own consistent version.
    speed_stats: RwLock<Arc<SpeedStats>>,
    /// Bumped on every statistics update; a table built against an older
    /// version is served to its in-flight query but never cached, so an
    /// ingest racing a table build cannot pin stale Near/Far lists.
    stats_version: std::sync::atomic::AtomicU64,
    slot_s: u32,
    slots_per_day: u32,
    fallback_min_speed_ms: f64,
    max_cached_slots: usize,
    cache: Mutex<Cache>,
}

/// Size/construction statistics of the Con-Index cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConIndexStats {
    /// Number of slot tables currently resident.
    pub cached_slots: usize,
    /// Number of slot tables built since creation.
    pub slots_built: u64,
    /// Number of slot tables evicted since creation.
    pub slots_evicted: u64,
}

impl ConIndex {
    /// Creates a Con-Index over the network using the given historical speed
    /// statistics. Nothing is precomputed: queries evaluate their hops
    /// directly, and tables are materialised only when asked for.
    pub fn new(
        network: Arc<RoadNetwork>,
        speed_stats: Arc<SpeedStats>,
        config: &IndexConfig,
    ) -> Self {
        assert_eq!(
            speed_stats.slot_s(),
            config.slot_s,
            "speed statistics must use the same Δt as the Con-Index"
        );
        Self {
            network,
            speed_stats: RwLock::new(speed_stats),
            stats_version: std::sync::atomic::AtomicU64::new(0),
            slot_s: config.slot_s,
            slots_per_day: config.slots_per_day(),
            fallback_min_speed_ms: config.fallback_min_speed_ms,
            max_cached_slots: config.max_cached_con_slots.max(1),
            cache: Mutex::new(Cache {
                tables: HashMap::new(),
                lru: Vec::new(),
                built: 0,
                evicted: 0,
            }),
        }
    }

    /// The temporal granularity Δt in seconds.
    pub fn slot_s(&self) -> u32 {
        self.slot_s
    }

    /// Runs `f` with a [`BoundingPass`] over the current speed statistics
    /// and the calling thread's workspace. Must not be nested inside another
    /// [`with_thread_workspace`] borrow (it would panic, not misbehave).
    pub(crate) fn bounding_pass<R>(&self, f: impl FnOnce(&mut BoundingPass<'_>) -> R) -> R {
        let stats = self.speed_stats();
        with_thread_workspace(|ws| {
            f(&mut BoundingPass {
                con: self,
                stats: &stats,
                ws,
            })
        })
    }

    /// The historical speed statistics the hops are derived from (the
    /// current version; ingest may publish a newer one later).
    pub(crate) fn speed_stats(&self) -> Arc<SpeedStats> {
        Arc::clone(&self.speed_stats.read())
    }

    /// Number of (segment, slot, trajectory) speed observations currently
    /// folded into the statistics — batch-built plus ingested. Two engines
    /// over the same logical dataset must agree on this count, which makes
    /// it the cheap outside probe for ingest/rebuild equivalence of the
    /// speed pipeline on the fault-free path. After a mid-ingest storage
    /// failure, at-least-once replay may re-apply a record: the min/max
    /// data converges (idempotent), but this counter can over-count the
    /// re-applied observations.
    pub fn speed_observations(&self) -> u64 {
        self.speed_stats.read().num_observations()
    }

    /// Folds new consecutive-visit pairs into the speed statistics
    /// (copy-on-write; see [`SpeedStats::observe_pair`]) and — when at
    /// least one pair produced a valid observation — drops the cached
    /// connection tables of exactly the slots the pairs touch: a speed
    /// observation for slot `s` only changes that slot's statistics cells,
    /// so other slots' Near/Far lists stay valid and continuous streaming
    /// ingest does not flatten the whole table cache. Returns the number
    /// of valid observations.
    pub(crate) fn apply_speed_pairs(
        &self,
        network: &RoadNetwork,
        pairs: &[(SegmentId, u32, u32)],
    ) -> usize {
        if pairs.is_empty() {
            return 0;
        }
        let observed = {
            let mut guard = self.speed_stats.write();
            let stats = Arc::make_mut(&mut guard);
            pairs
                .iter()
                .filter(|(segment, enter, next_enter)| {
                    stats.observe_pair(network, *segment, *enter, *next_enter)
                })
                .count()
        };
        if observed > 0 {
            let mut touched: Vec<u32> = pairs
                .iter()
                .map(|(_, enter, _)| crate::time::slot_of(*enter, self.slot_s))
                .collect();
            touched.sort_unstable();
            touched.dedup();
            // Bump the version and drop the stale tables under the cache
            // lock, so a concurrent `slot_table` build that started
            // against the old statistics observes the bump and skips
            // caching.
            let mut cache = self.cache.lock();
            self.stats_version
                .fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            for slot in touched {
                if cache.tables.remove(&slot).is_some() {
                    cache.lru.retain(|s| *s != slot);
                    cache.evicted += 1;
                }
            }
        }
        observed
    }

    /// Cache statistics.
    pub fn stats(&self) -> ConIndexStats {
        let cache = self.cache.lock();
        ConIndexStats {
            cached_slots: cache.tables.len(),
            slots_built: cache.built,
            slots_evicted: cache.evicted,
        }
    }

    /// Pre-builds the connection tables of the given slots (deduplicated).
    pub fn build_slots(&self, slots: &[u32]) {
        for &slot in slots {
            let _ = self.slot_table(slot);
        }
    }

    /// Returns the connection table of a slot, building it if necessary.
    pub fn slot_table(&self, slot: u32) -> Arc<SlotTable> {
        let slot = slot % self.slots_per_day;
        {
            let mut cache = self.cache.lock();
            if let Some(table) = cache.tables.get(&slot).cloned() {
                // Refresh LRU position.
                cache.lru.retain(|s| *s != slot);
                cache.lru.push(slot);
                return table;
            }
        }
        let version = self.stats_version.load(std::sync::atomic::Ordering::SeqCst);
        let table = Arc::new(self.build_table(slot));
        let mut cache = self.cache.lock();
        cache.built += 1;
        if self.stats_version.load(std::sync::atomic::Ordering::SeqCst) != version {
            // An ingest updated the statistics while this table was being
            // built: serve it to the caller (its query began before the
            // update) but do not cache it — the next query rebuilds from
            // the current statistics.
            return table;
        }
        cache.tables.insert(slot, Arc::clone(&table));
        cache.lru.retain(|s| *s != slot);
        cache.lru.push(slot);
        while cache.tables.len() > self.max_cached_slots {
            let victim = cache.lru.remove(0);
            cache.tables.remove(&victim);
            cache.evicted += 1;
        }
        table
    }

    /// Both lists of one segment in one slot (convenience used in tests and
    /// small tools).
    pub fn connection_lists(&self, segment: SegmentId, slot: u32) -> ConnectionLists {
        self.slot_table(slot).lists(segment).clone()
    }

    fn build_table(&self, slot: u32) -> SlotTable {
        // Pin one consistent stats version for the whole build; a
        // concurrent ingest publishes a new Arc without disturbing it.
        let stats = self.speed_stats();
        // One independent pair of single-source hops per segment —
        // embarrassingly parallel, each on its worker's thread workspace.
        let seg_ids: Vec<u32> = (0..self.network.num_segments() as u32).collect();
        let lists = streach_par::par_map(&seg_ids, |&seg_idx| {
            let seg = SegmentId(seg_idx);
            with_thread_workspace(|ws| {
                let mut pass = BoundingPass {
                    con: self,
                    stats: &stats,
                    ws,
                };
                let mut list = |use_far| {
                    let mut ids: Vec<SegmentId> = pass
                        .hop(&[seg], slot, use_far)
                        .filter(|s| *s != seg)
                        .collect();
                    ids.sort_unstable();
                    ids
                };
                ConnectionLists {
                    far: list(true),
                    near: list(false),
                }
            })
        });
        SlotTable { slot, lists }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use streach_roadnet::{GeneratorConfig, SyntheticCity};
    use streach_traj::{FleetConfig, TrajectoryDataset};

    fn setup(max_cached: usize) -> (Arc<RoadNetwork>, ConIndex) {
        let city = SyntheticCity::generate(GeneratorConfig::small());
        let network = Arc::new(city.network);
        let dataset = TrajectoryDataset::simulate(&network, FleetConfig::tiny());
        let config = IndexConfig {
            max_cached_con_slots: max_cached,
            ..Default::default()
        };
        let stats = Arc::new(SpeedStats::from_dataset(&network, &dataset, config.slot_s));
        let con = ConIndex::new(network.clone(), stats, &config);
        (network, con)
    }

    #[test]
    fn near_is_subset_of_far() {
        let (network, con) = setup(8);
        let slot = 100; // 08:20, inside the tiny fleet's operating window
        let table = con.slot_table(slot);
        for seg in network.segment_ids() {
            let lists = table.lists(seg);
            for n in &lists.near {
                assert!(
                    lists.far.contains(n),
                    "near segment {n} missing from far list of {seg}"
                );
            }
            // Lists never contain the segment itself and are sorted.
            assert!(!lists.far.contains(&seg));
            assert!(!lists.near.contains(&seg));
            assert!(lists.far.windows(2).all(|w| w[0] < w[1]));
            assert!(lists.near.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn far_lists_are_nonempty_and_contain_successors() {
        let (network, con) = setup(8);
        let table = con.slot_table(110);
        for seg in network.segment_ids().take(50) {
            let far = table.far(seg);
            assert!(!far.is_empty(), "far list of {seg} empty");
            // Direct successors are always reachable within a 5-minute slot
            // on a 500 m grid.
            for succ in network.successors(seg) {
                assert!(
                    far.contains(&succ),
                    "successor {succ} of {seg} not in far list"
                );
            }
        }
    }

    #[test]
    fn tables_are_cached_and_evicted_lru() {
        let (_, con) = setup(2);
        let t1 = con.slot_table(100);
        let t1_again = con.slot_table(100);
        assert!(
            Arc::ptr_eq(&t1, &t1_again),
            "same slot must be served from cache"
        );
        assert_eq!(con.stats().slots_built, 1);
        let _t2 = con.slot_table(101);
        let _t3 = con.slot_table(102); // evicts slot 100? no: 100 was most recently used before 101...
        let stats = con.stats();
        assert_eq!(stats.slots_built, 3);
        assert_eq!(stats.cached_slots, 2);
        assert_eq!(stats.slots_evicted, 1);
    }

    #[test]
    fn build_slots_prebuilds() {
        let (_, con) = setup(8);
        con.build_slots(&[100, 101, 102, 100]);
        let stats = con.stats();
        assert_eq!(stats.slots_built, 3);
        assert_eq!(stats.cached_slots, 3);
    }

    #[test]
    fn slot_wraps_around_day() {
        let (network, con) = setup(8);
        let a = con.connection_lists(network.segment_ids().next().unwrap(), 5);
        let b = con.connection_lists(network.segment_ids().next().unwrap(), 5 + 288);
        assert_eq!(a, b);
        assert_eq!(
            con.stats().slots_built,
            1,
            "wrapped slot must reuse the cached table"
        );
    }

    #[test]
    fn total_entries_counts_both_lists() {
        let (network, con) = setup(8);
        let table = con.slot_table(120);
        let manual: usize = network
            .segment_ids()
            .map(|s| table.far(s).len() + table.near(s).len())
            .sum();
        assert_eq!(table.total_entries(), manual);
        assert!(table.total_entries() > 0);
        assert_eq!(table.slot(), 120);
    }

    #[test]
    #[should_panic(expected = "same Δt")]
    fn mismatched_granularity_rejected() {
        let city = SyntheticCity::generate(GeneratorConfig::small());
        let network = Arc::new(city.network);
        let dataset = TrajectoryDataset::simulate(&network, FleetConfig::tiny());
        let stats = Arc::new(SpeedStats::from_dataset(&network, &dataset, 600));
        let config = IndexConfig {
            slot_s: 300,
            ..Default::default()
        };
        let _ = ConIndex::new(network, stats, &config);
    }
}
