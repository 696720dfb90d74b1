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
//! [`DijkstraWorkspace::expand_within_time`]). The Con-Index therefore
//! stores nothing but the speed statistics: a bounding pass pins one
//! version of them and evaluates every hop directly on the calling
//! thread's dense workspace. Nothing has to be warmed before a query,
//! invalidated by ingest, shared between server workers or carried
//! through a checkpoint.
//!
//! # What a hop costs
//!
//! A hop settles the whole bounding set at arrival 0 but scans successors
//! only of its *frontier* (the members that may still have a successor
//! outside the set; [`crate::query::sqmb`] keeps it), so it costs in
//! proportion to what it adds, and a set closed under successors costs
//! nothing more. Relaxing reads the slot's traversal-cost row: each speed
//! row derives a Far and a Near row (`length_m / speed`, `+∞` where the
//! speed is not positive) on first use, 2 × 8 B per segment per touched
//! slot (~42 KB on the 2 636-segment benchmark city), dropped when an
//! observation lands in the row. `t + cost[s]` is the very `f64` the
//! expansion computed as `t + length_m / speed` per relaxation before, so
//! neither the rows nor the frontier move a settled set by a bit.
//!
//! The per-slot tables themselves exist only inside the literal
//! Algorithm 1/3 oracle ([`SlotTable`]), built row by row through the
//! oracle's own textbook expansion (`reference::reach_within`), which
//! shares no code with the hop, and kept while the statistics they were
//! built over stay current. No query, serving, subscription or router
//! path reads or builds one.

use std::borrow::Cow;
use std::sync::Arc;

use parking_lot::RwLock;
use streach_roadnet::{with_thread_workspace, DijkstraWorkspace, RoadNetwork, SegmentId};

use crate::config::IndexConfig;
use crate::query::reference::{ConIndexStats, SlotTable, TableMemo};
use crate::speed_stats::SpeedStats;

/// One bounding pass over the Con-Index: a single pinned version of the
/// speed statistics plus the calling thread's expansion workspace, so every
/// hop of the pass sees the same speeds even while ingest publishes newer
/// ones. Obtained from [`ConIndex::bounding_pass`].
pub(crate) struct BoundingPass<'a> {
    con: &'a ConIndex,
    stats: &'a SpeedStats,
    ws: &'a mut DijkstraWorkspace,
}

impl<'a> BoundingPass<'a> {
    /// The road network the hops expand over.
    pub(crate) fn network(&self) -> &'a RoadNetwork {
        &self.con.network
    }

    /// One Con-Index hop from the bounding set `region`: what
    /// `⋃_{r∈region} Far(r, slot)` (Near lists when `use_far` is false)
    /// adds to it, evaluated as one expansion over Δt on the slot's Far
    /// (Near) traversal-cost row. Every member is at arrival 0, but only
    /// the successors of `seeds` are scanned: the caller passes at least
    /// every member with a successor outside `region` (see
    /// [`DijkstraWorkspace::expand_within_time`] for why that settles the
    /// same set). The returned workspace's
    /// [`settled`](DijkstraWorkspace::settled) yields each added segment
    /// once, and [`reached`](DijkstraWorkspace::reached) answers membership
    /// in the grown set. The slot's speed row is decoded on first touch; a
    /// query resolves it first ([`ConIndex::resolve_slots`]), so the hop
    /// itself cannot fail.
    pub(crate) fn hop(
        &mut self,
        region: &[SegmentId],
        seeds: &[SegmentId],
        slot: u32,
        use_far: bool,
    ) -> &DijkstraWorkspace {
        let network = self.network();
        let row = self.stats.row(slot);
        let costs = if use_far {
            Cow::Borrowed(row.far_costs(network))
        } else {
            row.near_costs(network, self.con.fallback_min_speed_ms)
        };
        self.ws
            .expand_within_time(network, region, seeds, self.con.slot_s as f64, &costs);
        self.ws
    }
}

/// The Con-Index.
pub struct ConIndex {
    network: Arc<RoadNetwork>,
    /// The historical speed statistics the hops derive from. Behind a
    /// copy-on-write `RwLock<Arc<..>>` so streaming ingest can fold new
    /// observations in while an in-flight bounding pass keeps reading its
    /// own consistent version.
    speed_stats: RwLock<Arc<SpeedStats>>,
    slot_s: u32,
    fallback_min_speed_ms: f64,
    /// The oracle's materialised tables (see the hidden wrappers below).
    pub(crate) tables: TableMemo,
}

impl ConIndex {
    /// Creates a Con-Index over the network using the given historical speed
    /// statistics. Nothing is precomputed: queries evaluate their hops
    /// directly.
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
            slot_s: config.slot_s,
            fallback_min_speed_ms: config.fallback_min_speed_ms,
            tables: TableMemo::default(),
        }
    }

    /// The temporal granularity Δt in seconds.
    pub fn slot_s(&self) -> u32 {
        self.slot_s
    }

    /// The road network the hops expand over.
    pub(crate) fn network(&self) -> &RoadNetwork {
        &self.network
    }

    /// The floor of every Near speed (see [`SpeedStats::min_speed_ms`]).
    pub(crate) fn fallback_min_speed_ms(&self) -> f64 {
        self.fallback_min_speed_ms
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

    /// Decodes the speed rows of `slots` that a reopened snapshot has not
    /// decoded yet, so the hops over them cannot fail: a row that cannot
    /// be read is a typed error naming `speed_stats` and the slot. Rows are
    /// shared by every version of the statistics, so a version published
    /// later has them too.
    pub(crate) fn resolve_slots(&self, slots: &[u32]) -> streach_storage::StorageResult<()> {
        self.speed_stats.read().resolve(slots.iter().copied())
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
    /// (copy-on-write; see [`SpeedStats::observe_pair`]): a bounding pass
    /// in flight keeps the version it pinned, the next one sees the new
    /// speeds. Returns the number of valid observations.
    pub(crate) fn apply_speed_pairs(
        &self,
        network: &RoadNetwork,
        pairs: &[(SegmentId, u32, u32)],
    ) -> usize {
        if pairs.is_empty() {
            return 0;
        }
        let mut guard = self.speed_stats.write();
        let stats = Arc::make_mut(&mut guard);
        pairs
            .iter()
            .filter(|(segment, enter, next_enter)| {
                stats.observe_pair(network, *segment, *enter, *next_enter)
            })
            .count()
    }

    /// Counters of the oracle's table memo. No query path builds a table,
    /// so `slots_built` stays 0 unless the oracle or a probe asked.
    #[doc(hidden)]
    pub fn stats(&self) -> ConIndexStats {
        self.tables.stats()
    }

    /// Materialises the oracle's tables of `slots`.
    #[doc(hidden)]
    pub fn build_slots(&self, slots: &[u32]) {
        slots.iter().for_each(|&slot| drop(self.slot_table(slot)));
    }

    /// The oracle's table of `slot` over the current speed statistics.
    #[doc(hidden)]
    pub fn slot_table(&self, slot: u32) -> Arc<SlotTable> {
        self.tables.get(self, slot)
    }
}

#[cfg(test)]
mod tests {
    //! The bounding kernel (frontier-seeded hops over cost rows) against
    //! the oracle's textbook single-source expansion, which shares none of
    //! its code.

    use super::*;
    use std::collections::{BTreeSet, HashMap};

    use streach_geo::GeoPoint;
    use streach_roadnet::{GeneratorConfig, RoadClass, SyntheticCity};
    use streach_storage::fault::mix;
    use streach_traj::{FleetConfig, TrajectoryDataset};

    use crate::query::mqmb::mqmb;
    use crate::query::reference::{naive_mqmb, SlotTable};
    use crate::query::sqmb::{hop_slots, sqmb};

    /// Slots across the day: the tiny fleet drives 08:00–12:00, so some
    /// rows are observed and the others fall back to free flow.
    const SLOTS: [u32; 7] = [0, 61, 96, 100, 119, 143, 287];

    /// The small city, its centre, and a Con-Index over the tiny fleet
    /// (`fleet`) or over no trajectory at all.
    fn world(fleet: bool) -> (Arc<RoadNetwork>, ConIndex, GeoPoint) {
        let city = SyntheticCity::generate(GeneratorConfig::small());
        let center = city.central_point();
        let network = Arc::new(city.network);
        let dataset = if fleet {
            TrajectoryDataset::simulate(&network, FleetConfig::tiny())
        } else {
            TrajectoryDataset::from_matched(Vec::new(), 0, 0)
        };
        let config = IndexConfig::default();
        let stats = Arc::new(SpeedStats::from_dataset(&network, &dataset, config.slot_s));
        let con = ConIndex::new(network.clone(), stats, &config);
        (network, con, center)
    }

    fn sorted(mut set: Vec<SegmentId>) -> Vec<SegmentId> {
        set.sort_unstable();
        set.dedup();
        set
    }

    /// The oracle's slot tables over the statistics current when each was
    /// built. Built directly, not through the memo: a table pinned across
    /// an ingest would make `Arc::make_mut` copy the rows the ingest test
    /// means to update in place.
    struct Oracle<'c> {
        con: &'c ConIndex,
        tables: HashMap<u32, SlotTable>,
    }

    impl<'c> Oracle<'c> {
        fn new(con: &'c ConIndex) -> Self {
            Self {
                con,
                tables: HashMap::new(),
            }
        }

        /// `region ∪ ⋃_{r∈region} Far(r, slot)` (Near lists when `use_far`
        /// is false), from the oracle's own lists.
        fn hop(&mut self, region: &[SegmentId], slot: u32, use_far: bool) -> Vec<SegmentId> {
            let con = self.con;
            let table = self
                .tables
                .entry(slot)
                .or_insert_with(|| SlotTable::build(con, slot));
            let mut out: BTreeSet<SegmentId> = region.iter().copied().collect();
            for &r in region {
                out.extend(if use_far { table.far(r) } else { table.near(r) });
            }
            out.into_iter().collect()
        }
    }

    /// The kernel's hop from `region` seeded from `seeds`: the grown set.
    fn kernel_hop(
        con: &ConIndex,
        region: &[SegmentId],
        seeds: &[SegmentId],
        slot: u32,
        use_far: bool,
    ) -> Vec<SegmentId> {
        con.bounding_pass(|pass| {
            let ws = pass.hop(region, seeds, slot, use_far);
            assert!(region.iter().all(|&s| ws.reached(s)));
            let added: Vec<SegmentId> = ws.settled().map(|(s, _)| s).collect();
            assert!(
                added.iter().all(|s| !region.contains(s)),
                "re-added a member"
            );
            sorted([region, &added[..]].concat())
        })
    }

    /// Fails with the first few segments the two sorted sets disagree on.
    fn assert_same(got: &[SegmentId], want: &[SegmentId], what: std::fmt::Arguments<'_>) {
        if got != want {
            let only = |a: &[SegmentId], b: &[SegmentId]| -> Vec<SegmentId> {
                a.iter()
                    .copied()
                    .filter(|s| b.binary_search(s).is_err())
                    .take(8)
                    .collect()
            };
            panic!(
                "{what}: kernel {} segments, oracle {}; kernel only {:?}, oracle only {:?}",
                got.len(),
                want.len(),
                only(got, want),
                only(want, got)
            );
        }
    }

    /// The members with a successor outside `region`.
    fn boundary(network: &RoadNetwork, region: &[SegmentId]) -> Vec<SegmentId> {
        let member: BTreeSet<SegmentId> = region.iter().copied().collect();
        member
            .iter()
            .copied()
            .filter(|&s| network.successors(s).iter().any(|n| !member.contains(n)))
            .collect()
    }

    /// Bounding sets to hop from: edge sources (the fewest successors),
    /// random multi-source sets, a grown bounding set and the whole city
    /// (closed under successors).
    fn regions(oracle: &mut Oracle<'_>, seed: u64) -> Vec<Vec<SegmentId>> {
        let network = oracle.con.network();
        let n = network.num_segments() as u64;
        let mut edge: Vec<SegmentId> = network.segment_ids().collect();
        edge.sort_by_key(|&s| (network.successors(s).len(), s));
        let mut draws = (0..).map(|i| SegmentId((mix(seed, i) % n) as u32));
        let mut out: Vec<Vec<SegmentId>> = edge[..3].iter().map(|&s| vec![s]).collect();
        out.push(edge[..3].to_vec());
        for k in [1, 5, 40] {
            out.push(draws.by_ref().take(k).collect());
        }
        let start = draws.next().unwrap();
        let grown = oracle.hop(&[start], 100, true);
        out.push(oracle.hop(&grown, 101, true));
        out.push(network.segment_ids().collect());
        out
    }

    /// Every hop of `regions` on every slot, Far and Near: the kernel
    /// seeded from the boundary and from the whole region grows exactly
    /// the oracle's set.
    fn assert_hops_match(oracle: &mut Oracle<'_>, slots: &[u32], seed: u64) {
        let con = oracle.con;
        for &slot in slots {
            for (k, region) in regions(oracle, mix(seed, slot as u64)).iter().enumerate() {
                for use_far in [true, false] {
                    let want = oracle.hop(region, slot, use_far);
                    let seeds = boundary(con.network(), region);
                    for seeds in [&seeds, region] {
                        assert_same(
                            &kernel_hop(con, region, seeds, slot, use_far),
                            &want,
                            format_args!(
                                "slot {slot} region #{k} far {use_far} {} seeds",
                                seeds.len()
                            ),
                        );
                    }
                }
            }
        }
    }

    /// SQMB's hops, each seeded from its frontier, against the oracle
    /// hopping from the whole set.
    fn assert_sqmb_matches(oracle: &mut Oracle<'_>, start: SegmentId, t: u32, l: u32) {
        let con = oracle.con;
        let got = sqmb(con, con.network().num_segments(), start, t, l);
        for (use_far, region) in [(true, &got.max_region), (false, &got.min_region)] {
            let mut want = vec![start];
            for slot in hop_slots(t, l, con.slot_s()) {
                want = oracle.hop(&want, slot, use_far);
            }
            assert_same(
                region,
                &want,
                format_args!("SQMB from {start} T {t} L {l} far {use_far}"),
            );
        }
    }

    #[test]
    fn frontier_seeded_hops_match_the_oracle_across_the_day() {
        let (network, con, _) = world(true);
        let oracle = &mut Oracle::new(&con);
        assert_hops_match(oracle, &SLOTS, 1);
        let n = network.num_segments() as u64;
        let mut whole_city = false;
        for i in 0..8 {
            let start = SegmentId((mix(2, i) % n) as u32);
            // Free flow from midnight, or the fleet's observed morning.
            let t = [0, 100][i as usize % 2] * con.slot_s() + 7;
            for l in [300, 1200, 2400] {
                assert_sqmb_matches(oracle, start, t, l);
            }
            whole_city |= sqmb(&con, n as usize, start, t, 2400).max_region.len() == n as usize;
        }
        assert!(whole_city, "no 40-minute bound closed over the city");
    }

    /// An ingest that moves one segment cell and its class's fallback cell
    /// in a slot whose cost rows were derived: the next hops read the new
    /// speeds, like the oracle. The statistics are not shared while the
    /// observation lands, so `Arc::make_mut` updates the row in place.
    #[test]
    fn an_observation_resets_the_derived_cost_rows() {
        let (network, con, _) = world(true);
        let slot = 100;
        let start = network.segment_ids().nth(17).unwrap();
        let (t, l) = (slot * con.slot_s(), 900);
        let oracle = &mut Oracle::new(&con);
        assert_sqmb_matches(oracle, start, t, l);
        assert_hops_match(oracle, &[slot], 3);
        let n = network.num_segments();
        assert_eq!(con.speed_stats().row(slot).cost_bytes(), 2 * 8 * n);

        // A local street driven at 40 m/s: faster than every local cell of
        // the tiny fleet, so the cell and the class fallback both move.
        let fast = network
            .segment_ids()
            .find(|&s| network.segment(s).class == RoadClass::Local)
            .unwrap();
        let before = oracle.hop(&[fast], slot, true);
        let enter = slot * con.slot_s();
        let dt = (network.segment(fast).length_m / 40.0).round() as u32;
        assert_eq!(
            con.apply_speed_pairs(&network, &[(fast, enter, enter + dt)]),
            1
        );
        // The old tables describe the old statistics.
        let oracle = &mut Oracle::new(&con);
        assert_ne!(oracle.hop(&[fast], slot, true), before, "vacuous ingest");
        assert_eq!(con.speed_stats().row(slot).cost_bytes(), 0);

        assert_hops_match(oracle, &[slot], 3);
        assert_sqmb_matches(oracle, start, t, l);
    }

    /// A slot in which nothing can cross a segment, then a free-flow one: the
    /// first hop adds nothing, and its seed must survive into the second.
    /// MQMB keeps each start's surviving seeds the same way.
    #[test]
    fn seeds_that_added_nothing_survive_into_the_next_hop() {
        // No fleet: every cell falls back to free flow.
        let (network, con, center) = world(false);
        let slot = 100;
        let enter = slot * con.slot_s();
        // One crawl per class (0.6 m/s: a 500 m segment takes ~14 min) sets
        // every class fallback of the slot to it.
        let crawls: Vec<(SegmentId, u32, u32)> = RoadClass::all()
            .into_iter()
            .filter_map(|class| {
                network
                    .segment_ids()
                    .find(|&s| network.segment(s).class == class)
            })
            .map(|s| {
                let dt = (network.segment(s).length_m / 0.6).round() as u32;
                (s, enter, enter + dt)
            })
            .collect();
        assert_eq!(con.apply_speed_pairs(&network, &crawls), crawls.len());

        let start = network.nearest_segment(&center).unwrap().0;
        let (t, l) = (enter, 2 * con.slot_s());
        let oracle = &mut Oracle::new(&con);
        assert_eq!(oracle.hop(&[start], slot, true), [start]);
        assert_sqmb_matches(oracle, start, t, l);
        let bounds = sqmb(&con, network.num_segments(), start, t, l);
        assert!(
            bounds.min_region.len() > 1,
            "the free-flow hop added nothing"
        );

        let other = network
            .nearest_segment(&center.offset_m(1500.0, 1500.0))
            .unwrap()
            .0;
        let (starts, points) = ([start, other], [center, center.offset_m(1500.0, 1500.0)]);
        let got = mqmb(&con, &network, &starts, &points, t, l);
        let want = naive_mqmb(&con, &network, &starts, &points, t, l);
        assert_same(&got.max_region, &want.max_region, format_args!("MQMB max"));
        assert_same(&got.min_region, &want.min_region, format_args!("MQMB min"));
        assert!(got.max_region.len() > 2, "the free-flow hop added nothing");
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
