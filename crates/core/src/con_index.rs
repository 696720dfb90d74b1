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
//! thread's dense workspace, in time proportional to the segments the hop
//! touches. Nothing has to be warmed before a query, invalidated by
//! ingest, shared between server workers or carried through a checkpoint.
//!
//! The per-slot tables themselves exist only inside the literal
//! Algorithm 1/3 oracle ([`SlotTable`]), built row by row through the same
//! `BoundingPass::hop` and kept while the statistics they were built over
//! stay current. No query, serving, subscription or router path
//! reads or builds one.

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

impl BoundingPass<'_> {
    /// One Con-Index hop: `sources ∪ ⋃_{r∈sources} Far(r, slot)` (Near
    /// lists when `use_far` is false), evaluated as one multi-source
    /// expansion over Δt at the slot's maximum (minimum) speeds. Yields
    /// every reached segment exactly once, sources included. The slot's
    /// speed row is decoded on first touch; a query resolves it first
    /// ([`ConIndex::resolve_slots`]), so the hop itself cannot fail.
    pub(crate) fn hop<'s>(
        &'s mut self,
        sources: &[SegmentId],
        slot: u32,
        use_far: bool,
    ) -> impl Iterator<Item = SegmentId> + 's {
        let BoundingPass { con, stats, .. } = *self;
        let network: &RoadNetwork = &con.network;
        let budget = con.slot_s as f64;
        let row = stats.row(slot);
        if use_far {
            self.ws
                .expand_within_time(network, sources, budget, |s| row.max_speed_ms(network, s));
        } else {
            self.ws.expand_within_time(network, sources, budget, |s| {
                row.min_speed_ms(network, s, con.fallback_min_speed_ms)
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

    /// Runs `f` with a [`BoundingPass`] over the current speed statistics
    /// and the calling thread's workspace. Must not be nested inside another
    /// [`with_thread_workspace`] borrow (it would panic, not misbehave).
    pub(crate) fn bounding_pass<R>(&self, f: impl FnOnce(&mut BoundingPass<'_>) -> R) -> R {
        self.bounding_pass_over(&self.speed_stats(), f)
    }

    /// [`bounding_pass`](Self::bounding_pass) over a version of the speed
    /// statistics the caller has already pinned.
    pub(crate) fn bounding_pass_over<R>(
        &self,
        stats: &SpeedStats,
        f: impl FnOnce(&mut BoundingPass<'_>) -> R,
    ) -> R {
        with_thread_workspace(|ws| {
            f(&mut BoundingPass {
                con: self,
                stats,
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
    use super::*;
    use streach_roadnet::{GeneratorConfig, SyntheticCity};
    use streach_traj::{FleetConfig, TrajectoryDataset};

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
