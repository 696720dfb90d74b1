//! Index construction: from a road network and a trajectory dataset to a
//! ready-to-query [`ReachabilityEngine`].

use std::sync::Arc;

use streach_roadnet::{RoadNetwork, ShardMap};
use streach_traj::TrajectoryDataset;

use crate::con_index::ConIndex;
use crate::config::IndexConfig;
use crate::engine::ReachabilityEngine;
use crate::speed_stats::SpeedStats;
use crate::st_index::StIndex;

/// Builds the ST-Index and Con-Index over a dataset and wraps them in a
/// [`ReachabilityEngine`].
///
/// ```
/// # use streach_core::prelude::*;
/// # use streach_core::EngineBuilder;
/// # let city = SyntheticCity::generate(GeneratorConfig::small());
/// # let network = std::sync::Arc::new(city.network);
/// # let dataset = TrajectoryDataset::simulate(&network, FleetConfig::tiny());
/// let engine = EngineBuilder::new(network.clone(), &dataset).build();
/// assert!(engine.st_index().stats().num_time_lists > 0);
/// ```
pub struct EngineBuilder<'a> {
    network: Arc<RoadNetwork>,
    dataset: &'a TrajectoryDataset,
    config: IndexConfig,
    shard: Option<(Arc<ShardMap>, u16)>,
}

impl<'a> EngineBuilder<'a> {
    /// Starts a builder with the default [`IndexConfig`].
    pub fn new(network: Arc<RoadNetwork>, dataset: &'a TrajectoryDataset) -> Self {
        Self {
            network,
            dataset,
            config: IndexConfig::default(),
            shard: None,
        }
    }

    /// Overrides the index configuration.
    pub fn index_config(mut self, config: IndexConfig) -> Self {
        self.config = config;
        self
    }

    /// Overrides only the temporal granularity Δt (in seconds).
    pub fn slot_seconds(mut self, slot_s: u32) -> Self {
        self.config.slot_s = slot_s;
        self
    }

    /// Builds a **shard engine**: only postings of segments `map` assigns
    /// to `shard_id` are indexed, while the speed statistics, the day count
    /// and the last-visit table stay global ("postings sharded, statistics
    /// replicated"). The shard's bounding regions are therefore identical
    /// to a single engine's, and the union of all shards' postings equals
    /// the unsharded heap — the bit-equality the scatter-gather router
    /// relies on (see `crate::sharded`).
    pub fn shard(mut self, map: Arc<ShardMap>, shard_id: u16) -> Self {
        self.shard = Some((map, shard_id));
        self
    }

    /// Builds the indexes and the engine.
    pub fn build(self) -> ReachabilityEngine {
        let st_index = match &self.shard {
            Some((map, shard_id)) => {
                let (map, shard_id) = (Arc::clone(map), *shard_id);
                StIndex::build_filtered(
                    self.network.clone(),
                    self.dataset,
                    &self.config,
                    Some(&move |segment| map.shard_of(segment) == shard_id),
                )
            }
            None => StIndex::build(self.network.clone(), self.dataset, &self.config),
        };
        let speed_stats = Arc::new(SpeedStats::from_dataset(
            &self.network,
            self.dataset,
            self.config.slot_s,
        ));
        let con_index = ConIndex::new(self.network.clone(), speed_stats, &self.config);
        let engine = ReachabilityEngine::new(self.network, st_index, con_index, self.config);
        if let Some((map, shard_id)) = self.shard {
            engine.set_shard_ownership(map, shard_id);
        }
        // Seed the streaming-ingest last-visit table with each
        // trajectory's final visit, so points that *continue* a trajectory
        // already in the batch data derive the same boundary speed pair
        // (and same-segment dedup) a from-scratch build on the combined
        // data would — the ingest-equivalence guarantee holds for
        // mid-trajectory continuation, not just whole new fleet-days.
        engine.seed_last_visit(self.dataset);
        engine
    }

    /// Builds the indexes, persists them into `dir` as an engine snapshot
    /// (see [`crate::snapshot`]) and returns the freshly built engine. A
    /// later process reopens the same engine with
    /// [`ReachabilityEngine::open_snapshot`] — no trajectory data needed.
    pub fn save_snapshot<P: AsRef<std::path::Path>>(
        self,
        dir: P,
    ) -> streach_storage::StorageResult<ReachabilityEngine> {
        let engine = self.build();
        engine.save_snapshot(dir)?;
        Ok(engine)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use streach_roadnet::{GeneratorConfig, SyntheticCity};
    use streach_traj::FleetConfig;

    #[test]
    fn builder_applies_configuration() {
        let city = SyntheticCity::generate(GeneratorConfig::small());
        let network = Arc::new(city.network);
        let dataset = TrajectoryDataset::simulate(&network, FleetConfig::tiny());
        let engine = EngineBuilder::new(network.clone(), &dataset)
            .slot_seconds(600)
            .index_config(IndexConfig {
                slot_s: 600,
                pool_pages: 16,
                ..Default::default()
            })
            .build();
        assert_eq!(engine.config().slot_s, 600);
        assert_eq!(engine.st_index().slot_s(), 600);
        assert_eq!(engine.con_index().slot_s(), 600);
        assert_eq!(engine.st_index().num_days(), dataset.num_days());
    }

    #[test]
    fn slot_seconds_shorthand() {
        let city = SyntheticCity::generate(GeneratorConfig::small());
        let network = Arc::new(city.network);
        let dataset = TrajectoryDataset::simulate(&network, FleetConfig::tiny());
        let engine = EngineBuilder::new(network, &dataset)
            .slot_seconds(120)
            .build();
        assert_eq!(engine.config().slot_s, 120);
    }
}
