//! Evaluation scenarios: city + fleet + indexes + canonical query locations.

use std::sync::Arc;

use streach_core::prelude::*;
use streach_core::EngineBuilder;
use streach_geo::GeoPoint;
use streach_roadnet::RoadNetwork;

/// How large an evaluation scenario to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScenarioSize {
    /// Tiny: for tests and Criterion micro-benchmarks.
    Smoke,
    /// Small: `repro --quick`.
    Quick,
    /// Full size: `repro` without `--quick`.
    Standard,
}

impl ScenarioSize {
    /// City generator configuration for this size.
    pub fn city(self) -> GeneratorConfig {
        match self {
            ScenarioSize::Smoke => GeneratorConfig::small(),
            ScenarioSize::Quick => GeneratorConfig {
                cols: 17,
                rows: 17,
                seed: 2014,
                ..GeneratorConfig::default()
            },
            ScenarioSize::Standard => GeneratorConfig {
                cols: 23,
                rows: 23,
                seed: 2014,
                ..GeneratorConfig::default()
            },
        }
    }

    /// Fleet configuration for this size (around-the-clock operation so that
    /// the start-time sweep of Fig. 4.5 has data everywhere).
    pub fn fleet(self) -> FleetConfig {
        let base = FleetConfig {
            day_start_s: 0,
            day_end_s: 86_400,
            seed: 2014,
            ..FleetConfig::default()
        };
        match self {
            ScenarioSize::Smoke => FleetConfig {
                num_taxis: 25,
                num_days: 5,
                ..base
            },
            ScenarioSize::Quick => FleetConfig {
                num_taxis: 60,
                num_days: 10,
                ..base
            },
            ScenarioSize::Standard => FleetConfig {
                num_taxis: 120,
                num_days: 15,
                ..base
            },
        }
    }
}

/// A ready-to-query evaluation environment.
pub struct Scenario {
    /// The road network.
    pub network: Arc<RoadNetwork>,
    /// The simulated trajectory dataset.
    pub dataset: TrajectoryDataset,
    /// The engine with ST-Index and Con-Index built at `slot_s` granularity.
    pub engine: ReachabilityEngine,
    /// The canonical single query location (the city centre — the paper uses
    /// a fixed downtown location, 22.5311 N 114.0550 E).
    pub query_location: GeoPoint,
    /// The size this scenario was built at.
    pub size: ScenarioSize,
}

impl Scenario {
    /// Builds a scenario with the default Δt of 5 minutes.
    pub fn build(size: ScenarioSize) -> Self {
        Self::build_with_slot(size, 300)
    }

    /// Builds a scenario with an explicit Δt (used by the Fig. 4.7 sweep).
    pub fn build_with_slot(size: ScenarioSize, slot_s: u32) -> Self {
        let city = SyntheticCity::generate(size.city());
        let query_location = city.central_point();
        let network = Arc::new(city.network);
        let dataset = TrajectoryDataset::simulate(&network, size.fleet());
        let engine = EngineBuilder::new(network.clone(), &dataset)
            .index_config(IndexConfig {
                slot_s,
                ..IndexConfig::default()
            })
            .build();
        Self {
            network,
            dataset,
            engine,
            query_location,
            size,
        }
    }

    /// Rebuilds only the engine with a different Δt, reusing the network and
    /// dataset (used by the Fig. 4.7 granularity sweep).
    pub fn engine_with_slot(&self, slot_s: u32) -> ReachabilityEngine {
        EngineBuilder::new(self.network.clone(), &self.dataset)
            .index_config(IndexConfig {
                slot_s,
                ..IndexConfig::default()
            })
            .build()
    }

    /// The canonical s-query of the evaluation: T = 11:00, Prob = 20%.
    pub fn canonical_squery(&self, duration_min: u32) -> SQuery {
        SQuery {
            location: self.query_location,
            start_time_s: 11 * 3600,
            duration_s: duration_min * 60,
            prob: 0.2,
        }
    }

    /// The m-query locations used in Section 4.3: points spread around the
    /// centre roughly 1.5–3 km apart.
    pub fn mquery_locations(&self, n: usize) -> Vec<GeoPoint> {
        let c = self.query_location;
        let ring = [
            c,
            c.offset_m(1800.0, 900.0),
            c.offset_m(-1500.0, 1400.0),
            c.offset_m(-1700.0, -1200.0),
            c.offset_m(1400.0, -1800.0),
            c.offset_m(2600.0, -400.0),
            c.offset_m(-2600.0, 300.0),
            c.offset_m(400.0, 2600.0),
            c.offset_m(-300.0, -2700.0),
            c.offset_m(2300.0, 2100.0),
        ];
        ring.iter().copied().cycle().take(n).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use streach_core::query::Algorithm;

    #[test]
    fn smoke_scenario_answers_queries() {
        let s = Scenario::build(ScenarioSize::Smoke);
        assert!(s.network.num_segments() > 100);
        assert!(s.dataset.stats().num_segment_visits > 1000);
        let q = s.canonical_squery(10);
        let outcome = s
            .engine
            .try_s_query(&q, Algorithm::SqmbTbs)
            .expect("s-query");
        assert!(!outcome.region.is_empty());
        assert!(outcome.region.total_length_km > 0.0);
    }

    #[test]
    fn mquery_locations_are_distinct_up_to_ten() {
        let s = Scenario::build(ScenarioSize::Smoke);
        let locs = s.mquery_locations(10);
        assert_eq!(locs.len(), 10);
        for i in 0..locs.len() {
            for j in (i + 1)..locs.len() {
                assert!(
                    locs[i].haversine_m(&locs[j]) > 100.0,
                    "locations {i} and {j} too close"
                );
            }
        }
        // Cycling beyond 10 repeats.
        assert_eq!(s.mquery_locations(12)[10], locs[0]);
    }

    #[test]
    fn scenario_sizes_are_ordered() {
        let smoke = ScenarioSize::Smoke.fleet();
        let quick = ScenarioSize::Quick.fleet();
        let standard = ScenarioSize::Standard.fleet();
        assert!(smoke.num_taxis < quick.num_taxis);
        assert!(quick.num_taxis < standard.num_taxis);
        assert!(ScenarioSize::Smoke.city().cols <= ScenarioSize::Standard.city().cols);
    }
}
