//! The map-matched trajectory dataset.

use streach_roadnet::RoadNetwork;

use crate::map_matching::{map_match, MatchedTrajectory};
use crate::simulator::{FleetConfig, FleetSimulator};

/// Summary statistics of a trajectory dataset — the contents of Table 4.1
/// ("Dataset Description") for whatever dataset is actually loaded.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetStats {
    /// Number of distinct taxis (moving objects).
    pub num_taxis: usize,
    /// Number of days covered.
    pub num_days: u16,
    /// Number of trajectories (taxis × days with data).
    pub num_trajectories: usize,
    /// Total number of segment visits (after map matching).
    pub num_segment_visits: u64,
    /// Total number of raw GPS records, when known (0 for datasets generated
    /// directly in matched form).
    pub num_gps_records: u64,
}

/// One map-matched trajectory point in flattened *streaming* form: the unit
/// of the ingest pipeline. A [`MatchedTrajectory`] is the batch view of the
/// same data ([`points_of`] flattens one into its points); an online feed
/// delivers points directly in this shape as taxis report in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrajPoint {
    /// Trajectory ID (same numbering as [`MatchedTrajectory::traj_id`]).
    pub traj_id: u32,
    /// Day index of the observation.
    pub date: u16,
    /// The road segment entered.
    pub segment: streach_roadnet::SegmentId,
    /// Time of day (seconds after midnight) the segment was entered.
    pub enter_time_s: u32,
}

/// Flattens a [`MatchedTrajectory`] into its stream of [`TrajPoint`]s, in
/// visit order. Feeding these points to a streaming ingest in order is
/// equivalent to having had the trajectory in the batch dataset.
pub fn points_of(traj: &MatchedTrajectory) -> impl Iterator<Item = TrajPoint> + '_ {
    traj.visits.iter().map(|visit| TrajPoint {
        traj_id: traj.traj_id,
        date: traj.date,
        segment: visit.segment,
        enter_time_s: visit.enter_time_s,
    })
}

/// The historical trajectory database `TR` over which reachability queries
/// are answered.
#[derive(Debug, Clone, Default)]
pub struct TrajectoryDataset {
    trajectories: Vec<MatchedTrajectory>,
    num_taxis: usize,
    num_days: u16,
    num_gps_records: u64,
}

impl TrajectoryDataset {
    /// Wraps already map-matched trajectories.
    pub fn from_matched(
        trajectories: Vec<MatchedTrajectory>,
        num_taxis: usize,
        num_days: u16,
    ) -> Self {
        Self {
            trajectories,
            num_taxis,
            num_days,
            num_gps_records: 0,
        }
    }

    /// Simulates a fleet and returns its (ground-truth matched) dataset.
    /// This is the standard way the examples and benchmarks build their data.
    pub fn simulate(network: &RoadNetwork, config: FleetConfig) -> Self {
        let num_taxis = config.num_taxis;
        let num_days = config.num_days;
        let sim = FleetSimulator::new(network, config);
        Self::from_matched(sim.simulate_matched(), num_taxis, num_days)
    }

    /// Simulates a fleet with raw GPS emission and runs the full
    /// pre-processing pipeline (map matching) on it. Slower, but exercises
    /// the same code path a real GPS dataset would go through.
    pub fn simulate_with_map_matching(network: &RoadNetwork, config: FleetConfig) -> Self {
        let num_taxis = config.num_taxis;
        let num_days = config.num_days;
        let sim = FleetSimulator::new(network, config);
        let pairs = sim.simulate_with_gps();
        let num_gps_records: u64 = pairs.iter().map(|(raw, _)| raw.len() as u64).sum();
        let raws: Vec<_> = pairs.into_iter().map(|(raw, _)| raw).collect();
        let matched = map_match(network, &raws);
        Self {
            trajectories: matched,
            num_taxis,
            num_days,
            num_gps_records,
        }
    }

    /// The trajectories.
    pub fn trajectories(&self) -> &[MatchedTrajectory] {
        &self.trajectories
    }

    /// Number of days the dataset spans (`m` in Eq. 3.1).
    pub fn num_days(&self) -> u16 {
        self.num_days
    }

    /// Number of distinct taxis.
    pub fn num_taxis(&self) -> usize {
        self.num_taxis
    }

    /// Dataset statistics (Table 4.1).
    pub fn stats(&self) -> DatasetStats {
        DatasetStats {
            num_taxis: self.num_taxis,
            num_days: self.num_days,
            num_trajectories: self.trajectories.len(),
            num_segment_visits: self.trajectories.iter().map(|t| t.len() as u64).sum(),
            num_gps_records: self.num_gps_records,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::map_matching::match_agreement;
    use streach_roadnet::{GeneratorConfig, SyntheticCity};

    #[test]
    fn simulate_builds_consistent_stats() {
        let city = SyntheticCity::generate(GeneratorConfig::small());
        let cfg = FleetConfig::tiny();
        let ds = TrajectoryDataset::simulate(&city.network, cfg.clone());
        let stats = ds.stats();
        assert_eq!(stats.num_taxis, cfg.num_taxis);
        assert_eq!(stats.num_days, cfg.num_days);
        assert_eq!(
            stats.num_trajectories,
            cfg.num_taxis * cfg.num_days as usize
        );
        assert!(stats.num_segment_visits > 0);
        assert_eq!(stats.num_gps_records, 0);
        assert_eq!(ds.trajectories().len(), stats.num_trajectories);
    }

    #[test]
    fn map_matched_pipeline_agrees_with_ground_truth() {
        let city = SyntheticCity::generate(GeneratorConfig::small());
        let cfg = FleetConfig {
            num_taxis: 3,
            num_days: 1,
            ..FleetConfig::tiny()
        };
        // Ground truth.
        let sim = FleetSimulator::new(&city.network, cfg.clone());
        let pairs = sim.simulate_with_gps();
        let matcher_input: Vec<_> = pairs.iter().map(|(raw, _)| raw.clone()).collect();
        let matched = map_match(&city.network, &matcher_input);
        let mut total_agreement = 0.0;
        for (m, (_, truth)) in matched.iter().zip(&pairs) {
            total_agreement += match_agreement(&city.network, m, truth);
        }
        let avg = total_agreement / matched.len() as f64;
        assert!(avg > 0.8, "map matching agreement too low: {avg}");

        // The full pipeline constructor produces the same number of trajectories.
        let ds = TrajectoryDataset::simulate_with_map_matching(&city.network, cfg);
        assert_eq!(ds.trajectories().len(), pairs.len());
        assert!(ds.stats().num_gps_records > 0);
    }

    #[test]
    fn from_matched_preserves_input() {
        let city = SyntheticCity::generate(GeneratorConfig::small());
        let ds1 = TrajectoryDataset::simulate(&city.network, FleetConfig::tiny());
        let ds2 = TrajectoryDataset::from_matched(
            ds1.trajectories().to_vec(),
            ds1.num_taxis(),
            ds1.num_days(),
        );
        assert_eq!(
            ds1.stats().num_segment_visits,
            ds2.stats().num_segment_visits
        );
    }
}
