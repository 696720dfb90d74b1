//! A `VerifierCore` pins one index view when it is built and reads every
//! posting through it. Ingest folded into the pinned delta tail stays
//! visible; a compaction publishing a new sealed base neither changes the
//! answers nor leaves the old core reading a base that is gone.

use std::sync::Arc;

use streach_core::config::IndexConfig;
use streach_core::query::verifier::{VerifierCore, VerifierScratch};
use streach_core::EngineBuilder;
use streach_roadnet::{GeneratorConfig, SegmentId, SyntheticCity};
use streach_traj::{FleetConfig, TrajPoint, TrajectoryDataset};

#[test]
fn pinned_core_matches_a_fresh_core_across_ingest_and_compaction() {
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
    let engine = EngineBuilder::new(network.clone(), &dataset)
        .index_config(IndexConfig {
            read_latency_us: 0,
            ..Default::default()
        })
        .build();

    let traj = &dataset.trajectories()[0];
    let start = traj.visits[0];
    let (t, l) = (start.enter_time_s, 900);
    let old = VerifierCore::new(engine.st_index(), start.segment, t, l).unwrap();
    assert!(old.active_days() > 0, "the start segment must be active");
    let mut scratch = VerifierScratch::new();
    let segments: Vec<SegmentId> = network.segment_ids().collect();

    // Segments the start trajectory does not reach yet; ingest makes it
    // pass them inside the window, on a date it already has (so neither
    // the day count nor the start segment's list changes).
    let last = traj.visits.last().unwrap().segment;
    let targets: Vec<SegmentId> = segments
        .iter()
        .copied()
        .filter(|&s| s != start.segment && s != last)
        .filter(|&s| old.probability(&mut scratch, s).unwrap() == 0.0)
        .take(5)
        .collect();
    assert_eq!(targets.len(), 5);
    let points: Vec<TrajPoint> = targets
        .iter()
        .enumerate()
        .map(|(i, &segment)| TrajPoint {
            traj_id: traj.traj_id,
            date: traj.date,
            segment,
            enter_time_s: t + 300 + 60 * i as u32,
        })
        .collect();
    engine.ingest(&points).unwrap();
    assert_eq!(engine.st_index().num_days(), dataset.num_days());
    for &s in &targets {
        assert!(
            old.probability(&mut scratch, s).unwrap() > 0.0,
            "ingest into the pinned delta tail is visible to the pinned core ({s})"
        );
    }

    // The old base leaves the index; the old core keeps reading it.
    engine.compact().unwrap();
    assert_eq!(engine.st_index().delta_stats(), Default::default());
    let fresh = VerifierCore::new(engine.st_index(), start.segment, t, l).unwrap();
    let mut fresh_scratch = VerifierScratch::new();
    for &s in &segments {
        let pinned = old.probability(&mut scratch, s).unwrap();
        let now = fresh.probability(&mut fresh_scratch, s).unwrap();
        assert_eq!(pinned.to_bits(), now.to_bits(), "segment {s}");
    }
}
