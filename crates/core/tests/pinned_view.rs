//! A `VerifierCore` pins one index view when it is built and reads every
//! posting through it. Ingest folded into the pinned delta tail stays
//! visible; a compaction publishing a new sealed base neither changes the
//! answers nor leaves the old core reading a base that is gone. The old
//! core reads its window forward, through trajectory views of the old base
//! built before it, while the new base starts with none.

use std::sync::Arc;

use streach_core::config::IndexConfig;
use streach_core::query::verifier::VerifierCore;
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
        .index_config(IndexConfig::default())
        .build();

    let traj = &dataset.trajectories()[0];
    let start = traj.visits[0];
    let (t, l) = (start.enter_time_s, 900);
    let segments: Vec<SegmentId> = network.segment_ids().collect();
    // Two verifications of the window build its slots' views on the base.
    let ask = || {
        VerifierCore::new(engine.st_index(), start.segment, t, l)
            .unwrap()
            .probabilities(&segments)
            .unwrap()
    };
    let segment_major = ask();
    assert_eq!(ask(), segment_major);
    let views = engine.st_index().view_stats();
    assert!(views.views_built > 0, "{views:?}");
    let old = VerifierCore::new(engine.st_index(), start.segment, t, l).unwrap();
    assert!(old.active_days() > 0, "the start segment must be active");

    // Segments the start trajectory does not reach yet; ingest makes it
    // pass them inside the window, on a date it already has (so neither
    // the day count nor the start segment's list changes).
    let last = traj.visits.last().unwrap().segment;
    let forward = old.probabilities(&segments).unwrap();
    assert_eq!(forward, segment_major);
    let targets: Vec<SegmentId> = segments
        .iter()
        .zip(forward)
        .filter(|&(&s, p)| s != start.segment && s != last && p == 0.0)
        .map(|(&s, _)| s)
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
    for (&s, p) in targets.iter().zip(old.probabilities(&targets).unwrap()) {
        assert!(
            p > 0.0,
            "ingest into the pinned delta tail is visible to the pinned core ({s})"
        );
    }

    // The old base leaves the index; the old core keeps reading it.
    engine.compact().unwrap();
    assert_eq!(engine.st_index().delta_stats(), Default::default());
    assert_eq!(engine.st_index().view_stats(), Default::default());
    let pinned = old.probabilities(&segments).unwrap();
    // The new base: segment-major, then build, then forward.
    for ask_no in 0..3 {
        let now = ask();
        for ((&s, pinned), now) in segments.iter().zip(&pinned).zip(now) {
            assert_eq!(pinned.to_bits(), now.to_bits(), "segment {s}, ask {ask_no}");
        }
    }
    assert_eq!(
        engine.st_index().view_stats().views_built,
        views.views_built
    );
}
