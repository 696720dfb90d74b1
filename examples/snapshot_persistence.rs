//! Snapshot persistence: build the indexes once, save them to disk, then
//! reopen the engine in a "new process" without the trajectory dataset.
//!
//! Run with:
//! ```text
//! cargo run --release --example snapshot_persistence
//! ```

use std::sync::Arc;
use std::time::Instant;

use streach::prelude::*;

fn main() {
    let snapshot_dir = std::env::temp_dir().join("streach-example-snapshot");
    let _ = std::fs::remove_dir_all(&snapshot_dir);

    // --- Process 1: offline index construction -------------------------
    let city = SyntheticCity::generate(GeneratorConfig::small());
    let center = city.central_point();
    let network = Arc::new(city.network);
    let dataset = TrajectoryDataset::simulate(
        &network,
        FleetConfig {
            num_taxis: 30,
            num_days: 6,
            day_start_s: 0,
            day_end_s: 86_400,
            ..FleetConfig::default()
        },
    );

    let t0 = Instant::now();
    let engine = EngineBuilder::new(network.clone(), &dataset)
        .save_snapshot(&snapshot_dir)
        .expect("save snapshot");
    println!(
        "built and persisted the engine in {:.2} s -> {}",
        t0.elapsed().as_secs_f64(),
        snapshot_dir.display()
    );

    let query = SQuery {
        location: center,
        start_time_s: 11 * 3600,
        duration_s: 600,
        prob: 0.25,
    };
    let reference = engine
        .try_s_query(&query, Algorithm::SqmbTbs)
        .expect("s-query");
    println!(
        "fresh engine:    {} reachable segments, {:.1} km",
        reference.region.len(),
        reference.region.total_length_km
    );
    drop(engine);
    drop(dataset); // the snapshot must not need the trajectories again

    // --- Process 2: cold start from the snapshot -----------------------
    let t1 = Instant::now();
    let reopened =
        ReachabilityEngine::open_snapshot(&snapshot_dir, network).expect("open snapshot");
    println!(
        "reopened the engine from disk in {:.3} s (no dataset required)",
        t1.elapsed().as_secs_f64()
    );

    reopened.st_index().io_stats().reset();
    let cold = reopened
        .try_s_query(&query, Algorithm::SqmbTbs)
        .expect("s-query");
    println!(
        "reopened engine: {} reachable segments, {:.1} km ({} real page reads)",
        cold.region.len(),
        cold.region.total_length_km,
        cold.stats.io.page_reads
    );
    assert_eq!(
        reference.region.segments, cold.region.segments,
        "snapshot answers must be bit-identical"
    );
    println!("results are bit-identical across the snapshot round trip");

    let _ = std::fs::remove_dir_all(&snapshot_dir);
}
