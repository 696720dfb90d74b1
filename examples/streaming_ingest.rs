//! Streaming ingest: open a snapshot, keep absorbing the fleet's new
//! trajectory points through a write-ahead log, checkpoint incrementally,
//! and reopen after a "crash" without losing an acknowledged point.
//!
//! Run with:
//! ```text
//! cargo run --release --example streaming_ingest
//! ```

use std::sync::Arc;
use std::time::Instant;

use streach::prelude::*;
use streach::traj::points_of;

fn main() {
    let snapshot_dir = std::env::temp_dir().join("streach-example-streaming");
    let _ = std::fs::remove_dir_all(&snapshot_dir);
    let wal_path = snapshot_dir.join("ingest.wal");

    // --- Offline: build and persist the engine over the historical data --
    let city = SyntheticCity::generate(GeneratorConfig::small());
    let center = city.central_point();
    let network = Arc::new(city.network);
    let base_days = 4u16;
    let live_days = 2u16;
    // One simulation so trajectory IDs stay consistent; the last `live_days`
    // stand in for data that has not arrived yet at build time.
    let full = TrajectoryDataset::simulate(
        &network,
        FleetConfig {
            num_taxis: 25,
            num_days: base_days + live_days,
            day_start_s: 8 * 3600,
            day_end_s: 14 * 3600,
            ..FleetConfig::default()
        },
    );
    let base = TrajectoryDataset::from_matched(
        full.trajectories()
            .iter()
            .filter(|t| t.date < base_days)
            .cloned()
            .collect(),
        full.num_taxis(),
        base_days,
    );
    streach::core::EngineBuilder::new(network.clone(), &base)
        .save_snapshot(&snapshot_dir)
        .expect("save snapshot");
    println!(
        "offline build over {} days -> {}",
        base_days,
        snapshot_dir.display()
    );

    // --- Serving process: open the snapshot, attach the WAL, go live -----
    let engine =
        ReachabilityEngine::open_snapshot(&snapshot_dir, network.clone()).expect("open snapshot");
    engine.attach_wal(&wal_path).expect("attach WAL");

    let query = SQuery {
        location: center,
        start_time_s: 9 * 3600,
        duration_s: 600,
        prob: 0.25,
    };
    let before = engine
        .try_s_query(&query, Algorithm::SqmbTbs)
        .expect("s-query");
    println!(
        "before ingest:  m = {} days, {} reachable segments, {:.1} km",
        engine.st_index().num_days(),
        before.region.len(),
        before.region.total_length_km
    );

    // The "live feed": day `base_days` arrives trajectory by trajectory.
    let live: Vec<&streach::traj::MatchedTrajectory> = full
        .trajectories()
        .iter()
        .filter(|t| t.date >= base_days)
        .collect();
    let split = live.len() / 2;
    let t0 = Instant::now();
    let mut points = 0usize;
    for traj in &live[..split] {
        let batch: Vec<TrajPoint> = points_of(traj).collect();
        points += engine.ingest(&batch).expect("ingest").points;
    }
    println!(
        "ingested {} points ({} trajectories) through the WAL in {:.1} ms",
        points,
        split,
        t0.elapsed().as_secs_f64() * 1e3
    );

    let mid = engine
        .try_s_query(&query, Algorithm::SqmbTbs)
        .expect("s-query");
    println!(
        "after ingest:   m = {} days, {} reachable segments, {:.1} km (base + delta, no rebuild)",
        engine.st_index().num_days(),
        mid.region.len(),
        mid.region.total_length_km
    );

    // Checkpoint: chains the delta onto the snapshot and rotates the WAL.
    let t1 = Instant::now();
    engine
        .save_incremental_snapshot(&snapshot_dir)
        .expect("incremental checkpoint");
    println!(
        "incremental checkpoint in {:.1} ms (base page file untouched)",
        t1.elapsed().as_secs_f64() * 1e3
    );

    // More live data arrives... and the process dies without checkpointing.
    for traj in &live[split..] {
        let batch: Vec<TrajPoint> = points_of(traj).collect();
        engine.ingest(&batch).expect("ingest");
    }
    let expected = engine
        .try_s_query(&query, Algorithm::SqmbTbs)
        .expect("s-query");
    drop(engine); // <- crash: everything after the checkpoint is WAL-only

    // --- Recovery: reopen the checkpoint, replay the WAL tail ------------
    let recovered = ReachabilityEngine::open_snapshot(&snapshot_dir, network.clone())
        .expect("reopen checkpoint");
    let attach = recovered.attach_wal(&wal_path).expect("replay WAL");
    println!(
        "recovery: replayed {} WAL records ({} points), {} torn bytes discarded",
        attach.records_replayed, attach.points_replayed, attach.truncated_bytes
    );
    let after = recovered
        .try_s_query(&query, Algorithm::SqmbTbs)
        .expect("s-query");
    assert_eq!(
        expected.region.segments, after.region.segments,
        "recovered engine must answer exactly like the pre-crash engine"
    );
    println!(
        "after recovery: m = {} days, {} reachable segments, {:.1} km (bit-identical to pre-crash)",
        recovered.st_index().num_days(),
        after.region.len(),
        after.region.total_length_km
    );

    // --- Maintenance: fold the delta into a new sealed base --------------
    let t2 = Instant::now();
    let folded = recovered.compact().expect("compact");
    println!(
        "compacted {} delta lists ({} bytes) into a sealed base in {:.1} ms",
        folded.delta_lists,
        folded.delta_bytes,
        t2.elapsed().as_secs_f64() * 1e3
    );
    let compacted = recovered
        .try_s_query(&query, Algorithm::SqmbTbs)
        .expect("s-query");
    assert_eq!(compacted.region.segments, after.region.segments);
    println!("queries unchanged after compaction — done");

    std::fs::remove_dir_all(&snapshot_dir).ok();
}
