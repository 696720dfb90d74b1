//! Online maintenance under load: a serving engine ingests a live feed
//! while background maintenance auto-checkpoints and compacts — queries
//! never stop, a crash loses nothing.
//!
//! The walkthrough: open a snapshot → attach the WAL → spawn the
//! [`MaintenanceController`] → ingest under concurrent query load (the
//! delta tail crosses `IndexConfig::auto_checkpoint_bytes`, so checkpoints
//! fire on their own; the delta/base ratio trigger folds the delta into a
//! fresh sealed base with one atomic pointer swap) → "crash" → recover from
//! the auto-checkpoint plus the WAL tail, bit-identically.
//!
//! Run with:
//! ```text
//! cargo run --release --example online_maintenance
//! ```

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use streach::core::{MaintenanceConfig, MaintenanceController};
use streach::prelude::*;
use streach::traj::points_of;

fn main() {
    let snapshot_dir = std::env::temp_dir().join("streach-example-maintenance");
    let _ = std::fs::remove_dir_all(&snapshot_dir);
    let wal_path = snapshot_dir.join("ingest.wal");

    // --- Offline: build and persist the engine over the historical data --
    let city = SyntheticCity::generate(GeneratorConfig::small());
    let center = city.central_point();
    let network = Arc::new(city.network);
    let base_days = 4u16;
    let live_days = 2u16;
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
        .index_config(IndexConfig {
            // A small threshold so the walkthrough visibly auto-checkpoints.
            auto_checkpoint_bytes: 64 * 1024,
            ..IndexConfig::default()
        })
        .save_snapshot(&snapshot_dir)
        .expect("save snapshot");
    println!(
        "offline build over {base_days} days -> {}",
        snapshot_dir.display()
    );

    // --- Serving: open, attach the WAL, start background maintenance -----
    let engine = Arc::new(
        ReachabilityEngine::open_snapshot(&snapshot_dir, network.clone()).expect("open snapshot"),
    );
    engine.attach_wal(&wal_path).expect("attach WAL");
    let controller = MaintenanceController::spawn(
        Arc::clone(&engine),
        &snapshot_dir,
        MaintenanceConfig {
            // Fold the delta once it reaches 30% of the base.
            compact_delta_ratio: Some(0.3),
            ..MaintenanceConfig::default()
        },
    );

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

    // --- The live feed, under concurrent query load ----------------------
    // Two query threads keep asking while the writer ingests; background
    // maintenance races both. Queries never block on a checkpoint or a
    // compaction — the sealed base swaps under them atomically.
    let live: Vec<&streach::traj::MatchedTrajectory> = full
        .trajectories()
        .iter()
        .filter(|t| t.date >= base_days)
        .collect();
    let stop = AtomicBool::new(false);
    let t0 = Instant::now();
    let (points, queries_served) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let engine = Arc::clone(&engine);
                let stop = &stop;
                let query = &query;
                scope.spawn(move || {
                    let mut served = 0usize;
                    while !stop.load(Ordering::Relaxed) {
                        let _ = engine
                            .try_s_query(query, Algorithm::SqmbTbs)
                            .expect("s-query");
                        served += 1;
                    }
                    served
                })
            })
            .collect();
        let mut points = 0usize;
        for traj in &live {
            let batch: Vec<TrajPoint> = points_of(traj).collect();
            points += engine.ingest(&batch).expect("ingest").points;
        }
        // One last deterministic pass so the walkthrough's counters are
        // populated before we report them.
        controller.run_now();
        stop.store(true, Ordering::Relaxed);
        let served: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
        (points, served)
    });
    let stats = controller.stats();
    println!(
        "ingested {points} points in {:.1} ms while serving {queries_served} queries",
        t0.elapsed().as_secs_f64() * 1e3
    );
    println!(
        "background maintenance: {} auto-checkpoints, {} compactions, {} errors",
        stats.checkpoints, stats.compactions, stats.errors
    );
    assert!(
        stats.checkpoints > 0,
        "the delta must have crossed the threshold"
    );
    assert!(stats.compactions > 0, "the ratio trigger must have fired");
    println!(
        "delta after maintenance: {:?} (compaction swapped in a fresh sealed base)",
        engine.st_index().delta_stats()
    );

    let expected = engine
        .try_s_query(&query, Algorithm::SqmbTbs)
        .expect("s-query");
    println!(
        "after ingest:   m = {} days, {} reachable segments, {:.1} km",
        engine.st_index().num_days(),
        expected.region.len(),
        expected.region.total_length_km
    );

    // --- Crash: the process dies between checkpoints ----------------------
    let errors = controller.shutdown();
    assert!(errors.is_empty(), "maintenance errors: {errors:?}");
    drop(engine);

    // --- Recovery: auto-checkpoint + WAL tail ----------------------------
    let recovered = ReachabilityEngine::open_snapshot(&snapshot_dir, network.clone())
        .expect("reopen auto-checkpoint");
    let attach = recovered.attach_wal(&wal_path).expect("replay WAL tail");
    println!(
        "recovery: replayed {} WAL records ({} points) on top of the last auto-checkpoint",
        attach.records_replayed, attach.points_replayed
    );
    let after = recovered
        .try_s_query(&query, Algorithm::SqmbTbs)
        .expect("s-query");
    assert_eq!(
        expected.region.segments, after.region.segments,
        "recovered engine must answer exactly like the pre-crash engine"
    );
    println!(
        "after recovery: m = {} days, {} reachable segments, {:.1} km (bit-identical) — done",
        recovered.st_index().num_days(),
        after.region.len(),
        after.region.total_length_km
    );

    std::fs::remove_dir_all(&snapshot_dir).ok();
}
