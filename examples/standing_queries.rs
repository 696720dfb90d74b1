//! Standing reachability queries: register once, get told when the
//! answer changes — instead of polling `try_s_query` after every batch.
//!
//! The walkthrough: open a snapshot → attach the WAL → spawn the
//! [`SubscriptionManager`] → register a region watch and a
//! threshold alert → ingest a live fleet-day (only subscriptions whose
//! read footprint the batch touched re-evaluate; events carry the old
//! and new region plus the trigger verdict) → ingest a slot-disjoint
//! night batch (zero re-evaluations — the footprint intersection does
//! all the work) → "crash" → reopen from the snapshot + WAL tail and
//! re-register: the first evaluation reproduces the pre-crash region
//! bit-for-bit.
//!
//! Run with:
//! ```text
//! cargo run --release --example standing_queries
//! ```

use std::sync::Arc;
use std::time::Duration;

use streach::core::subscribe::{SubscribeConfig, SubscriptionManager, Trigger};
use streach::prelude::*;
use streach::traj::points_of;

fn main() {
    let snapshot_dir = std::env::temp_dir().join("streach-example-subscriptions");
    let _ = std::fs::remove_dir_all(&snapshot_dir);
    let wal_path = snapshot_dir.join("ingest.wal");

    // --- Offline: build and persist the engine over the historical data --
    let city = SyntheticCity::generate(GeneratorConfig::small());
    let center = city.central_point();
    let network = Arc::new(city.network);
    let base_days = 4u16;
    let full = TrajectoryDataset::simulate(
        &network,
        FleetConfig {
            num_taxis: 25,
            num_days: base_days + 1,
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
    let live_day: Vec<TrajPoint> = full
        .trajectories()
        .iter()
        .filter(|t| t.date >= base_days)
        .flat_map(|t| points_of(t).collect::<Vec<_>>())
        .collect();
    streach::core::EngineBuilder::new(network.clone(), &base)
        .save_snapshot(&snapshot_dir)
        .expect("save snapshot");
    println!(
        "offline build over {base_days} days -> {}",
        snapshot_dir.display()
    );

    // The standing question: what is reachable from the city centre at
    // 09:00 within 10 minutes with probability >= 0.25?
    let watch = SQuery {
        location: center,
        start_time_s: 9 * 3600,
        duration_s: 600,
        prob: 0.25,
    };

    // A shadow engine tells us where the live day moves each candidate
    // answer, so we can place the alert on a query whose region *shrinks*
    // (a fresh date raises the day count — every probability's
    // denominator — so coverage that the new day does not repeat dilutes)
    // with a threshold provably between the two lengths: the alert then
    // fires exactly on the batch that crosses it.
    let shadow =
        ReachabilityEngine::open_snapshot(&snapshot_dir, network.clone()).expect("open shadow");
    let candidates: Vec<SQuery> = [(0.0, 0.0), (900.0, -600.0), (-1200.0, 800.0)]
        .iter()
        .flat_map(|&(dx, dy)| {
            [0.25, 0.6].map(|prob| SQuery {
                location: center.offset_m(dx, dy),
                start_time_s: 9 * 3600,
                duration_s: 600,
                prob,
            })
        })
        .collect();
    let before: Vec<f64> = candidates
        .iter()
        .map(|q| {
            shadow
                .try_s_query(q, Algorithm::SqmbTbs)
                .expect("shadow before")
                .region
                .total_length_km
        })
        .collect();
    shadow.ingest(&live_day).expect("shadow ingest");
    let (alert_query, threshold_km) = candidates
        .iter()
        .zip(&before)
        .find_map(|(q, &len_before)| {
            let len_after = shadow
                .try_s_query(q, Algorithm::SqmbTbs)
                .expect("shadow after")
                .region
                .total_length_km;
            (len_after < len_before).then(|| {
                println!(
                    "alert candidate at prob {}: {len_before:.2} km today, {len_after:.2} km once the day lands",
                    q.prob
                );
                (*q, (len_before + len_after) / 2.0)
            })
        })
        .expect("one candidate region shrinks when the live day lands");
    drop(shadow);

    // --- Serving: open, attach the WAL, register the subscriptions -------
    let engine = Arc::new(
        ReachabilityEngine::open_snapshot(&snapshot_dir, network.clone()).expect("open snapshot"),
    );
    engine.attach_wal(&wal_path).expect("attach WAL");
    let manager = SubscriptionManager::spawn(Arc::clone(&engine), SubscribeConfig::default());
    let watch_id = manager
        .subscribe(watch, Algorithm::SqmbTbs, Trigger::AnyRegionChange)
        .expect("register watch");
    let alert_id = manager
        .subscribe(
            alert_query,
            Algorithm::SqmbTbs,
            Trigger::LengthBelowKm(threshold_km),
        )
        .expect("register alert");
    // Registration evaluates once and reports the baseline (old region
    // `None`, trigger never fires on the first answer).
    for event in manager.poll_events() {
        if let SubscriptionEvent::Update(e) = event {
            println!(
                "registered {}: {:.2} km baseline",
                e.id, e.new_region.total_length_km
            );
        }
    }

    // --- A live fleet-day arrives -----------------------------------------
    // The ingest observer hands the batch's (slot, segment) touch set to
    // the background worker; both subscriptions' footprints intersect it,
    // so both re-evaluate. `run_now()` makes the pass synchronous here so
    // the walkthrough can print right away.
    engine.ingest(&live_day).expect("ingest live day");
    manager.run_now();
    for event in manager.poll_events() {
        match event {
            SubscriptionEvent::Update(e) => {
                let old_km = e.old_region.map(|r| r.total_length_km).unwrap_or(0.0);
                println!(
                    "gen {}: {} moved {:.2} km -> {:.2} km",
                    e.generation, e.id, old_km, e.new_region.total_length_km
                );
                if e.id == alert_id {
                    assert!(e.trigger_fired, "the shadow probe promised a crossing");
                    println!(
                        "        << ALERT: crossed below the {threshold_km:.2} km threshold exactly on this batch"
                    );
                }
            }
            other => println!("event: {other:?}"),
        }
    }

    // --- A slot-disjoint batch costs nothing ------------------------------
    // Shift the same points to the evening under fresh trajectory ids and
    // an already-known date: the touch set shares no slot with the 09:00
    // footprints, so the pass evaluates nothing.
    let night: Vec<TrajPoint> = live_day
        .iter()
        .map(|p| TrajPoint {
            traj_id: p.traj_id + 1_000_000,
            date: p.date % base_days,
            segment: p.segment,
            enter_time_s: (p.enter_time_s + 8 * 3600).min(streach::traj::SECONDS_PER_DAY - 1),
        })
        .collect();
    let queries_before = manager.stats().engine_queries;
    engine.ingest(&night).expect("ingest night batch");
    manager.run_now();
    println!(
        "slot-disjoint night batch: {} re-evaluations, {} events",
        manager.stats().engine_queries - queries_before,
        manager.poll_events().len()
    );
    let pre_crash = manager
        .last_region(watch_id)
        .expect("watch still registered")
        .expect("watch evaluated");

    // --- Crash and recover -------------------------------------------------
    // Subscriptions are in-memory serving state; durability comes from the
    // snapshot + WAL underneath. Drop everything without checkpointing,
    // reopen (the WAL tail replays), re-register, and the first evaluation
    // lands exactly where the pre-crash stream left off.
    manager.shutdown();
    drop(engine);
    println!(
        "crash! reopening from {} + WAL tail",
        snapshot_dir.display()
    );
    let recovered = Arc::new(
        ReachabilityEngine::open_snapshot(&snapshot_dir, network.clone()).expect("reopen snapshot"),
    );
    recovered.attach_wal(&wal_path).expect("replay WAL tail");
    let manager = SubscriptionManager::spawn(Arc::clone(&recovered), SubscribeConfig::default());
    let watch_id = manager
        .subscribe(watch, Algorithm::SqmbTbs, Trigger::AnyRegionChange)
        .expect("re-register watch");
    let event = manager
        .next_event(Duration::from_secs(10))
        .expect("baseline event");
    let recovered_region = match event {
        SubscriptionEvent::Update(e) => e.new_region,
        other => panic!("unexpected event after re-register: {other:?}"),
    };
    assert_eq!(recovered_region.segments, pre_crash.segments);
    assert_eq!(
        recovered_region.total_length_km.to_bits(),
        pre_crash.total_length_km.to_bits()
    );
    println!(
        "re-registered {watch_id}: {:.2} km — bit-identical to the pre-crash region",
        recovered_region.total_length_km
    );

    manager.shutdown();
    let _ = std::fs::remove_dir_all(&snapshot_dir);
}
