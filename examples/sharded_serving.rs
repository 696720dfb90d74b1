//! Sharded serving: partition the road network into spatial shards, serve
//! queries through a scatter-gather router, ship the leaders' WALs to read
//! replicas in the background with a lag SLO, and fail a shard over to its
//! replica with a fenced promotion — the deposed leader's next write fails
//! typed — with every answer bit-identical to a single unsharded engine.
//!
//! Run with:
//! ```text
//! cargo run --release --example sharded_serving
//! ```

use std::sync::Arc;

use streach::prelude::*;

const NUM_SHARDS: u16 = 3;

fn main() {
    let root = std::env::temp_dir().join("streach-example-sharded");
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).expect("create working dir");

    // --- Offline: one fleet history, one spatial partition ---------------
    let city = SyntheticCity::generate(GeneratorConfig::small());
    let center = city.central_point();
    let network = Arc::new(city.network);
    let base_days = 3u16;
    let live_days = 1u16;
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

    // The deterministic k-d cut over segment midpoints: every segment's
    // postings live on exactly one shard; speed statistics stay global.
    let map = Arc::new(ShardMap::partition(&network, NUM_SHARDS));
    for shard_id in 0..NUM_SHARDS {
        println!(
            "shard {shard_id}: owns {} of {} segments",
            map.segments_of(shard_id).len(),
            network.num_segments()
        );
    }

    // The unsharded baseline every sharded answer is compared against.
    let single = streach::core::EngineBuilder::new(network.clone(), &base).build();

    // --- Shard leaders: build, persist self-contained, go live -----------
    // Each leader indexes the full history but keeps only its owned
    // postings; the self-contained snapshot (network embedded) is the
    // artifact a replica host bootstraps from, with no side channel.
    let mut leaders = Vec::new();
    let mut homes = Vec::new();
    for shard_id in 0..NUM_SHARDS {
        let home = root.join(format!("shard{shard_id}"));
        let leader = Arc::new(
            streach::core::EngineBuilder::new(network.clone(), &base)
                .shard(map.clone(), shard_id)
                .build(),
        );
        leader
            .save_snapshot_self_contained(&home)
            .expect("save shard snapshot");
        leader
            .attach_wal(home.join("ingest.wal"))
            .expect("attach shard WAL");
        leaders.push(leader);
        homes.push(home);
    }

    // --- Replicas: bootstrap from shipped artifacts alone -----------------
    // Copy the snapshot directory (what an object store or rsync would
    // move), open it standalone, and register it for WAL shipping.
    let mut sets = Vec::new();
    for shard_id in 0..NUM_SHARDS as usize {
        let replica_home = root.join(format!("shard{shard_id}-replica"));
        copy_dir(&homes[shard_id], &replica_home);
        let _ = std::fs::remove_file(replica_home.join("ingest.wal"));
        let replica = Arc::new(
            ReachabilityEngine::open_snapshot_standalone(&replica_home)
                .expect("bootstrap replica from snapshot"),
        );
        let set = Arc::new(ReplicaSet::new(
            leaders[shard_id].clone(),
            homes[shard_id].join("ingest.wal"),
        ));
        set.add_replica(replica, replica_home.join("follower.wal"))
            .expect("register replica");
        sets.push(set);
    }

    // --- The router: scatter-gather over leaders + replicas ---------------
    let mut router = ShardedEngine::new(map.clone(), leaders.clone());
    for (shard_id, set) in sets.iter().enumerate() {
        router.add_replica(shard_id as u16, set.replica(0));
    }

    let query = SQuery {
        location: center,
        start_time_s: 9 * 3600,
        duration_s: 600,
        prob: 0.25,
    };
    let want = single
        .try_s_query(&query, Algorithm::SqmbTbs)
        .expect("s-query");
    let got = router
        .try_s_query(&query, Algorithm::SqmbTbs)
        .expect("sharded query");
    assert_eq!(want.region.segments, got.region.segments);
    let start = single.try_locate(&query.location).expect("locate");
    println!(
        "query at shard {}: {} reachable segments, {:.1} km — bit-identical to the single engine",
        map.shard_of(start),
        got.region.len(),
        got.region.total_length_km
    );
    let spanned: std::collections::BTreeSet<u16> = got
        .region
        .segments
        .iter()
        .map(|&s| map.shard_of(s))
        .collect();
    println!(
        "the reachable annulus straddles {} shard(s): {spanned:?}",
        spanned.len()
    );

    // --- Live ingest, shipped to the replicas in the background -----------
    // One ReplicationController per replica set owns ship() on a cadence
    // and watches per-replica lag against the configured SLO; run_now() is
    // the deterministic barrier this example uses instead of sleeping.
    let controllers: Vec<ReplicationController> = sets
        .iter()
        .map(|set| {
            ReplicationController::spawn(
                set.clone(),
                ReplicationConfig {
                    lag_slo_records: 256,
                    ..ReplicationConfig::default()
                },
            )
        })
        .collect();
    let live: Vec<Vec<TrajPoint>> = full
        .trajectories()
        .iter()
        .filter(|t| t.date >= base_days)
        .map(|t| points_of(t).collect())
        .collect();
    for batch in &live {
        single.ingest(batch).expect("single ingest");
        router.ingest(batch).expect("sharded ingest");
    }
    let mut shipped = 0;
    for (set, ctl) in sets.iter().zip(&controllers) {
        ctl.run_now();
        shipped += ctl.stats().records_shipped;
        assert!(set.converged(), "replica must converge after shipping");
        assert_eq!(ctl.lag(), vec![0], "lag observable through the controller");
    }
    println!(
        "ingested day {base_days} at every leader; background shipping moved {shipped} WAL records; all replicas converged (lag 0)"
    );

    // Replica-first reads: query I/O moves off the ingest path, answers
    // stay bit-identical because converged replicas hold the same bytes.
    router.set_read_preference(ReadPreference::ReplicaFirst);
    let want = single
        .try_s_query(&query, Algorithm::SqmbTbs)
        .expect("s-query");
    let got = router
        .try_s_query(&query, Algorithm::SqmbTbs)
        .expect("replica read");
    assert_eq!(want.region.segments, got.region.segments);
    println!(
        "replica-first read after ingest: {} segments, {:.1} km — still bit-identical",
        got.region.len(),
        got.region.total_length_km
    );

    // --- Checkpoint with ship-before-rotate -------------------------------
    for (shard_id, set) in sets.iter().enumerate() {
        set.checkpoint_leader(&homes[shard_id])
            .expect("checkpoint leader");
    }
    println!("checkpointed every leader (tail shipped before the WAL rotated)");

    // --- Failover: promote shard 0's replica — fenced ----------------------
    // The promotion bumps the fence epoch, persists it with the promoted
    // engine, and fences the deposed leader's WAL *before* the new leader
    // accepts a write: even a partitioned-but-alive old leader can no
    // longer ack anything.
    let (promoted, attach) = sets[0].promote(0).expect("promote replica");
    println!(
        "shard 0 leader lost: promoted its replica (replayed {} shipped records)",
        attach.records_replayed
    );
    router.install_leader(0, promoted.clone());
    router
        .ingest(&live[0])
        .expect("fleet accepts writes through the promoted leader");
    let fenced = leaders[0]
        .ingest(&live[0])
        .expect_err("deposed leader must be fenced");
    println!("deposed leader's next ingest failed typed: {fenced}");
    single.ingest(&live[0]).expect("reference ingest");
    // The retired set's controller observes the fence and parks.
    controllers[0].run_now();
    let events = controllers[0].take_events();
    assert!(
        events
            .iter()
            .any(|e| matches!(e, ReplicationEvent::Fenced { .. })),
        "controller surfaces the fence as a typed event: {events:?}"
    );

    router.set_read_preference(ReadPreference::Leader);
    let want = single
        .try_s_query(&query, Algorithm::SqmbTbs)
        .expect("s-query");
    let got = router
        .try_s_query(&query, Algorithm::SqmbTbs)
        .expect("query after failover");
    assert_eq!(want.region.segments, got.region.segments);
    println!(
        "after failover: {} segments, {:.1} km — bit-identical, no data lost",
        got.region.len(),
        got.region.total_length_km
    );

    drop(controllers);
    std::fs::remove_dir_all(&root).ok();
}

/// Copies a snapshot directory file by file — standing in for the object
/// store or rsync that ships artifacts between hosts.
fn copy_dir(src: &std::path::Path, dst: &std::path::Path) {
    std::fs::create_dir_all(dst).expect("create replica dir");
    for entry in std::fs::read_dir(src).expect("read snapshot dir").flatten() {
        if entry.file_type().map(|t| t.is_file()).unwrap_or(false) {
            std::fs::copy(entry.path(), dst.join(entry.file_name())).expect("copy artifact");
        }
    }
}
