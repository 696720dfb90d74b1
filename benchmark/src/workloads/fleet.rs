//! `fleet`: 2 k-d shards × 2 WAL-shipped replicas each, a
//! `ReplicationController` per shard, replica-first reads. One live day of
//! ticks goes flat-out through `ShardedEngine::ingest` (clock stopped when
//! every replica set has converged); then one closed-loop caller runs the
//! `adhoc_warm` s-query list through the router. Router scatter/merge and WAL
//! shipping with follower apply do the extra work here and nowhere else:
//! against the single unsharded engine fed the same ticks, the difference
//! *is* the router's cost.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use streach_core::prelude::*;
use streach_core::{
    ReadPreference, ReplicaSet, ReplicationConfig, ReplicationController, ShardedEngine,
};

use super::{
    closed_loop, index_config, make_world, record_end_to_end, record_query_layers, timed_phase,
    Args, Run,
};
use crate::check;
use crate::inputs::{self, World};
use crate::metrics::{self, ms, Report};
use crate::trace::Trace;

const SHARDS: u16 = 2;
const REPLICAS: usize = 2;
const POOL_PAGES: usize = 8192;
const WAL_FILE: &str = "ingest.wal";
/// Ticks ingested before the controllers start, shipped by hand to time
/// `ReplicaSet::ship` alone (traced runs only).
const HAND_SHIPPED_TICKS: usize = 48;
/// Share of the first pass's answers an untraced run compares against the
/// single engine (a traced run compares all of them).
const CHECKED_SHARE: f64 = 0.25;

/// The fleet. Field order is drop order: controllers stop first.
struct Fleet {
    controllers: Vec<ReplicationController>,
    router: ShardedEngine,
    sets: Vec<Arc<ReplicaSet>>,
}

struct State {
    world: World,
    fleet: Fleet,
}

fn copy_dir(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).expect("create replica directory");
    for entry in std::fs::read_dir(from)
        .expect("read leader snapshot")
        .flatten()
    {
        if entry.file_type().is_ok_and(|t| t.is_file()) && entry.file_name() != WAL_FILE {
            std::fs::copy(entry.path(), to.join(entry.file_name())).expect("copy snapshot file");
        }
    }
}

fn setup(run: &mut Run<'_>) -> State {
    let world = make_world(run, 1);
    let root = run.work.fresh("fleet");
    let map = Arc::new(ShardMap::partition(&world.network, SHARDS));
    let mut leaders = Vec::new();
    let mut sets = Vec::new();
    let (mut build_s, mut save_s) = (0.0, 0.0);
    for shard in 0..SHARDS {
        let home = root.join(format!("shard{shard}"));
        let t0 = Instant::now();
        let leader = Arc::new(run.trace.span("builder.build", 0, |_| {
            EngineBuilder::new(world.network.clone(), &world.base)
                .index_config(index_config(POOL_PAGES))
                .shard(map.clone(), shard)
                .build()
        }));
        build_s += t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        run.trace
            .span("snapshot.full_save", 0, |_| {
                leader.save_snapshot_self_contained(&home)
            })
            .expect("save the shard snapshot");
        save_s += t0.elapsed().as_secs_f64();
        leader
            .attach_wal(home.join(WAL_FILE))
            .expect("attach the shard WAL");
        let set = Arc::new(ReplicaSet::new(leader.clone(), home.join(WAL_FILE)));
        for replica in 0..REPLICAS {
            let replica_home = root.join(format!("shard{shard}-replica{replica}"));
            copy_dir(&home, &replica_home);
            let engine = run
                .trace
                .span("snapshot.open_standalone", 0, |_| {
                    ReachabilityEngine::open_snapshot_standalone(&replica_home)
                })
                .expect("bootstrap a replica from the shipped snapshot");
            set.add_replica(Arc::new(engine), replica_home.join("follower.wal"))
                .expect("register the replica");
        }
        leaders.push(leader);
        sets.push(set);
    }
    // Both shards' builds and saves, summed.
    run.values.set("builder.build_s", build_s);
    run.values.set("snapshot.full_save_s", save_s);
    let mut router = ShardedEngine::new(map, leaders);
    for (shard, set) in sets.iter().enumerate() {
        for replica in 0..REPLICAS {
            router.add_replica(shard as u16, set.replica(replica));
        }
    }
    router.set_read_preference(ReadPreference::ReplicaFirst);
    State {
        world,
        fleet: Fleet {
            controllers: Vec::new(),
            router,
            sets,
        },
    }
}

fn all_converged(sets: &[Arc<ReplicaSet>]) -> bool {
    sets.iter().all(|set| set.converged())
}

/// Routed flat-out ingest of `ticks`; the clock stops when every replica of
/// every shard has applied everything. Returns (seconds, failed ingests,
/// last ack → converged in ms, highest lag seen in records).
fn routed_ingest(
    run: &mut Run<'_>,
    fleet: &Fleet,
    ticks: &[Vec<TrajPoint>],
) -> (f64, u64, f64, u64) {
    let sample_lag = run.args.trace;
    let (mut failed, mut max_lag) = (0u64, 0u64);
    let t0 = Instant::now();
    for tick in ticks {
        let routed = run
            .trace
            .span("sharded.ingest", 0, |_| fleet.router.ingest(tick));
        failed += u64::from(routed.is_err());
        if sample_lag {
            let lag = fleet.sets.iter().flat_map(|set| set.leader_lag()).max();
            max_lag = max_lag.max(lag.unwrap_or(0));
        }
    }
    let last_ack = Instant::now();
    run.trace.span("replicate.converge", 0, |_| {
        while !all_converged(&fleet.sets) {
            for controller in &fleet.controllers {
                controller.kick();
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    });
    (
        t0.elapsed().as_secs_f64(),
        failed,
        ms(last_ack.elapsed()),
        max_lag,
    )
}

pub fn run(args: &Args, epoch: Instant) -> (Report, Trace) {
    let mut run = Run::new(args, "fleet", epoch);
    let State { world, mut fleet } = run.setup(setup);
    let queries = inputs::s_queries(args.seed, &world.network);
    let ticks = &world.live_days[0];

    // The single unsharded engine every routed answer is compared against,
    // fed the same ticks. It is the checker, not part of the fleet's set-up.
    let reference = run.span("reference", |run| {
        let reference = run.trace.span("builder.build", 0, |_| {
            EngineBuilder::new(world.network.clone(), &world.base)
                .index_config(index_config(POOL_PAGES))
                .build()
        });
        for tick in ticks {
            reference.ingest(tick).expect("volatile reference ingest");
        }
        reference
    });

    run.span("ingest", |run| {
        let mut live = &ticks[..];
        if run.args.trace {
            // `ReplicaSet::ship` alone: the controllers are not running yet.
            let (by_hand, rest) = ticks.split_at(HAND_SHIPPED_TICKS);
            live = rest;
            let mut points = 0u64;
            for tick in by_hand {
                fleet.router.ingest(tick).expect("routed ingest");
                points += tick.len() as u64;
            }
            let t0 = Instant::now();
            for set in &fleet.sets {
                run.trace
                    .span("replicate.ship", 0, |_| set.ship())
                    .expect("ship by hand");
            }
            let shipping = t0.elapsed();
            run.values.set(
                "replicate.ship_ms_per_call",
                ms(shipping) / fleet.sets.len() as f64,
            );
            run.values.set(
                "replicate.ship_points_per_s",
                points as f64 / shipping.as_secs_f64(),
            );
            run.count(HAND_SHIPPED_TICKS as u64, 0, "hand-shipped routed ingests");
        }
        fleet.controllers = fleet
            .sets
            .iter()
            .map(|set| ReplicationController::spawn(set.clone(), ReplicationConfig::default()))
            .collect();
        let points: u64 = live.iter().map(|t| t.len() as u64).sum();
        let (seconds, failed, converge_ms, max_lag) = routed_ingest(run, &fleet, live);
        run.count(live.len() as u64, failed, "routed durable ingests");
        run.values
            .set("ingest_points_per_s", points as f64 / seconds);
        run.values.set("replicate.converge_ms", converge_ms);
        run.values.set("replicate.max_lag_records", max_lag as f64);
        run.notes.push(format!(
            "routed ingest: {} ticks, {points} points, all replicas converged after {seconds:.3} s",
            live.len()
        ));
    });

    let exec = |q: &SQuery| fleet.router.try_s_query(q, Algorithm::SqmbTbs);
    run.span("warmup", |run| {
        closed_loop(run, "sharded.try_s_query", &queries, 0.0, exec)
    });
    let timed = timed_phase(&mut run, |run, seconds| {
        closed_loop(run, "sharded.try_s_query", &queries, seconds, exec)
    });
    let stats = timed.phase_stats();
    record_end_to_end(&mut run, &stats, timed.passes);
    run.count(
        stats.samples as u64,
        timed.errors + timed.unstable,
        "routed s-queries (typed error or unstable answer)",
    );
    record_query_layers(&mut run.values, &queries, &timed);
    let straddling = (0..queries.len())
        .filter_map(|i| timed.answer(i))
        .filter(|region| {
            let first = region.segments.first().map(|s| fleet.router.route_of(*s));
            region
                .segments
                .iter()
                .any(|s| Some(fleet.router.route_of(*s)) != first)
        })
        .count();
    run.values.set(
        "sharded.straddling_share",
        straddling as f64 / queries.len() as f64,
    );

    run.span("check", |run| {
        let share = if run.args.trace { 1.0 } else { CHECKED_SHARE };
        let sample = check::sample_indices(run.args.seed, queries.len(), share);
        let wrong = sample
            .iter()
            .filter(|&&i| {
                let want = reference.try_s_query(&queries[i], Algorithm::SqmbTbs);
                match (timed.answer(i), want) {
                    (Some(got), Ok(want)) => !check::same_region(got, &want.region),
                    _ => true,
                }
            })
            .count();
        run.count(
            sample.len() as u64,
            wrong as u64,
            "routed answers vs the single unsharded engine",
        );
        if run.args.trace {
            // A second, warm pass over the single engine (the first built its
            // Con-Index tables): the same list without the router.
            let single = closed_loop(run, "engine.try_s_query", &queries, 0.0, |q| {
                reference.try_s_query(q, Algorithm::SqmbTbs)
            });
            run.values.set(
                "sharded.router_overhead_ms",
                metrics::median(&timed.latencies_ms) - metrics::median(&single.latencies_ms),
            );
        }
    });
    run.finish()
}
