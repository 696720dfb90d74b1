//! `ingest` — measures the streaming-ingest subsystem end to end and
//! records the result in `BENCH_ingest.json`.
//!
//! ```text
//! cargo run --release -p streach-bench --bin ingest [-- --quick] [-- --group-commit] [-- --concurrent-queries] [-- --cold-path] [-- --sharded] [-- --serving] [-- --subscriptions] [-- --replication]
//! ```
//!
//! `--group-commit` runs only the multi-writer WAL group-commit comparison
//! (1 vs 4 concurrent ingest threads sharing fsyncs); `--concurrent-queries`
//! runs only the queries-under-ingest-load section (query latency while a
//! writer ingests and a background [`MaintenanceController`] auto-checkpoints
//! and compacts); `--cold-path` runs only the cold-path storage comparison
//! (bytes on disk, cold-open time and cold-query latency, file vs mmap
//! backend — **gated**: the cold query's decoded (fixed-width-equivalent)
//! posting bytes must be at least [`COLD_PATH_RATIO_GATE`]× its resident
//! bytes, and the mmap backend must answer bit-identically to the file
//! backend, or the process exits non-zero); `--sharded` runs only
//! the shard-scaling section (aggregate s-query throughput through a 1-, 2-
//! and 4-shard scatter-gather router, **gated**: every sharded answer must be
//! bit-identical to the unsharded baseline); `--serving` runs only the
//! serving front-end matrix (open-loop p50/p99 submission-to-answer latency
//! through a [`QueryServer`] at 1/4/16/64 simulated clients × coalescing
//! on/off × result cache on/off, **gated**: every ticket's region must be
//! bit-identical to the serial uncoalesced answer); `--subscriptions` runs
//! only the standing-subscription matrix (incremental footprint-filtered
//! re-evaluation vs forced full re-evaluation at 100/1k/10k standing
//! queries — **gated**: every subscription's region must stay bit-identical
//! across the two modes after every batch, and the incremental side must
//! issue strictly fewer engine queries than the full side on slot-disjoint
//! batches); `--replication` runs only the replication tier (WAL ship
//! throughput to 1/2/4 replicas and lag-recovery time after an ingest
//! burst under the background `ReplicationController` — **gated**: every
//! replica must answer bit-identically to its leader after convergence and
//! the controller must land every replica under the lag SLO). With no mode
//! flag every section runs and the results — including the `cold_path`,
//! `serving`, `subscriptions` and `replication` objects — are written to
//! `BENCH_ingest.json`; a mode-only run prints its table (and enforces its
//! gates) without touching the JSON — **except `--serving`,
//! `--subscriptions` and `--replication`**, which merge their section into
//! an existing `BENCH_ingest.json` (or create a stub) so CI can smoke-test
//! the section without paying for the full bench.
//!
//! Scenario: a base fleet is built and snapshotted, the snapshot is
//! reopened as a serving engine, and the remaining fleet-days arrive as
//! trajectory-point batches. Measured:
//!
//! * **WAL-backed ingest throughput** (points/s through append + fsync +
//!   delta merge) and **volatile ingest throughput** (no WAL — isolates
//!   the durability cost),
//! * **query latency** (SQMB+TBS median) before ingest, over base + delta,
//!   and after compaction,
//! * **incremental vs full snapshot save** (the incremental path skips the
//!   unchanged base page file) and **compaction** wall time.
//!
//! The run doubles as a correctness smoke: the ingested engine's answer to
//! a probe workload must be bit-identical to a from-scratch build on the
//! combined dataset, and the process exits non-zero otherwise.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use streach_bench::timing::measure;
use streach_core::prelude::*;
use streach_core::{EngineBuilder, MaintenanceConfig, MaintenanceController, StorageBackend};
use streach_traj::points_of;

/// A cold query must decode at least this many fixed-width-equivalent
/// posting bytes per resident byte it reads (checked on every
/// `--cold-path` run).
const COLD_PATH_RATIO_GATE: f64 = 1.5;

/// One cold-path measurement cell: the snapshot served by one backend.
struct ColdCell {
    label: &'static str,
    open_s: f64,
    cold_query_ms: f64,
}

/// Cold-path storage measurement: the fleet snapshotted once, then
/// cold-opened and probed through both sealed-page backends (buffered file
/// reads and the read-only memory mapping). Returns the page-file size, the
/// two measurement cells, the file run's decoded/resident ratio
/// ([`IoStatsSnapshot::decode_ratio`](streach_storage::IoStatsSnapshot)),
/// and whether the mmap backend answered the probe bit-identically to the
/// file backend.
fn run_cold_path(
    network: &Arc<RoadNetwork>,
    dataset: &TrajectoryDataset,
    config: &IndexConfig,
    probe: &SQuery,
) -> (u64, Vec<ColdCell>, f64, bool) {
    let dir = tmp_dir("bench-cold");
    EngineBuilder::new(network.clone(), dataset)
        .index_config(config.clone())
        .save_snapshot(&dir)
        .expect("save cold-path snapshot");
    let pages_bytes = std::fs::metadata(dir.join(streach_core::snapshot::PAGES_FILE))
        .expect("pages file")
        .len();

    let mut cells = Vec::new();
    let mut regions: Vec<(Vec<SegmentId>, u64)> = Vec::new();
    let mut decode_ratio = 0.0;
    for (label, backend) in [
        ("file", StorageBackend::File),
        ("mmap", StorageBackend::Mmap),
    ] {
        let t0 = Instant::now();
        let engine = ReachabilityEngine::open_snapshot_with_backend(&dir, network.clone(), backend)
            .expect("cold open");
        let open_s = t0.elapsed().as_secs_f64();
        engine.st_index().clear_cache();
        engine.st_index().io_stats().reset();
        let t0 = Instant::now();
        let outcome = engine
            .try_s_query(probe, Algorithm::SqmbTbs)
            .expect("s-query");
        let cold_query_ms = t0.elapsed().as_secs_f64() * 1e3;
        if backend == StorageBackend::File {
            decode_ratio = engine.st_index().io_stats().snapshot().decode_ratio();
        }
        cells.push(ColdCell {
            label,
            open_s,
            cold_query_ms,
        });
        regions.push((
            outcome.region.segments,
            outcome.region.total_length_km.to_bits(),
        ));
    }
    std::fs::remove_dir_all(&dir).ok();
    (pages_bytes, cells, decode_ratio, regions[0] == regions[1])
}

/// Multi-writer group-commit comparison: the same batch stream ingested by
/// 1 and by `writers` concurrent threads through one WAL each (round-robin
/// partition). Returns points/s per writer count; asserts both converge on
/// the same probe answer.
fn run_group_commit(
    dir: &std::path::Path,
    network: &Arc<RoadNetwork>,
    batches: &[Vec<TrajPoint>],
    probe: &SQuery,
    writers: usize,
) -> (f64, f64) {
    let total_points: usize = batches.iter().map(Vec::len).sum();
    let mut throughput = [0.0f64; 2];
    let mut expected: Option<Vec<SegmentId>> = None;
    for (case, count) in [(0usize, 1usize), (1, writers)] {
        let engine = Arc::new(
            ReachabilityEngine::open_snapshot(dir, network.clone()).expect("open snapshot"),
        );
        let wal = dir.join(format!("group-{count}.wal"));
        let _ = std::fs::remove_file(&wal);
        engine.attach_wal(&wal).expect("attach WAL");
        let t0 = Instant::now();
        std::thread::scope(|scope| {
            for w in 0..count {
                let engine = Arc::clone(&engine);
                scope.spawn(move || {
                    for batch in batches.iter().skip(w).step_by(count) {
                        engine.ingest(batch).expect("group-commit ingest");
                    }
                });
            }
        });
        throughput[case] = total_points as f64 / t0.elapsed().as_secs_f64().max(1e-9);
        let region = engine
            .try_s_query(probe, Algorithm::SqmbTbs)
            .expect("s-query")
            .region
            .segments;
        match &expected {
            None => expected = Some(region),
            Some(e) => assert_eq!(
                e, &region,
                "concurrent group-commit ingest diverged from single-writer"
            ),
        }
        std::fs::remove_file(&wal).ok();
    }
    (throughput[0], throughput[1])
}

/// Queries racing ingest + background maintenance: 2 query threads hammer
/// the probe while the main thread ingests every batch through the WAL and
/// a [`MaintenanceController`] auto-checkpoints / compacts on its own
/// cadence. Returns (ingest points/s, query median ms under load,
/// checkpoints, compactions).
fn run_concurrent_queries(
    dir: &std::path::Path,
    network: &Arc<RoadNetwork>,
    batches: &[Vec<TrajPoint>],
    probe: &SQuery,
) -> (f64, f64, u64, u64) {
    use std::sync::atomic::{AtomicBool, Ordering};

    let total_points: usize = batches.iter().map(Vec::len).sum();
    let engine =
        Arc::new(ReachabilityEngine::open_snapshot(dir, network.clone()).expect("open snapshot"));
    engine.attach_wal(dir.join("ingest.wal")).expect("attach");
    let controller =
        MaintenanceController::spawn(Arc::clone(&engine), dir, MaintenanceConfig::default());
    let stop = AtomicBool::new(false);
    let (elapsed, mut latencies) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let engine = Arc::clone(&engine);
                let stop = &stop;
                scope.spawn(move || {
                    let mut lat = Vec::new();
                    while !stop.load(Ordering::Relaxed) {
                        let t = Instant::now();
                        let _ = engine
                            .try_s_query(probe, Algorithm::SqmbTbs)
                            .expect("s-query");
                        lat.push(t.elapsed().as_secs_f64() * 1e3);
                    }
                    lat
                })
            })
            .collect();
        let t0 = Instant::now();
        for batch in batches {
            engine.ingest(batch).expect("ingest under query load");
        }
        let elapsed = t0.elapsed();
        controller.run_now();
        stop.store(true, Ordering::Relaxed);
        let latencies: Vec<f64> = handles
            .into_iter()
            .flat_map(|h| h.join().expect("query thread"))
            .collect();
        (elapsed, latencies)
    });
    let stats = controller.stats();
    let errors = controller.shutdown();
    assert!(
        errors.is_empty(),
        "maintenance errors under load: {errors:?}"
    );
    latencies.sort_by(f64::total_cmp);
    let median = latencies
        .get(latencies.len() / 2)
        .copied()
        .unwrap_or(f64::NAN);
    (
        total_points as f64 / elapsed.as_secs_f64().max(1e-9),
        median,
        stats.checkpoints,
        stats.compactions,
    )
}

/// Shard-scaling comparison: the same dataset served through a 1-, 2- and
/// 4-shard scatter-gather router ([`ShardedEngine`]); per shard count,
/// measures partition + per-shard index build time and aggregate s-query
/// throughput over a spread workload (locations across the network, so
/// reachable annuli straddle shard boundaries). Every sharded answer is
/// checked bit-identical to the unsharded baseline. Returns
/// `(shards, build_s, queries_per_s)` cells plus the identity verdict.
fn run_shard_scaling(
    network: &Arc<RoadNetwork>,
    dataset: &TrajectoryDataset,
    config: &IndexConfig,
    iterations: usize,
) -> (Vec<(u16, f64, f64)>, bool) {
    let b = network.bounds();
    let center = b.center();
    let (dlon, dlat) = (b.max_lon - b.min_lon, b.max_lat - b.min_lat);
    let mut workload = Vec::new();
    for (fx, fy) in [
        (0.0, 0.0),
        (0.2, 0.1),
        (-0.15, -0.1),
        (0.1, -0.2),
        (-0.2, 0.15),
    ] {
        for (start, duration) in [(9 * 3600u32, 600u32), (10 * 3600, 900)] {
            workload.push(SQuery {
                location: GeoPoint::new(center.lon + dlon * fx, center.lat + dlat * fy),
                start_time_s: start,
                duration_s: duration,
                prob: 0.25,
            });
        }
    }
    let baseline = EngineBuilder::new(network.clone(), dataset)
        .index_config(config.clone())
        .build();
    let expected: Vec<(Vec<SegmentId>, u64)> = workload
        .iter()
        .map(|q| {
            let o = baseline
                .try_s_query(q, Algorithm::SqmbTbs)
                .expect("s-query");
            (o.region.segments, o.region.total_length_km.to_bits())
        })
        .collect();

    let mut cells = Vec::new();
    let mut identical = true;
    for shards in [1u16, 2, 4] {
        let t0 = Instant::now();
        let map = Arc::new(ShardMap::partition(network, shards));
        let leaders: Vec<Arc<ReachabilityEngine>> = (0..shards)
            .map(|shard_id| {
                Arc::new(
                    EngineBuilder::new(network.clone(), dataset)
                        .index_config(config.clone())
                        .shard(map.clone(), shard_id)
                        .build(),
                )
            })
            .collect();
        let router = ShardedEngine::new(map, leaders);
        let build_s = t0.elapsed().as_secs_f64();

        // One warmup sweep so the throughput loop measures routed posting
        // reads rather than first-touch Con-Index table construction.
        for q in &workload {
            router.try_s_query(q, Algorithm::SqmbTbs).expect("warmup");
        }
        let t0 = Instant::now();
        let mut answered = 0usize;
        for _ in 0..iterations {
            for (i, q) in workload.iter().enumerate() {
                let o = router
                    .try_s_query(q, Algorithm::SqmbTbs)
                    .expect("sharded query");
                answered += 1;
                if (o.region.segments, o.region.total_length_km.to_bits()) != expected[i] {
                    identical = false;
                }
            }
        }
        let queries_per_s = answered as f64 / t0.elapsed().as_secs_f64().max(1e-9);
        cells.push((shards, build_s, queries_per_s));
    }
    (cells, identical)
}

/// One serving-matrix measurement cell.
struct ServingCell {
    clients: usize,
    coalesce: bool,
    cache: bool,
    p50_ms: f64,
    p99_ms: f64,
    coalesced: u64,
    cache_hits: u64,
}

/// SplitMix64 — deterministic client query draws.
fn mix(seed: u64, ordinal: u64) -> u64 {
    let mut z = seed
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(ordinal.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let idx = ((sorted.len() as f64 - 1.0) * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Serving front-end matrix: an open-loop latency harness over a quiesced
/// engine. Simulated clients submit seeded-random draws from a ~16-query
/// workload on a fixed aggregate arrival schedule (paced at ~2× one serial
/// query lane, so high client counts genuinely queue and coalesce);
/// latency is submission-schedule to answer-completion, so backpressure
/// waits count. Every ticket's region is checked bit-identical to the
/// serial uncoalesced `try_s_query` answer — the identity verdict gates
/// the run. Returns the cells, the workload size, the scheduled arrivals
/// per cell, and the verdict.
fn run_serving(
    dir: &std::path::Path,
    network: &Arc<RoadNetwork>,
    quick: bool,
) -> (Vec<ServingCell>, usize, usize, bool) {
    use std::sync::atomic::{AtomicU64, Ordering};
    use streach_core::{QueryServer, ServeConfig};

    let engine = Arc::new(
        ReachabilityEngine::open_snapshot(dir, network.clone()).expect("open serving snapshot"),
    );
    let b = network.bounds();
    let center = b.center();
    let (dlon, dlat) = (b.max_lon - b.min_lon, b.max_lat - b.min_lat);
    let mut workload = Vec::new();
    for (fx, fy) in [(0.0, 0.0), (0.18, 0.12), (-0.15, -0.08), (0.1, -0.17)] {
        for (start, duration) in [(9 * 3600u32, 600u32), (10 * 3600, 900)] {
            for prob in [0.25, 0.6] {
                workload.push(SQuery {
                    location: GeoPoint::new(center.lon + dlon * fx, center.lat + dlat * fy),
                    start_time_s: start,
                    duration_s: duration,
                    prob,
                });
            }
        }
    }

    // Serial references: the bit-identity gate every ticket checks against.
    let expected: Vec<(Vec<SegmentId>, u64)> = workload
        .iter()
        .map(|q| {
            let o = engine
                .try_s_query(q, Algorithm::SqmbTbs)
                .expect("serial reference");
            (o.region.segments, o.region.total_length_km.to_bits())
        })
        .collect();
    // A warm serial sweep paces the open-loop schedule.
    let t0 = Instant::now();
    for q in &workload {
        engine
            .try_s_query(q, Algorithm::SqmbTbs)
            .expect("pacing sweep");
    }
    let serial_mean_s = t0.elapsed().as_secs_f64() / workload.len() as f64;
    let interval_s = (serial_mean_s / 2.0).max(1e-5);

    let total_arrivals = if quick { 120usize } else { 400 };
    let mut cells = Vec::new();
    let mismatches = AtomicU64::new(0);
    for clients in [1usize, 4, 16, 64] {
        for (coalesce, cache) in [(true, true), (true, false), (false, true), (false, false)] {
            let per_client = (total_arrivals / clients).max(8);
            let server = QueryServer::start(
                Arc::clone(&engine),
                ServeConfig {
                    workers: 2,
                    queue_depth: 64,
                    coalesce,
                    cache_capacity: if cache { 1024 } else { 0 },
                    ..Default::default()
                },
            );
            let t_start = Instant::now();
            let mut latencies: Vec<f64> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..clients)
                    .map(|c| {
                        let server = &server;
                        let workload = &workload;
                        let expected = &expected;
                        let mismatches = &mismatches;
                        scope.spawn(move || {
                            let mut pending = Vec::with_capacity(per_client);
                            for k in 0..per_client {
                                // Fixed aggregate schedule, interleaved
                                // round-robin across clients.
                                let at = t_start
                                    + std::time::Duration::from_secs_f64(
                                        (k * clients + c) as f64 * interval_s,
                                    );
                                let now = Instant::now();
                                if at > now {
                                    std::thread::sleep(at - now);
                                }
                                let pick = (mix(
                                    77,
                                    (clients as u64) * 1_000_003 + (c as u64) * 7_919 + k as u64,
                                ) % workload.len() as u64)
                                    as usize;
                                pending.push((
                                    pick,
                                    at,
                                    server.submit(workload[pick], Algorithm::SqmbTbs),
                                ));
                            }
                            let mut lat = Vec::with_capacity(per_client);
                            for (pick, at, ticket) in pending {
                                let (result, done) = ticket.wait_timed();
                                let outcome = result.expect("serving query");
                                if outcome.region.segments != expected[pick].0
                                    || outcome.region.total_length_km.to_bits() != expected[pick].1
                                {
                                    mismatches.fetch_add(1, Ordering::Relaxed);
                                }
                                lat.push(done.saturating_duration_since(at).as_secs_f64() * 1e3);
                            }
                            lat
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .flat_map(|h| h.join().expect("client thread"))
                    .collect()
            });
            let stats = server.stats();
            server.shutdown();
            latencies.sort_by(f64::total_cmp);
            cells.push(ServingCell {
                clients,
                coalesce,
                cache,
                p50_ms: percentile(&latencies, 0.5),
                p99_ms: percentile(&latencies, 0.99),
                coalesced: stats.coalesced,
                cache_hits: stats.cache_hits,
            });
        }
    }
    let identical = mismatches.load(Ordering::Relaxed) == 0;
    (cells, workload.len(), total_arrivals, identical)
}

struct SubsCell {
    subs: usize,
    batches: usize,
    disjoint_batches: usize,
    incremental_queries: u64,
    full_queries: u64,
    incremental_eval_s: f64,
    full_eval_s: f64,
    disjoint_incremental_queries: u64,
    disjoint_full_queries: u64,
    events: u64,
}

/// Standing-subscription matrix: N standing s-queries registered against
/// two engines opened from the same snapshot — one re-evaluated
/// incrementally (footprint-filtered, the [`SubscriptionManager`] default)
/// and one forced into full re-evaluation (`invalidate_all` before every
/// batch). Both sides ingest the same live batches; after every batch each
/// subscription's region must be bit-identical across the two modes (the
/// identity gate). A second phase ingests slot-disjoint afternoon batches
/// (fresh trajectory ids, wrapped dates, +5 h shift) that no morning
/// subscription's footprint covers: the incremental side must issue
/// strictly fewer engine queries than the full side there (the work gate —
/// the expected split is 0 vs N per batch). Returns the cells plus the
/// two gate verdicts.
fn run_subscriptions(
    dir: &std::path::Path,
    network: &Arc<RoadNetwork>,
    batches: &[Vec<streach_traj::TrajPoint>],
    base_days: u16,
    quick: bool,
) -> (Vec<SubsCell>, bool, bool) {
    use std::time::Duration;
    use streach_core::{SubscribeConfig, SubscriptionManager, Trigger};

    let counts: &[usize] = if quick {
        &[100, 1000]
    } else {
        &[100, 1000, 10_000]
    };
    let live_batches = batches.len().min(if quick { 3 } else { 4 });
    let disjoint_batches = batches.len().min(2);
    // Kick-driven only: a timeout wake between `invalidate_all` and the
    // ingest that follows would burn a spurious full pass and skew the
    // query accounting.
    let config = SubscribeConfig {
        poll_interval: Duration::from_secs(3600),
        ..Default::default()
    };

    let b = network.bounds();
    let center = b.center();
    let (dlon, dlat) = (b.max_lon - b.min_lon, b.max_lat - b.min_lat);
    let unit = |v: u64| (v >> 11) as f64 / (1u64 << 53) as f64;

    let mut cells = Vec::new();
    let mut identical = true;
    let mut strictly_fewer = true;
    for &n in counts {
        // Subscription windows stay inside the fleet's [08:00, 11:45]
        // data window — data-backed bounding keeps a single evaluation
        // cheap, and the +5 h disjoint batches (13:00+) can never touch a
        // footprint slot.
        let subs: Vec<SQuery> = (0..n)
            .map(|i| {
                let i = i as u64;
                SQuery {
                    location: GeoPoint::new(
                        center.lon + dlon * (unit(mix(909, i)) - 0.5) * 0.8,
                        center.lat + dlat * (unit(mix(910, i)) - 0.5) * 0.8,
                    ),
                    start_time_s: 8 * 3600 + (mix(911, i) % 15) as u32 * 900,
                    duration_s: 300 + (mix(912, i) % 3) as u32 * 300,
                    prob: if mix(913, i).is_multiple_of(2) {
                        0.25
                    } else {
                        0.6
                    },
                }
            })
            .collect();

        let open = || {
            Arc::new(
                ReachabilityEngine::open_snapshot(dir, network.clone())
                    .expect("open subscription snapshot"),
            )
        };
        let (eng_inc, eng_full) = (open(), open());
        let mgr_inc = SubscriptionManager::spawn(eng_inc.clone(), config.clone());
        let mgr_full = SubscriptionManager::spawn(eng_full.clone(), config.clone());
        for q in &subs {
            mgr_inc
                .subscribe(*q, Algorithm::SqmbTbs, Trigger::AnyRegionChange)
                .expect("register incremental subscription");
            mgr_full
                .subscribe(*q, Algorithm::SqmbTbs, Trigger::AnyRegionChange)
                .expect("register full-mode subscription");
        }
        mgr_inc.poll_events();
        mgr_full.poll_events();
        let ids = mgr_inc.subscription_ids();
        assert_eq!(ids, mgr_full.subscription_ids());

        let mut check_identical = |label: &str| {
            for &id in &ids {
                let a = mgr_inc.last_region(id).expect("incremental region");
                let b = mgr_full.last_region(id).expect("full-mode region");
                let same = match (&a, &b) {
                    (Some(a), Some(b)) => {
                        a.segments == b.segments
                            && a.total_length_km.to_bits() == b.total_length_km.to_bits()
                    }
                    (None, None) => true,
                    _ => false,
                };
                if !same {
                    eprintln!(
                        "[ingest] subscriptions: {id} diverged between incremental and full re-evaluation ({label}, {n} subs)"
                    );
                    identical = false;
                }
            }
        };

        let (q_inc0, q_full0) = (
            mgr_inc.stats().engine_queries,
            mgr_full.stats().engine_queries,
        );
        let (mut inc_eval_s, mut full_eval_s) = (0.0f64, 0.0f64);
        for batch in &batches[..live_batches] {
            eng_inc.ingest(batch).expect("incremental-side ingest");
            let t = Instant::now();
            mgr_inc.run_now();
            inc_eval_s += t.elapsed().as_secs_f64();

            mgr_full.invalidate_all();
            eng_full.ingest(batch).expect("full-side ingest");
            let t = Instant::now();
            mgr_full.run_now();
            full_eval_s += t.elapsed().as_secs_f64();

            mgr_inc.poll_events();
            mgr_full.poll_events();
        }
        check_identical("live batch");
        let inc_queries = mgr_inc.stats().engine_queries - q_inc0;
        let full_queries = mgr_full.stats().engine_queries - q_full0;

        // Slot-disjoint phase: the incremental side should do zero work.
        let (dq_inc0, dq_full0) = (
            mgr_inc.stats().engine_queries,
            mgr_full.stats().engine_queries,
        );
        for (round, batch) in batches[..disjoint_batches].iter().enumerate() {
            let shifted: Vec<streach_traj::TrajPoint> = batch
                .iter()
                .map(|p| streach_traj::TrajPoint {
                    traj_id: p.traj_id + 1_000_000 + round as u32 * 10_000,
                    date: p.date % base_days,
                    segment: p.segment,
                    enter_time_s: (p.enter_time_s + 5 * 3600)
                        .min(streach_traj::SECONDS_PER_DAY - 1),
                })
                .collect();
            eng_inc
                .ingest(&shifted)
                .expect("incremental disjoint ingest");
            mgr_inc.run_now();
            mgr_full.invalidate_all();
            eng_full.ingest(&shifted).expect("full disjoint ingest");
            mgr_full.run_now();
            mgr_inc.poll_events();
            mgr_full.poll_events();
        }
        check_identical("disjoint batch");
        let dq_inc = mgr_inc.stats().engine_queries - dq_inc0;
        let dq_full = mgr_full.stats().engine_queries - dq_full0;
        if dq_inc >= dq_full {
            eprintln!(
                "[ingest] subscriptions: incremental issued {dq_inc} engine queries on slot-disjoint batches, full issued {dq_full} ({n} subs) — expected strictly fewer"
            );
            strictly_fewer = false;
        }

        let events = mgr_inc.stats().events_emitted;
        cells.push(SubsCell {
            subs: n,
            batches: live_batches,
            disjoint_batches,
            incremental_queries: inc_queries,
            full_queries,
            incremental_eval_s: inc_eval_s,
            full_eval_s,
            disjoint_incremental_queries: dq_inc,
            disjoint_full_queries: dq_full,
            events,
        });
        mgr_inc.shutdown();
        mgr_full.shutdown();
    }
    (cells, identical, strictly_fewer)
}

/// One replication measurement cell: a leader shipping to N replicas.
struct ReplCell {
    replicas: usize,
    ship_records: u64,
    ship_points_per_s: f64,
    burst_records: u64,
    recovery_ms: f64,
    final_lag: u64,
    slo_met: bool,
}

/// Copies a snapshot directory file by file — the artifact shipping a
/// replica host would do out of band.
fn copy_snapshot(src: &std::path::Path, dst: &std::path::Path) {
    std::fs::create_dir_all(dst).expect("create replica dir");
    for entry in std::fs::read_dir(src).expect("read snapshot dir").flatten() {
        if entry.file_type().map(|t| t.is_file()).unwrap_or(false) {
            std::fs::copy(entry.path(), dst.join(entry.file_name())).expect("copy artifact");
        }
    }
}

/// Replication tier: WAL ship throughput to 1/2/4 replicas (one drain of
/// the whole ingested backlog), then lag-recovery time after a fresh
/// ingest burst with the background [`ReplicationController`] shipping on
/// its cadence under a lag SLO. Returns the cells, the SLO, and whether
/// every replica answered the probe bit-identically to its leader after
/// convergence.
fn run_replication(
    dir: &std::path::Path,
    network: &Arc<RoadNetwork>,
    batches: &[Vec<streach_traj::TrajPoint>],
    probe: &SQuery,
) -> (Vec<ReplCell>, u64, bool) {
    let slo_records = 64u64;
    let total_points: usize = batches.iter().map(Vec::len).sum();
    let mut cells = Vec::new();
    let mut identical = true;
    for replicas in [1usize, 2, 4] {
        let home = tmp_dir(&format!("bench-repl-{replicas}"));
        copy_snapshot(dir, &home);
        let leader = Arc::new(
            ReachabilityEngine::open_snapshot(&home, network.clone())
                .expect("open replication leader"),
        );
        leader
            .attach_wal(home.join("ingest.wal"))
            .expect("attach leader WAL");
        let set = Arc::new(ReplicaSet::new(leader.clone(), home.join("ingest.wal")));
        let mut replica_homes = Vec::new();
        for r in 0..replicas {
            let replica_home = tmp_dir(&format!("bench-repl-{replicas}-r{r}"));
            copy_snapshot(dir, &replica_home);
            let replica = Arc::new(
                ReachabilityEngine::open_snapshot(&replica_home, network.clone())
                    .expect("open replica"),
            );
            set.add_replica(replica, replica_home.join("follower.wal"))
                .expect("register replica");
            replica_homes.push(replica_home);
        }

        // Ship throughput: the whole fleet-day backlog is durable at the
        // leader; one ship call drains it to every replica (log persist +
        // replicated apply).
        for batch in batches {
            leader.ingest(batch).expect("leader ingest");
        }
        let t0 = Instant::now();
        let shipped = set.ship().expect("ship backlog");
        let ship_s = t0.elapsed().as_secs_f64();
        assert!(set.converged(), "replicas converge after the backlog ships");

        // Lag recovery: a burst of re-tagged batches lands while the
        // background controller ships on a 1 ms cadence; the clock runs
        // from the last acked record to convergence.
        let ctl = ReplicationController::spawn(
            set.clone(),
            ReplicationConfig {
                poll_interval: std::time::Duration::from_millis(1),
                lag_slo_records: slo_records,
                ..ReplicationConfig::default()
            },
        );
        let burst: Vec<Vec<streach_traj::TrajPoint>> = batches
            .iter()
            .map(|b| {
                b.iter()
                    .map(|p| streach_traj::TrajPoint {
                        traj_id: p.traj_id + 700_000,
                        date: p.date,
                        segment: p.segment,
                        enter_time_s: p.enter_time_s,
                    })
                    .collect()
            })
            .collect();
        for batch in &burst {
            leader.ingest(batch).expect("burst ingest");
        }
        let t0 = Instant::now();
        ctl.kick();
        while !set.converged() && t0.elapsed().as_secs_f64() < 30.0 {
            std::thread::sleep(std::time::Duration::from_micros(200));
        }
        let recovery_ms = t0.elapsed().as_secs_f64() * 1e3;
        let final_lag = ctl.lag().into_iter().max().unwrap_or(0);
        let slo_met = set.converged() && final_lag <= slo_records;

        // The bit-identity gate: every replica answers the probe exactly
        // as its leader does.
        let want = leader
            .try_s_query(probe, Algorithm::SqmbTbs)
            .expect("leader probe");
        for r in 0..replicas {
            let got = set
                .replica(r)
                .try_s_query(probe, Algorithm::SqmbTbs)
                .expect("replica probe");
            identical &= want.region.segments == got.region.segments
                && want.region.total_length_km.to_bits() == got.region.total_length_km.to_bits();
        }
        ctl.shutdown();
        cells.push(ReplCell {
            replicas,
            ship_records: shipped,
            ship_points_per_s: total_points as f64 / ship_s.max(1e-9),
            burst_records: burst.len() as u64,
            recovery_ms,
            final_lag,
            slo_met,
        });
        std::fs::remove_dir_all(&home).ok();
        for replica_home in replica_homes {
            std::fs::remove_dir_all(replica_home).ok();
        }
    }
    (cells, slo_records, identical)
}

/// Splices a section (a leading-comma, single-line fragment) into
/// `BENCH_ingest.json`: replaces the existing `key` section in place
/// (sections are one line each, so anything after it survives) or appends
/// before the final closing brace; creates a stub file when none exists.
/// Unlike the other mode-only sections the callers of this deliberately
/// *do* touch the JSON — the CI smokes assert their section lands without
/// paying for a full bench run.
fn merge_section_json(key: &str, fragment: &str) {
    let path = "BENCH_ingest.json";
    let marker = format!(",\n  \"{key}\":");
    let merged = match std::fs::read_to_string(path) {
        Ok(existing) => {
            let without = match existing.find(&marker) {
                Some(pos) => {
                    let rest = match existing[pos + 2..].find('\n') {
                        Some(nl) => &existing[pos + 2 + nl..],
                        None => "",
                    };
                    format!("{}{}", &existing[..pos], rest)
                }
                None => existing,
            };
            let last = without.rfind('}').unwrap_or(without.len());
            format!("{}{fragment}\n}}\n", without[..last].trim_end())
        }
        Err(_) => {
            format!("{{\n  \"scenario\": {{\"note\": \"{key}-only run\"}}{fragment}\n}}\n")
        }
    };
    std::fs::write(path, merged).expect("write BENCH_ingest.json");
}

struct Scale {
    label: &'static str,
    taxis: usize,
    base_days: u16,
    extra_days: u16,
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let only_group = args.iter().any(|a| a == "--group-commit");
    let only_concurrent = args.iter().any(|a| a == "--concurrent-queries");
    let only_cold = args.iter().any(|a| a == "--cold-path");
    let only_sharded = args.iter().any(|a| a == "--sharded");
    let only_serving = args.iter().any(|a| a == "--serving");
    let only_subscriptions = args.iter().any(|a| a == "--subscriptions");
    let only_replication = args.iter().any(|a| a == "--replication");
    let run_all = !(only_group
        || only_concurrent
        || only_cold
        || only_sharded
        || only_serving
        || only_subscriptions
        || only_replication);
    let scale = if quick {
        Scale {
            label: "quick",
            taxis: 10,
            base_days: 3,
            extra_days: 2,
        }
    } else {
        Scale {
            label: "standard",
            taxis: 40,
            base_days: 6,
            extra_days: 3,
        }
    };
    eprintln!(
        "[ingest] scenario ({}): {} taxis, {} base + {} ingested days",
        scale.label, scale.taxis, scale.base_days, scale.extra_days
    );

    let city = SyntheticCity::generate(GeneratorConfig::small());
    let network = Arc::new(city.network);
    let center = network.bounds().center();
    let full = TrajectoryDataset::simulate(
        &network,
        FleetConfig {
            num_taxis: scale.taxis,
            num_days: scale.base_days + scale.extra_days,
            day_start_s: 8 * 3600,
            day_end_s: 12 * 3600,
            seed: 77,
            ..FleetConfig::default()
        },
    );
    let base = TrajectoryDataset::from_matched(
        full.trajectories()
            .iter()
            .filter(|t| t.date < scale.base_days)
            .cloned()
            .collect(),
        scale.taxis,
        scale.base_days,
    );
    let batches: Vec<Vec<streach_traj::TrajPoint>> = full
        .trajectories()
        .iter()
        .filter(|t| t.date >= scale.base_days)
        .map(|t| points_of(t).collect())
        .collect();
    let total_points: usize = batches.iter().map(Vec::len).sum();
    let config = IndexConfig {
        read_latency_us: 0,
        // Low enough that the concurrent-queries section genuinely fires
        // auto-checkpoints at bench scale.
        auto_checkpoint_bytes: 64 * 1024,
        ..Default::default()
    };

    let dir = tmp_dir("bench");
    let t0 = Instant::now();
    let built = EngineBuilder::new(network.clone(), &base)
        .index_config(config.clone())
        .save_snapshot(&dir)
        .expect("save base snapshot");
    let base_build_s = t0.elapsed().as_secs_f64();

    let probe = SQuery {
        location: center,
        start_time_s: 9 * 3600,
        duration_s: 600,
        prob: 0.25,
    };

    // --- Group commit: 1 vs N concurrent WAL writers (pristine snapshot) --
    let group_writers = 4usize;
    let (mut group_1w, mut group_nw) = (f64::NAN, f64::NAN);
    if run_all || only_group {
        let (one, many) = run_group_commit(&dir, &network, &batches, &probe, group_writers);
        group_1w = one;
        group_nw = many;
        println!(
            "{:<38} {:>14.0}",
            "group-commit 1 writer points/s", group_1w
        );
        println!(
            "{:<38} {:>14.0}",
            format!("group-commit {group_writers} writers points/s"),
            group_nw
        );
    }

    // --- Queries racing ingest + background maintenance (own dir copy) ----
    let (mut cq_ingest, mut cq_median, mut cq_ckpts, mut cq_compactions) =
        (f64::NAN, f64::NAN, 0u64, 0u64);
    if run_all || only_concurrent {
        let cq_dir = tmp_dir("bench-concurrent");
        built
            .save_snapshot(&cq_dir)
            .expect("save concurrent-section snapshot");
        let (ingest_ps, median, ckpts, compactions) =
            run_concurrent_queries(&cq_dir, &network, &batches, &probe);
        cq_ingest = ingest_ps;
        cq_median = median;
        cq_ckpts = ckpts;
        cq_compactions = compactions;
        println!(
            "{:<38} {:>14.0}",
            "ingest points/s under query load", cq_ingest
        );
        println!(
            "{:<38} {:>14.3}",
            "s-query median under ingest (ms)", cq_median
        );
        println!("{:<38} {:>14}", "auto-checkpoints under load", cq_ckpts);
        println!(
            "{:<38} {:>14}",
            "background compactions under load", cq_compactions
        );
        std::fs::remove_dir_all(&cq_dir).ok();
    }

    // --- Cold path: file vs mmap backend, gated on the decode ratio -------
    let mut cold_json = String::new();
    if run_all || only_cold {
        let (pages_bytes, cells, decode_ratio, mmap_matches_file) =
            run_cold_path(&network, &full, &config, &probe);
        println!(
            "{:<38} {:>14}",
            "cold-path postings.pages bytes", pages_bytes
        );
        println!(
            "{:<38} {:>14.2}",
            "cold-path decode ratio (logical/disk)", decode_ratio
        );
        for cell in &cells {
            println!(
                "{:<38} {:>6.3}s {:>6.3}ms",
                format!("cold open / query [{}]", cell.label),
                cell.open_s,
                cell.cold_query_ms
            );
        }
        println!(
            "{:<38} {:>14}",
            "cold-path mmap matches file", mmap_matches_file
        );
        let cell_json: Vec<String> = cells
            .iter()
            .map(|c| {
                format!(
                    "{{\"backend\": \"{}\", \"open_s\": {:.4}, \"cold_query_ms\": {:.4}}}",
                    c.label, c.open_s, c.cold_query_ms
                )
            })
            .collect();
        cold_json = format!(
            ",\n  \"cold_path\": {{\"pages_bytes\": {}, \"decode_ratio\": {:.4}, \"ratio_gate\": {:.1}, \"mmap_matches_file\": {}, \"cells\": [{}]}}",
            pages_bytes,
            decode_ratio,
            COLD_PATH_RATIO_GATE,
            mmap_matches_file,
            cell_json.join(", ")
        );
        let mut cold_failed = false;
        if decode_ratio < COLD_PATH_RATIO_GATE {
            eprintln!(
                "[ingest] ERROR: cold-path decode ratio {decode_ratio:.2} is below the {COLD_PATH_RATIO_GATE}x gate"
            );
            cold_failed = true;
        }
        if !mmap_matches_file {
            eprintln!("[ingest] ERROR: cold-path mmap backend diverged from the file backend");
            cold_failed = true;
        }
        if cold_failed {
            std::process::exit(1);
        }
    }

    // --- Shard scaling: s-queries through the scatter-gather router --------
    let mut sharded_json = String::new();
    if run_all || only_sharded {
        let iterations = if quick { 2 } else { 4 };
        let (cells, sharded_identical) = run_shard_scaling(&network, &full, &config, iterations);
        for &(shards, build_s, queries_per_s) in &cells {
            println!(
                "{:<38} {:>6.3}s {:>8.0}/s",
                format!("sharded serving [{shards} shard(s)]"),
                build_s,
                queries_per_s
            );
        }
        println!(
            "{:<38} {:>14}",
            "sharded answers identical", sharded_identical
        );
        let cell_json: Vec<String> = cells
            .iter()
            .map(|&(shards, build_s, queries_per_s)| {
                format!(
                    "{{\"shards\": {shards}, \"build_s\": {build_s:.4}, \"queries_per_s\": {queries_per_s:.0}}}"
                )
            })
            .collect();
        sharded_json = format!(
            ",\n  \"sharded_scaling\": {{\"identical\": {}, \"cells\": [{}]}}",
            sharded_identical,
            cell_json.join(", ")
        );
        if !sharded_identical {
            eprintln!(
                "[ingest] ERROR: a sharded router answer diverged from the unsharded baseline"
            );
            std::process::exit(1);
        }
    }

    // --- Serving front end: open-loop latency through the QueryServer ------
    let mut serving_json = String::new();
    if run_all || only_serving {
        let (cells, workload_queries, arrivals_per_cell, serving_identical) =
            run_serving(&dir, &network, quick);
        for cell in &cells {
            println!(
                "{:<38} {:>8.3}ms {:>8.3}ms",
                format!(
                    "serving [{:>2} clients, coalesce {}, cache {}]",
                    cell.clients,
                    if cell.coalesce { "on " } else { "off" },
                    if cell.cache { "on " } else { "off" }
                ),
                cell.p50_ms,
                cell.p99_ms
            );
        }
        println!(
            "{:<38} {:>14}",
            "serving answers identical", serving_identical
        );
        let cell_json: Vec<String> = cells
            .iter()
            .map(|c| {
                format!(
                    "{{\"clients\": {}, \"coalesce\": {}, \"cache\": {}, \"p50_ms\": {:.4}, \"p99_ms\": {:.4}, \"coalesced\": {}, \"cache_hits\": {}}}",
                    c.clients, c.coalesce, c.cache, c.p50_ms, c.p99_ms, c.coalesced, c.cache_hits
                )
            })
            .collect();
        serving_json = format!(
            ",\n  \"serving\": {{\"identical\": {}, \"workload_queries\": {}, \"arrivals_per_cell\": {}, \"cells\": [{}]}}",
            serving_identical,
            workload_queries,
            arrivals_per_cell,
            cell_json.join(", ")
        );
        if !serving_identical {
            eprintln!(
                "[ingest] ERROR: a serving-matrix answer diverged from the serial uncoalesced path"
            );
            std::process::exit(1);
        }
    }
    // --- Standing subscriptions: incremental vs full re-evaluation ---------
    let mut subscriptions_json = String::new();
    if run_all || only_subscriptions {
        let (cells, subs_identical, subs_strictly_fewer) =
            run_subscriptions(&dir, &network, &batches, scale.base_days, quick);
        for cell in &cells {
            println!(
                "{:<38} {:>10} vs {:>10} queries {:>7.3}s vs {:>7.3}s",
                format!("subscriptions [{:>5} subs] inc/full", cell.subs),
                cell.incremental_queries,
                cell.full_queries,
                cell.incremental_eval_s,
                cell.full_eval_s
            );
            println!(
                "{:<38} {:>10} vs {:>10} queries",
                format!("  slot-disjoint [{:>5} subs]", cell.subs),
                cell.disjoint_incremental_queries,
                cell.disjoint_full_queries
            );
        }
        println!(
            "{:<38} {:>14}",
            "subscription answers identical", subs_identical
        );
        println!(
            "{:<38} {:>14}",
            "incremental strictly fewer (disjoint)", subs_strictly_fewer
        );
        let cell_json: Vec<String> = cells
            .iter()
            .map(|c| {
                format!(
                    "{{\"subs\": {}, \"batches\": {}, \"disjoint_batches\": {}, \"incremental_engine_queries\": {}, \"full_engine_queries\": {}, \"incremental_eval_s\": {:.4}, \"full_eval_s\": {:.4}, \"disjoint_incremental_queries\": {}, \"disjoint_full_queries\": {}, \"events\": {}}}",
                    c.subs,
                    c.batches,
                    c.disjoint_batches,
                    c.incremental_queries,
                    c.full_queries,
                    c.incremental_eval_s,
                    c.full_eval_s,
                    c.disjoint_incremental_queries,
                    c.disjoint_full_queries,
                    c.events
                )
            })
            .collect();
        subscriptions_json = format!(
            ",\n  \"subscriptions\": {{\"identical\": {}, \"strictly_fewer_on_disjoint\": {}, \"cells\": [{}]}}",
            subs_identical,
            subs_strictly_fewer,
            cell_json.join(", ")
        );
        if !subs_identical {
            eprintln!(
                "[ingest] ERROR: an incremental subscription answer diverged from full re-evaluation"
            );
            std::process::exit(1);
        }
        if !subs_strictly_fewer {
            eprintln!(
                "[ingest] ERROR: incremental re-evaluation did not beat full re-evaluation on slot-disjoint batches"
            );
            std::process::exit(1);
        }
    }
    // --- Replication: ship throughput + lag recovery under the SLO ---------
    let mut replication_json = String::new();
    if run_all || only_replication {
        let (cells, slo_records, repl_identical) =
            run_replication(&dir, &network, &batches, &probe);
        for cell in &cells {
            println!(
                "{:<38} {:>10.0}/s {:>8.1}ms",
                format!("replication [{} replica(s)] ship/recover", cell.replicas),
                cell.ship_points_per_s,
                cell.recovery_ms
            );
        }
        let repl_slo_met = cells.iter().all(|c| c.slo_met);
        println!(
            "{:<38} {:>14}",
            "replication answers identical", repl_identical
        );
        println!(
            "{:<38} {:>14}",
            format!("replication lag under SLO ({slo_records})"),
            repl_slo_met
        );
        let cell_json: Vec<String> = cells
            .iter()
            .map(|c| {
                format!(
                    "{{\"replicas\": {}, \"ship_records\": {}, \"ship_points_per_s\": {:.0}, \"burst_records\": {}, \"recovery_ms\": {:.2}, \"final_lag\": {}, \"slo_met\": {}}}",
                    c.replicas,
                    c.ship_records,
                    c.ship_points_per_s,
                    c.burst_records,
                    c.recovery_ms,
                    c.final_lag,
                    c.slo_met
                )
            })
            .collect();
        replication_json = format!(
            ",\n  \"replication\": {{\"identical\": {}, \"slo_records\": {}, \"slo_met\": {}, \"cells\": [{}]}}",
            repl_identical,
            slo_records,
            repl_slo_met,
            cell_json.join(", ")
        );
        if !repl_identical {
            eprintln!(
                "[ingest] ERROR: a replica answer diverged from its leader after convergence"
            );
            std::process::exit(1);
        }
        if !repl_slo_met {
            eprintln!("[ingest] ERROR: the replication controller left a replica over the lag SLO");
            std::process::exit(1);
        }
    }
    drop(built);
    if !run_all {
        std::fs::remove_dir_all(&dir).ok();
        let mut merged = false;
        if only_serving {
            merge_section_json("serving", &serving_json);
            eprintln!("[ingest] serving-only run: merged `serving` section into BENCH_ingest.json");
            merged = true;
        }
        if only_subscriptions {
            merge_section_json("subscriptions", &subscriptions_json);
            eprintln!(
                "[ingest] subscriptions-only run: merged `subscriptions` section into BENCH_ingest.json"
            );
            merged = true;
        }
        if only_replication {
            merge_section_json("replication", &replication_json);
            eprintln!(
                "[ingest] replication-only run: merged `replication` section into BENCH_ingest.json"
            );
            merged = true;
        }
        if !merged {
            eprintln!("[ingest] mode-only run: BENCH_ingest.json left untouched");
        }
        return;
    }

    // Serving engine: reopen + WAL-backed ingest.
    let engine = ReachabilityEngine::open_snapshot(&dir, network.clone()).expect("open snapshot");
    let latency_before = measure(2, 9, || {
        engine
            .try_s_query(&probe, Algorithm::SqmbTbs)
            .expect("s-query")
    });

    let wal_path = dir.join("ingest.wal");
    engine.attach_wal(&wal_path).expect("attach WAL");
    let t0 = Instant::now();
    for batch in &batches {
        engine.ingest(batch).expect("WAL-backed ingest");
    }
    let wal_ingest_s = t0.elapsed().as_secs_f64();

    // Volatile ingest on a second reopen, for the durability overhead.
    let volatile = ReachabilityEngine::open_snapshot(&dir, network.clone()).expect("reopen");
    let t0 = Instant::now();
    for batch in &batches {
        volatile.ingest(batch).expect("volatile ingest");
    }
    let volatile_ingest_s = t0.elapsed().as_secs_f64();
    drop(volatile);

    let delta = engine.st_index().delta_stats();
    let latency_delta = measure(2, 9, || {
        engine
            .try_s_query(&probe, Algorithm::SqmbTbs)
            .expect("s-query")
    });

    // Snapshot costs: incremental (base page file reused) vs full.
    let t0 = Instant::now();
    engine
        .save_incremental_snapshot(&dir)
        .expect("incremental save");
    let incremental_save_s = t0.elapsed().as_secs_f64();
    let full_dir = tmp_dir("bench-full");
    let t0 = Instant::now();
    engine.save_snapshot(&full_dir).expect("full save");
    let full_save_s = t0.elapsed().as_secs_f64();

    // Compaction, then the sealed-base query latency.
    let t0 = Instant::now();
    engine.compact().expect("compact");
    let compact_s = t0.elapsed().as_secs_f64();
    let latency_compacted = measure(2, 9, || {
        engine
            .try_s_query(&probe, Algorithm::SqmbTbs)
            .expect("s-query")
    });

    // Correctness smoke: bit-identical to the from-scratch combined build.
    let rebuilt = EngineBuilder::new(network.clone(), &full)
        .index_config(config.clone())
        .build();
    let a = engine
        .try_s_query(&probe, Algorithm::SqmbTbs)
        .expect("s-query");
    let b = rebuilt
        .try_s_query(&probe, Algorithm::SqmbTbs)
        .expect("s-query");
    let identical = a.region.segments == b.region.segments
        && a.region.total_length_km.to_bits() == b.region.total_length_km.to_bits();

    let wal_points_per_s = total_points as f64 / wal_ingest_s.max(1e-9);
    let volatile_points_per_s = total_points as f64 / volatile_ingest_s.max(1e-9);
    println!("{:<38} {:>14}", "metric", "value");
    println!("{:<38} {:>14}", "ingested points", total_points);
    println!(
        "{:<38} {:>14}",
        "ingest batches (WAL records)",
        batches.len()
    );
    println!(
        "{:<38} {:>14.0}",
        "WAL-backed ingest points/s", wal_points_per_s
    );
    println!(
        "{:<38} {:>14.0}",
        "volatile ingest points/s", volatile_points_per_s
    );
    println!("{:<38} {:>14}", "delta lists", delta.delta_lists);
    println!("{:<38} {:>14}", "delta bytes", delta.delta_bytes);
    println!("{:<38} {:>14.3}", "base build+save (s)", base_build_s);
    println!(
        "{:<38} {:>14.3}",
        "incremental save (s)", incremental_save_s
    );
    println!("{:<38} {:>14.3}", "full save (s)", full_save_s);
    println!("{:<38} {:>14.3}", "compaction (s)", compact_s);
    println!(
        "{:<38} {:>14.3}",
        "s-query before ingest (ms)",
        latency_before.median_ms()
    );
    println!(
        "{:<38} {:>14.3}",
        "s-query base+delta (ms)",
        latency_delta.median_ms()
    );
    println!(
        "{:<38} {:>14.3}",
        "s-query compacted (ms)",
        latency_compacted.median_ms()
    );
    println!("{:<38} {:>14}", "ingested == rebuilt (probe)", identical);

    let json = format!(
        "{{\n  \"scenario\": {{\"city\": \"GeneratorConfig::small\", \"scale\": \"{}\", \"taxis\": {}, \"base_days\": {}, \"extra_days\": {}, \"read_latency_us\": 0}},\n  \"ingested_points\": {},\n  \"wal_records\": {},\n  \"wal_ingest_points_per_s\": {:.0},\n  \"volatile_ingest_points_per_s\": {:.0},\n  \"group_commit_writers\": {},\n  \"group_commit_1_writer_points_per_s\": {:.0},\n  \"group_commit_points_per_s\": {:.0},\n  \"concurrent_ingest_points_per_s\": {:.0},\n  \"concurrent_query_median_ms\": {:.4},\n  \"concurrent_auto_checkpoints\": {},\n  \"concurrent_compactions\": {},\n  \"delta_lists\": {},\n  \"delta_bytes\": {},\n  \"base_build_save_s\": {:.4},\n  \"incremental_save_s\": {:.4},\n  \"full_save_s\": {:.4},\n  \"compaction_s\": {:.4},\n  \"squery_before_ms\": {:.4},\n  \"squery_base_plus_delta_ms\": {:.4},\n  \"squery_compacted_ms\": {:.4},\n  \"ingested_matches_rebuilt\": {}{}{}{}{}{}\n}}\n",
        scale.label,
        scale.taxis,
        scale.base_days,
        scale.extra_days,
        total_points,
        batches.len(),
        wal_points_per_s,
        volatile_points_per_s,
        group_writers,
        group_1w,
        group_nw,
        cq_ingest,
        cq_median,
        cq_ckpts,
        cq_compactions,
        delta.delta_lists,
        delta.delta_bytes,
        base_build_s,
        incremental_save_s,
        full_save_s,
        compact_s,
        latency_before.median_ms(),
        latency_delta.median_ms(),
        latency_compacted.median_ms(),
        identical,
        cold_json,
        sharded_json,
        serving_json,
        subscriptions_json,
        replication_json
    );
    std::fs::write("BENCH_ingest.json", &json).expect("write BENCH_ingest.json");
    eprintln!("[ingest] wrote BENCH_ingest.json");

    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&full_dir).ok();
    if !identical {
        eprintln!("[ingest] ERROR: ingested engine diverged from the from-scratch rebuild");
        std::process::exit(1);
    }
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "streach-ingest-bench-{}-{name}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}
