//! `serve_live`: an afternoon in the life of one node. A `QueryServer`
//! (default `ServeConfig`) fronts a WAL-attached engine with a
//! `MaintenanceController`; load thread 1 keeps one ticket per server worker
//! outstanding (closed loop; 80 % Zipf(1.0) over 512 hot tuples in four
//! 30-minute windows, 20 % never asked before) while load thread 2 ingests
//! the live ticks of 14:00–17:20 fleet time durably at a fixed interval. The
//! only workload where result cache, coalescing, invalidation scans, WAL
//! fsync and delta fold all run, and where writes sit beside reads.
//!
//! The mix and the rates are stated guesses — there is no production trace.
//! Three departures from the issue's sketch, each for steadiness (README,
//! "serve_live, as built"):
//!
//! * the timed window lies between the hot windows. A tick inside a hot
//!   window drops Con-Index tables that every query of the window needs, and
//!   a table built while another tick lands is never cached, so a passage is
//!   a storm of ~150 ms rebuilds whose length feeds back on itself. Traced
//!   runs measure one passage on its own (`serve.passage_*`);
//! * two tickets outstanding, not 32: with 32 a cache hit's latency is the
//!   time it queues behind other callers' misses, and the median sits on the
//!   edge between "a worker was free" and "it was not";
//! * due maintenance runs before the window opens (`run_now`), not at a
//!   moment of its own choosing inside it.

use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use streach_core::prelude::*;
use streach_core::{
    MaintenanceConfig, MaintenanceController, QueryServer, ServeConfig, StorageBackend, Ticket,
};

use super::{
    build_and_save, file_bytes, index_config, make_world, open, record_end_to_end, sleep_until,
    timed_phase, Args, QueryRun, Run,
};
use crate::inputs::{RequestMix, World, TICK_S};
use crate::metrics::{self, ms, us, Reduce, Report};
use crate::trace::Trace;
use crate::{check, probes};

/// The pool holds the whole heap: this workload is about the serving front
/// end and the write path, not storage misses.
const POOL_PAGES: usize = 8192;
/// Tickets load thread 1 keeps outstanding: one per server worker.
const OUTSTANDING: usize = 2;
const WAL_FILE: &str = "ingest.wal";
/// The timed window: 40 ticks from 14:00, after the 13:00 hot window has
/// closed (13:50) and before the 18:00 one opens.
const CALM_FROM: usize = (14 * 3600 / TICK_S) as usize;
const CALM_TICKS: usize = 40;
/// The passage traced runs measure on its own, straight after the timed
/// window: 17:20–19:00, through the whole 18:00 hot window, a tick per 250 ms.
const PASSAGE_TICKS: usize = 20;
const PASSAGE_INTERVAL: Duration = Duration::from_millis(250);
/// Ticks per flat-out run of the write-path probes, and of the tail that is
/// acknowledged but never checkpointed.
const FLAT_OUT_TICKS: usize = 90;
const TAIL_TICKS: usize = 72;

/// The serving node. Field order is drop order: the server joins its workers
/// first, then the maintenance worker stops, then the engine goes.
struct Node {
    server: QueryServer<ReachabilityEngine>,
    maintenance: MaintenanceController,
    engine: Arc<ReachabilityEngine>,
}

struct State {
    world: World,
    dir: PathBuf,
    node: Node,
    /// A second engine over the same snapshot, fed the same ticks serially
    /// with no WAL and no server: the quiesced single engine served answers
    /// are compared against at the same ingest position.
    reference: ReachabilityEngine,
}

fn setup(run: &mut Run<'_>) -> State {
    // One live day for the timed phase; a traced run's probes use a second.
    let world = make_world(run, if run.args.trace { 2 } else { 1 });
    let dir = run.work.fresh("node");
    drop(build_and_save(run, &world, &index_config(POOL_PAGES), &dir));
    let engine = Arc::new(open(run, &dir, &world, StorageBackend::File));
    run.trace
        .span("engine.attach_wal", 0, |_| {
            engine.attach_wal(dir.join(WAL_FILE))
        })
        .expect("attach the WAL");
    let maintenance =
        MaintenanceController::spawn(engine.clone(), dir.clone(), MaintenanceConfig::default());
    let server = QueryServer::start(engine.clone(), ServeConfig::default());
    let reference = open(run, &dir, &world, StorageBackend::File);
    State {
        world,
        dir,
        node: Node {
            server,
            maintenance,
            engine,
        },
        reference,
    }
}

/// What one live window recorded.
struct Window {
    queries: QueryRun,
    ack_ms: Vec<f64>,
    late_ms: Vec<f64>,
    ingest_errors: u64,
}

/// Load thread 1: keeps `OUTSTANDING` tickets in flight until told to stop
/// or until `source` runs dry, then drains. Latency is submit → answer.
fn query_load(
    server: &QueryServer<ReachabilityEngine>,
    mut source: impl FnMut() -> Option<SQuery>,
    stop: &AtomicBool,
    began: Instant,
    trace: &mut Trace,
) -> QueryRun {
    let mut out = QueryRun::default();
    let mut samples: Vec<(Instant, f64)> = Vec::new();
    let mut window: VecDeque<(Ticket, Instant, u64)> = VecDeque::new();
    let mut submitted_so_far = 0usize;
    loop {
        while window.len() < OUTSTANDING && !stop.load(Ordering::Relaxed) {
            let Some(query) = source() else {
                break;
            };
            submitted_so_far += 1;
            let submitted = Instant::now();
            let ticket = server.submit(query, Algorithm::SqmbTbs);
            // Request ids of this thread live above the main thread's.
            window.push_back((ticket, submitted, (1 << 32) | submitted_so_far as u64));
        }
        let Some((ticket, submitted, request)) = window.pop_front() else {
            break;
        };
        let (result, answered) = ticket.wait_timed();
        trace.record("serve.submit_to_answer", request, submitted, answered);
        samples.push((answered, ms(answered.saturating_duration_since(submitted))));
        out.errors += u64::from(result.is_err());
    }
    // Tickets are redeemed in submission order; order the samples by when
    // each answer was produced.
    samples.sort_by_key(|(answered, _)| *answered);
    for (answered, latency_ms) in samples {
        out.latencies_ms.push(latency_ms);
        out.completed_at_s
            .push(answered.saturating_duration_since(began).as_secs_f64());
    }
    out.passes = 1;
    out
}

/// Runs one live window: both load threads, one tick per `interval`.
fn live_window(
    run: &mut Run<'_>,
    node: &Node,
    mix: &mut RequestMix,
    ticks: &[Vec<TrajPoint>],
    interval: Duration,
) -> Window {
    let stop = AtomicBool::new(false);
    let (mut query_trace, mut ingest_trace) = (run.trace.fork(1), run.trace.fork(2));
    let began = Instant::now();
    let (queries, (ack_ms, late_ms, ingest_errors)) = std::thread::scope(|scope| {
        let query_thread = scope.spawn(|| {
            query_load(
                &node.server,
                || Some(mix.next()),
                &stop,
                began,
                &mut query_trace,
            )
        });
        let ingest_thread = scope.spawn(|| {
            let (mut ack_ms, mut late_ms, mut errors) = (Vec::new(), Vec::new(), 0u64);
            for (i, tick) in ticks.iter().enumerate() {
                let due = began + interval * i as u32;
                sleep_until(due);
                let t0 = Instant::now();
                let acked = ingest_trace.span("engine.ingest", 0, |_| node.engine.ingest(tick));
                ack_ms.push(ms(t0.elapsed()));
                late_ms.push(ms(t0.saturating_duration_since(due)));
                errors += u64::from(acked.is_err());
            }
            // The window closes one interval after its last tick: the query
            // thread drains and stops.
            sleep_until(began + interval * ticks.len() as u32);
            stop.store(true, Ordering::Relaxed);
            (ack_ms, late_ms, errors)
        });
        (
            query_thread.join().expect("query load thread"),
            ingest_thread.join().expect("ingest load thread"),
        )
    });
    run.trace.merge(query_trace);
    run.trace.merge(ingest_trace);
    Window {
        queries,
        ack_ms,
        late_ms,
        ingest_errors,
    }
}

/// Feeds `ticks` to the reference engine (volatile, serial); returns points/s.
fn feed_reference(reference: &ReachabilityEngine, ticks: &[Vec<TrajPoint>]) -> f64 {
    let t0 = Instant::now();
    let mut points = 0usize;
    for tick in ticks {
        reference.ingest(tick).expect("volatile reference ingest");
        points += tick.len();
    }
    points as f64 / t0.elapsed().as_secs_f64()
}

/// Brings the node to a steady state before a window opens, ingest at rest:
/// every hot tuple once (result cache and the hot windows' Con-Index tables),
/// any maintenance that is due (a compaction swaps in a base whose pages are
/// not pooled yet), then a stretch of fresh queries to pool those pages.
fn refill(run: &mut Run<'_>, node: &Node, mix: &mut RequestMix) {
    let never = AtomicBool::new(false);
    let mut trace = run.trace.fork(1);
    let mut hot = mix.hot_tuples().to_vec().into_iter();
    let hot_pass = query_load(
        &node.server,
        || hot.next(),
        &never,
        Instant::now(),
        &mut trace,
    );
    node.maintenance.run_now();
    let mut fresh = 0;
    let fresh_pass = query_load(
        &node.server,
        || {
            fresh += 1;
            (fresh <= 400).then(|| mix.unique())
        },
        &never,
        Instant::now(),
        &mut trace,
    );
    run.count(
        (hot_pass.latencies_ms.len() + fresh_pass.latencies_ms.len()) as u64,
        hot_pass.errors + fresh_pass.errors,
        "refill queries (typed error)",
    );
}

/// With ingest stopped: a seeded quarter of the hot tuples and a few fresh
/// queries, each answered through the server (cached or not) and compared
/// with a fresh computation on the same engine — a stale cache entry shows
/// here. The hot tuples of the 09:00 window are also compared with the
/// reference engine at the same ingest position (one window, because the
/// reference's own ingest dropped its tables and each costs ~150 ms).
fn check_quiesced(
    run: &mut Run<'_>,
    node: &Node,
    reference: &ReachabilityEngine,
    mix: &mut RequestMix,
) {
    let hot = mix.hot_tuples().to_vec();
    let mut queries: Vec<SQuery> = check::sample_indices(run.args.seed, hot.len(), 0.25)
        .into_iter()
        .map(|i| hot[i])
        .collect();
    queries.extend((0..16).map(|_| mix.unique()));
    let nine = |q: &SQuery| (9 * 3600..10 * 3600).contains(&q.start_time_s);
    let wrong = queries
        .iter()
        .filter(|q| {
            let Ok(served) = node.server.query(**q, Algorithm::SqmbTbs) else {
                return true;
            };
            let fresh = node.engine.try_s_query(q, Algorithm::SqmbTbs);
            let fresh_ok = fresh.is_ok_and(|f| check::same_region(&served.region, &f.region));
            let reference_ok = !nine(q)
                || reference
                    .try_s_query(q, Algorithm::SqmbTbs)
                    .is_ok_and(|r| check::same_region(&served.region, &r.region));
            !(fresh_ok && reference_ok)
        })
        .count();
    run.count(
        queries.len() as u64,
        wrong as u64,
        "served answers vs a fresh computation and the quiesced reference engine",
    );
}

pub fn run(args: &Args, epoch: Instant) -> (Report, Trace) {
    let mut run = Run::new(args, "serve_live", epoch);
    let State {
        world,
        dir,
        node,
        reference,
    } = run.setup(setup);
    let mut mix = RequestMix::new(args.seed, &world.network);
    let day = &world.live_days[0];

    // Bring node and reference to 14:00 of the live day, flat-out.
    run.span("warmup", |run| {
        for tick in &day[..CALM_FROM] {
            node.engine.ingest(tick).expect("catch-up ingest");
        }
        feed_reference(&reference, &day[..CALM_FROM]);
        refill(run, &node, &mut mix);
    });

    // The 40 ticks of 14:00–17:20 span the run's seconds; a traced run's two
    // halves take 20 ticks each at the same interval, so both see one regime.
    let interval = Duration::from_secs_f64(args.seconds / CALM_TICKS as f64);
    let server_before = node.server.stats();
    let tables_before = node.engine.con_index().stats();
    let maintenance_before = node.maintenance.stats();
    let mut windows: Vec<Window> = Vec::new();
    let mut next_tick = CALM_FROM;
    let timed = timed_phase(&mut run, |run, seconds| {
        let ticks = ((seconds / interval.as_secs_f64()).round() as usize).max(1);
        let live = &day[next_tick..next_tick + ticks];
        next_tick += ticks;
        let mut window = live_window(run, &node, &mut mix, live, interval);
        feed_reference(&reference, live);
        let queries = std::mem::take(&mut window.queries);
        windows.push(window);
        queries
    });
    let server_after = node.server.stats();
    let stats = timed.reduced(Reduce::WholePhase);
    record_end_to_end(&mut run, &stats, timed.passes);
    run.count(
        stats.samples as u64,
        timed.errors,
        "served queries (typed error)",
    );
    let ticks_ingested = (next_tick - CALM_FROM) as u64;
    let ingest_errors: u64 = windows.iter().map(|w| w.ingest_errors).sum();
    run.count(ticks_ingested, ingest_errors, "durable tick ingests");
    let late: Vec<f64> = windows
        .iter()
        .flat_map(|w| w.late_ms.iter().copied())
        .collect();
    run.notes.push(format!(
        "one tick per {:.1} ms; ingest ran late by p50 {:.3} ms, max {:.3} ms over {} ticks",
        ms(interval),
        metrics::median(&late),
        late.iter().copied().fold(0.0, f64::max),
        late.len(),
    ));

    run.span("check", |run| {
        check_quiesced(run, &node, &reference, &mut mix)
    });

    // Counters cover both halves of a traced run.
    let answered = (server_after.completed - server_before.completed).max(1) as f64;
    let hits = (server_after.cache_hits - server_before.cache_hits) as f64;
    let misses = (server_after.cache_misses - server_before.cache_misses) as f64;
    run.values
        .set("serve.cache_hit_ratio", hits / (hits + misses).max(1.0));
    run.values.set(
        "serve.coalesced_share",
        (server_after.coalesced - server_before.coalesced) as f64 / answered,
    );
    run.values.set(
        "serve.invalidated_per_tick",
        (server_after.cache_invalidated - server_before.cache_invalidated) as f64
            / ticks_ingested as f64,
    );
    run.values.set(
        "serve.flushes",
        (server_after.cache_flushes - server_before.cache_flushes) as f64,
    );
    run.values.set(
        "serve.latency_p99_ms",
        metrics::percentile(&timed.latencies_ms, 0.99),
    );
    let acks: Vec<f64> = windows
        .iter()
        .flat_map(|w| w.ack_ms.iter().copied())
        .collect();
    run.values
        .set("ingest.ack_p95_ms", metrics::percentile(&acks, 0.95));
    let tables = node.engine.con_index().stats();
    run.values.set(
        "con_index.builds_per_query",
        (tables.slots_built - tables_before.slots_built) as f64 / answered,
    );
    run.values.set(
        "con_index.evictions",
        (tables.slots_evicted - tables_before.slots_evicted) as f64,
    );
    let maintenance = node.maintenance.stats();
    run.values.set(
        "maintenance.checkpoints",
        (maintenance.checkpoints - maintenance_before.checkpoints) as f64,
    );
    run.values.set(
        "maintenance.compactions",
        (maintenance.compactions - maintenance_before.compactions) as f64,
    );

    if args.trace {
        let (rest_of_day, probe_day) = (&day[next_tick..], &world.live_days[1]);
        run.span("probes", |run| {
            layer_probes(
                run,
                &world,
                &dir,
                node,
                &reference,
                &mut mix,
                rest_of_day,
                probe_day,
            );
        });
    }
    run.finish()
}

/// The serving, write-path and recovery figures only a traced run pays for.
#[allow(clippy::too_many_arguments)]
fn layer_probes(
    run: &mut Run<'_>,
    world: &World,
    dir: &Path,
    node: Node,
    reference: &ReachabilityEngine,
    mix: &mut RequestMix,
    rest_of_day: &[Vec<TrajPoint>],
    probe_day: &[Vec<TrajPoint>],
) {
    // Serving layers, quiesced and one request at a time: hot tuples twice
    // (the second is a sure hit), then fresh queries through the server and
    // directly on the engine.
    let hot = mix.hot_tuples().to_vec();
    let mut hit_us = Vec::new();
    for q in hot.iter().step_by(2) {
        let _ = node.server.query(*q, Algorithm::SqmbTbs);
        let t0 = Instant::now();
        let _ = node.server.query(*q, Algorithm::SqmbTbs);
        hit_us.push(us(t0.elapsed()));
    }
    run.values.set("serve.hit_p50_us", metrics::median(&hit_us));
    let (mut miss_ms, mut direct_ms) = (Vec::new(), Vec::new());
    for _ in 0..150 {
        let q = mix.unique();
        let t0 = Instant::now();
        let _ = node.server.query(q, Algorithm::SqmbTbs);
        miss_ms.push(ms(t0.elapsed()));
        let t0 = Instant::now();
        let _ = node.engine.try_s_query(&q, Algorithm::SqmbTbs);
        direct_ms.push(ms(t0.elapsed()));
    }
    let (miss, direct) = (metrics::median(&miss_ms), metrics::median(&direct_ms));
    run.values.set("serve.miss_p50_ms", miss);
    run.values.set("serve.queue_overhead_ms", miss - direct);
    run.count(hit_us.len() as u64 * 2 + 300, 0, "quiesced serving probes");

    // One passage through a hot window, on its own: the ticks that follow the
    // timed window run through 18:00–18:50 with the tables and the cache as
    // the timed window left them.
    let (passage, rest_of_day) = rest_of_day.split_at(PASSAGE_TICKS);
    let window = live_window(run, &node, mix, passage, PASSAGE_INTERVAL);
    feed_reference(reference, passage);
    let stats = window.queries.reduced(Reduce::WholePhase);
    run.values.set("serve.passage_per_s", stats.per_s);
    run.values.set("serve.passage_p95_ms", stats.p95_ms);
    run.count(
        stats.samples as u64 + PASSAGE_TICKS as u64,
        window.queries.errors + window.ingest_errors,
        "queries and ingests of the hot-window passage",
    );
    check_quiesced(run, &node, reference, mix);

    // Flat-out durable ingest: two runs of 90 ticks (the evening, then the
    // probe day's small hours), an incremental checkpoint after each.
    let wal_path = dir.join(WAL_FILE);
    let flat_out: Vec<Vec<TrajPoint>> = rest_of_day.iter().chain(probe_day).cloned().collect();
    let (flat_out, tail) = flat_out[..2 * FLAT_OUT_TICKS + TAIL_TICKS].split_at(2 * FLAT_OUT_TICKS);
    let (mut rates, mut volatile_rates, mut checkpoint_s) = (Vec::new(), Vec::new(), Vec::new());
    let (mut wal_bytes_per_point, mut record_bytes) = (0.0, 0);
    for ticks in flat_out.chunks(FLAT_OUT_TICKS) {
        // A checkpoint may rotate the log, so growth is measured per run.
        let wal_before = file_bytes(&wal_path);
        let t0 = Instant::now();
        let mut points = 0u64;
        for tick in ticks {
            run.trace
                .span("engine.ingest", 0, |_| node.engine.ingest(tick))
                .expect("flat-out durable ingest");
            points += tick.len() as u64;
        }
        rates.push(points as f64 / t0.elapsed().as_secs_f64());
        let wal_grew = file_bytes(&wal_path).saturating_sub(wal_before);
        wal_bytes_per_point = wal_grew as f64 / points as f64;
        record_bytes = (wal_grew / ticks.len() as u64) as usize;
        let t0 = Instant::now();
        run.trace
            .span("engine.save_incremental_snapshot", 0, |_| {
                node.engine.save_incremental_snapshot(dir)
            })
            .expect("incremental checkpoint");
        checkpoint_s.push(t0.elapsed().as_secs_f64());
        volatile_rates.push(feed_reference(reference, ticks));
    }
    run.count(
        flat_out.len() as u64 + 2,
        0,
        "flat-out ingests and checkpoints",
    );
    run.values.set("ingest_points_per_s", metrics::mean(&rates));
    run.values.set(
        "ingest.volatile_points_per_s",
        metrics::mean(&volatile_rates),
    );
    run.values.set("checkpoint_s", metrics::mean(&checkpoint_s));
    run.values.set("wal.bytes_per_point", wal_bytes_per_point);
    let t0 = Instant::now();
    node.engine
        .save_incremental_snapshot(dir)
        .expect("checkpoint with nothing new");
    run.values
        .set("snapshot.incremental_save_s", t0.elapsed().as_secs_f64());

    run.values.set(
        "st_index.delta_bytes",
        node.engine.st_index().delta_stats().delta_bytes as f64,
    );
    let t0 = Instant::now();
    run.trace
        .span("engine.compact", 0, |_| node.engine.compact())
        .expect("compact");
    run.values.set("compact_s", t0.elapsed().as_secs_f64());
    // Neither the compacted base nor the ticks that follow reach a snapshot:
    // recovery starts from the last checkpoint and replays the tail.
    for tick in tail {
        node.engine.ingest(tick).expect("un-checkpointed ingest");
    }
    let probes: Vec<SQuery> = hot.iter().step_by(8).copied().collect();
    let before: Vec<Option<ReachableRegion>> = probes
        .iter()
        .map(|q| {
            node.engine
                .try_s_query(q, Algorithm::SqmbTbs)
                .ok()
                .map(|o| o.region)
        })
        .collect();
    let scratch = run.work.fresh("scratch");
    probes::wal(run, &scratch.join("probe.wal"), record_bytes);

    // The node goes away: only the snapshot and the WAL remain, and every
    // acknowledged record of that WAL was fsynced before its ack. Reopen +
    // replay, three times over the same bytes.
    drop(node);
    let (mut recover_s, mut replay_s, mut replayed, mut wrong) = (Vec::new(), Vec::new(), 0, 0u64);
    for _ in 0..3 {
        let t0 = Instant::now();
        let engine = open(run, dir, world, StorageBackend::File);
        let t1 = Instant::now();
        let attach = run
            .trace
            .span("engine.attach_wal", 0, |_| engine.attach_wal(&wal_path))
            .expect("replay the WAL");
        replay_s.push(t1.elapsed().as_secs_f64());
        recover_s.push(t0.elapsed().as_secs_f64());
        replayed = attach.records_replayed;
        for (q, want) in probes.iter().zip(&before) {
            let got = engine
                .try_s_query(q, Algorithm::SqmbTbs)
                .ok()
                .map(|o| o.region);
            wrong += u64::from(match (&got, want) {
                (Some(got), Some(want)) => !check::same_region(got, want),
                _ => true,
            });
        }
    }
    run.count(
        3 * probes.len() as u64 + 3,
        wrong + u64::from(replayed != tail.len() as u64),
        "recovered answers vs pre-crash ones (every acknowledged ingest must be readable)",
    );
    run.values.set("recover_s", metrics::median(&recover_s));
    run.values.set("wal.replay_s", metrics::median(&replay_s));
    run.values.set("wal.replay_records", replayed as f64);
}
