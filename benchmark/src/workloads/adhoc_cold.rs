//! `adhoc_cold`: restart and day-wide analysis. Every pass opens the
//! snapshot afresh through the mmap backend with a 256 KiB pool (far below
//! the ~15 MiB heap) and sweeps the whole day, nothing pre-warmed: snapshot
//! open, Con-Index table construction and LRU eviction, pool misses and mmap
//! page reads do most of the work. The larger-than-cache counterpart of
//! `adhoc_warm`.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use streach_core::prelude::*;
use streach_core::snapshot::{CONTAINER_FILE, PAGES_FILE};
use streach_core::StorageBackend;

use super::{
    build_and_save, dir_bytes, file_bytes, index_config, make_world, one_pass, open,
    record_end_to_end, record_query_layers, timed_phase, Args, QueryRun, Run,
};
use crate::check;
use crate::inputs::{self, World, SWEEP_CHUNK};
use crate::metrics::{self, Report};
use crate::probes::{self, ReadClock, TimedStore};
use crate::trace::Trace;

/// 64 pages = 256 KiB of pool.
const POOL_PAGES: usize = 64;

struct State {
    world: World,
    dir: std::path::PathBuf,
    queries: Vec<SQuery>,
}

fn setup(run: &mut Run<'_>) -> State {
    let world = make_world(run, 0);
    let dir = run.work.fresh("snapshot");
    drop(build_and_save(run, &world, &index_config(POOL_PAGES), &dir));
    let queries = inputs::sweep_queries(run.args.seed, &world.network);
    State {
        world,
        dir,
        queries,
    }
}

/// Opens the snapshot with every page store under a read clock.
fn open_timed(
    dir: &Path,
    world: &World,
    backend: StorageBackend,
    clock: &Arc<ReadClock>,
) -> ReachabilityEngine {
    ReachabilityEngine::open_snapshot_with_stores_and_backend(
        dir,
        world.network.clone(),
        Some(backend),
        |_, store| TimedStore::wrap(store, clock.clone()),
    )
    .expect("open the snapshot under the read clock")
}

pub fn run(args: &Args, epoch: Instant) -> (Report, Trace) {
    let mut run = Run::new(args, "adhoc_cold", epoch);
    let State {
        world,
        dir,
        queries,
    } = run.setup(setup);

    // A short untimed warm-up: the snapshot was just written, so the
    // operating system already caches it; this only pages the code in.
    run.span("warmup", |run| {
        let engine = open(run, &dir, &world, StorageBackend::Mmap);
        let exec = |q: &SQuery| engine.try_s_query(q, Algorithm::SqmbTbs);
        one_pass(
            run,
            &mut QueryRun::default(),
            Instant::now(),
            "engine.try_s_query",
            &queries,
            0..4,
            exec,
        );
    });

    let mut open_s = Vec::new();
    let (mut built, mut evicted) = (0u64, 0u64);
    let mmap_clock = Arc::new(ReadClock::default());
    let mut last_engine = None;
    // One restart per sub-sweep; sub-sweeps run in whole numbers until the
    // phase's seconds have passed, continuing through the day-wide list.
    let mut next_chunk = 0;
    let timed = timed_phase(&mut run, |run, seconds| {
        let mut out = QueryRun::default();
        let began = Instant::now();
        while out.passes == 0 || began.elapsed().as_secs_f64() < seconds {
            drop(last_engine.take());
            let t0 = Instant::now();
            let engine = if run.trace.enabled() {
                run.trace.span("snapshot.open_mmap", 0, |_| {
                    open_timed(&dir, &world, StorageBackend::Mmap, &mmap_clock)
                })
            } else {
                open(run, &dir, &world, StorageBackend::Mmap)
            };
            open_s.push(t0.elapsed().as_secs_f64());
            let from = next_chunk % (queries.len() / SWEEP_CHUNK) * SWEEP_CHUNK;
            next_chunk += 1;
            one_pass(
                run,
                &mut out,
                began,
                "engine.try_s_query",
                &queries,
                from..from + SWEEP_CHUNK,
                |q| engine.try_s_query(q, Algorithm::SqmbTbs),
            );
            let tables = engine.con_index().stats();
            built += tables.slots_built;
            evicted += tables.slots_evicted;
            last_engine = Some(engine);
        }
        out
    });
    let engine = last_engine.expect("the timed phase opened an engine");
    let stats = timed.phase_stats();
    record_end_to_end(&mut run, &stats, timed.passes);
    run.count(
        stats.samples as u64 + open_s.len() as u64,
        timed.errors + timed.unstable,
        "sweep s-queries (typed error or unstable answer)",
    );
    record_query_layers(&mut run.values, &queries, &timed);
    run.values.set("open_s", metrics::median(&open_s));
    run.notes.push(format!("open_s samples: {}", open_s.len()));
    // Table counters cover both halves of a traced run; so must the divisor.
    let all_queries = (open_s.len() * SWEEP_CHUNK) as f64;
    run.values
        .set("con_index.builds_per_query", built as f64 / all_queries);
    run.values.set("con_index.evictions", evicted as f64);
    run.values.set(
        "disk_bytes_per_point",
        dir_bytes(&dir) as f64 / world.base_points as f64,
    );

    run.span("check", |run| {
        // Only the queries a sub-sweep reached have an answer to compare.
        let (n, wrong) = check::check_sample(run.args.seed, &queries, &timed, |q| {
            check::reference_tbs(&engine, q)
        });
        run.count(n, wrong, "sampled sweep answers vs naive TBS");
    });
    drop(engine);

    if args.trace {
        run.values
            .set("pagestore.read_us_mmap", mmap_clock.mean_us());
        run.span("probes", |run| layer_probes(run, &world, &dir, &queries));
    }
    run.finish()
}

fn layer_probes(run: &mut Run<'_>, world: &World, dir: &Path, queries: &[SQuery]) {
    run.values.set(
        "snapshot.bytes_index_snap",
        file_bytes(&dir.join(CONTAINER_FILE)) as f64,
    );
    run.values.set(
        "snapshot.bytes_postings",
        file_bytes(&dir.join(PAGES_FILE)) as f64,
    );
    for (backend, name) in [
        (StorageBackend::File, "snapshot.open_file_s"),
        (StorageBackend::Mmap, "snapshot.open_mmap_s"),
    ] {
        let opens: Vec<f64> = (0..3)
            .map(|_| {
                let t0 = Instant::now();
                drop(open(run, dir, world, backend));
                t0.elapsed().as_secs_f64()
            })
            .collect();
        run.values.set(name, metrics::median(&opens));
    }

    // Table construction on a fresh engine: eight uncached slots spread over
    // the day, one build each.
    let file_clock = Arc::new(ReadClock::default());
    let engine = open_timed(dir, world, StorageBackend::File, &file_clock);
    let slots: Vec<u32> = (0..8).map(|i| i * 36 + 1).collect();
    let build_ms = probes::build_tables(run, &engine, &slots);
    run.values
        .set("con_index.table_build_ms", metrics::median(&build_ms));
    probes::table_hit(run, &engine, slots[0]);
    probes::locate(run, &engine, queries);

    // Posting reads: warm first (pool hits), then with the pool dropped
    // before every call (each read goes to the file backend under the clock).
    let hit_us = probes::time_lists(run, &engine, queries, false);
    run.values
        .set("st_index.time_list_hit_us", metrics::median(&hit_us));
    file_clock
        .reads
        .store(0, std::sync::atomic::Ordering::Relaxed);
    file_clock
        .nanos
        .store(0, std::sync::atomic::Ordering::Relaxed);
    let miss_us = probes::time_lists(run, &engine, queries, true);
    run.values
        .set("st_index.time_list_miss_us", metrics::median(&miss_us));
    run.values
        .set("pagestore.read_us_file", file_clock.mean_us());
}
