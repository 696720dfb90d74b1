//! `adhoc_warm`: one closed-loop caller against a file-backend engine whose
//! pool holds the whole heap and whose Con-Index tables are pre-built. Only
//! the CPU query path works here (bounding hops, TBS, verifier, posting
//! decode on pool hits), so this is the bypass workload for storage misses,
//! table builds, the serving front end, the WAL and the router.

use std::time::Instant;

use streach_core::prelude::*;
use streach_core::query::MQueryAlgorithm;
use streach_core::StorageBackend;

use super::{
    build_and_save, closed_loop, index_config, make_world, open, record_end_to_end,
    record_query_layers, timed_phase, Args, Run,
};
use crate::inputs::{self, World};
use crate::metrics::{self, ms, Report};
use crate::trace::Trace;
use crate::{check, probes};

/// 32 MiB of pool against a ~15 MiB heap: everything fits.
const POOL_PAGES: usize = 8192;

struct State {
    world: World,
    engine: ReachabilityEngine,
    queries: Vec<SQuery>,
}

fn setup(run: &mut Run<'_>) -> State {
    let world = make_world(run, 0);
    let dir = run.work.fresh("snapshot");
    drop(build_and_save(run, &world, &index_config(POOL_PAGES), &dir));
    let t0 = Instant::now();
    let engine = open(run, &dir, &world, StorageBackend::File);
    run.values
        .set("snapshot.open_file_s", t0.elapsed().as_secs_f64());
    let queries = inputs::s_queries(run.args.seed, &world.network);
    // Every slot a query of the list can touch: T in [09:00, 09:30) plus up
    // to 20 minutes, one more for the verifier's window.
    let slot_s = engine.config().slot_s;
    let slots: Vec<u32> = (9 * 3600 / slot_s..=(9 * 3600 + 1800 + 1200) / slot_s + 1).collect();
    let build_ms = probes::build_tables(run, &engine, &slots);
    run.values
        .set("con_index.table_build_ms", metrics::median(&build_ms));
    State {
        world,
        engine,
        queries,
    }
}

pub fn run(args: &Args, epoch: Instant) -> (Report, Trace) {
    let mut run = Run::new(args, "adhoc_warm", epoch);
    let State {
        world,
        engine,
        queries,
    } = run.setup(setup);
    let exec = |q: &SQuery| engine.try_s_query(q, Algorithm::SqmbTbs);

    run.span("warmup", |run| {
        closed_loop(run, "engine.try_s_query", &queries, 0.0, exec)
    });
    let tables_before = engine.con_index().stats();
    let timed = timed_phase(&mut run, |run, seconds| {
        closed_loop(run, "engine.try_s_query", &queries, seconds, exec)
    });
    let tables_after = engine.con_index().stats();
    let stats = timed.phase_stats();
    record_end_to_end(&mut run, &stats, timed.passes);
    run.count(
        stats.samples as u64,
        timed.errors + timed.unstable,
        "s-queries (typed error or unstable answer)",
    );
    record_query_layers(&mut run.values, &queries, &timed);
    let built = tables_after.slots_built - tables_before.slots_built;
    run.values.set(
        "con_index.builds_per_query",
        built as f64 / stats.samples as f64,
    );
    run.values.set(
        "con_index.evictions",
        (tables_after.slots_evicted - tables_before.slots_evicted) as f64,
    );

    run.span("check", |run| {
        let (n, wrong) = check::check_sample(run.args.seed, &queries, &timed, |q| {
            check::reference_tbs(&engine, q)
        });
        run.count(n, wrong, "sampled s-query answers vs naive TBS");
    });

    if args.trace {
        run.span("probes", |run| layer_probes(run, &world, &engine, &queries));
    }
    run.finish()
}

/// The per-layer figures only a traced run pays for.
fn layer_probes(run: &mut Run<'_>, world: &World, engine: &ReachabilityEngine, queries: &[SQuery]) {
    probes::locate(run, engine, queries);
    probes::table_hit(run, engine, 9 * 3600 / engine.config().slot_s);
    let hit_us = probes::time_lists(run, engine, queries, false);
    run.values
        .set("st_index.time_list_hit_us", metrics::median(&hit_us));

    // m-queries (MQMB+TBS, 3 locations): one warm-up pass, then a quarter of
    // the run's seconds.
    let m_queries = inputs::m_queries(run.args.seed, &world.network);
    let m_exec = |q: &MQuery| engine.try_m_query(q, MQueryAlgorithm::MqmbTbs);
    closed_loop(run, "engine.try_m_query", &m_queries, 0.0, m_exec);
    let m_run = closed_loop(
        run,
        "engine.try_m_query",
        &m_queries,
        run.args.seconds / 4.0,
        m_exec,
    );
    run.values
        .set("mquery_p50_ms", metrics::median(&m_run.latencies_ms));
    let bounding: Vec<f64> = m_run
        .stats
        .iter()
        .map(|(_, s)| ms(s.bounding_time))
        .collect();
    run.values
        .set("mqmb.bounding_ms_p50", metrics::median(&bounding));
    let (n, wrong) = check::check_sample(run.args.seed, &m_queries, &m_run, |q| {
        check::reference_mqmb(engine, q)
    });
    run.count(
        m_run.latencies_ms.len() as u64 + n,
        m_run.errors + m_run.unstable + wrong,
        "m-queries (typed error, unstable, or differs from naive MQMB)",
    );

    // The paper's baseline on a slice of the same list, every sixth answer
    // checked against the naive ES.
    let slice = &queries[..queries.len().min(60)];
    let es = closed_loop(run, "engine.try_s_query(ES)", slice, 0.0, |q| {
        engine.try_s_query(q, Algorithm::ExhaustiveSearch)
    });
    run.values
        .set("query.es_p50_ms", metrics::median(&es.latencies_ms));
    let wrong = (0..slice.len())
        .step_by(6)
        .filter(
            |&i| match (es.answer(i), check::reference_es(engine, &slice[i])) {
                (Some(got), Some(want)) => !check::same_region(got, &want),
                _ => true,
            },
        )
        .count() as u64;
    run.count(
        slice.len() as u64,
        es.errors + wrong,
        "ES queries vs naive ES",
    );

    // The same list with the verify fan-out pinned to one worker.
    let one = streach_par::with_worker_override(1, || {
        closed_loop(run, "engine.try_s_query(1 worker)", queries, 0.0, |q| {
            engine.try_s_query(q, Algorithm::SqmbTbs)
        })
    });
    run.values
        .set("par.one_worker_p50_ms", metrics::median(&one.latencies_ms));
    run.count(
        one.latencies_ms.len() as u64,
        one.errors,
        "one-worker s-queries",
    );
}
