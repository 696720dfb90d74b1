//! Deterministic concurrency harness: queries racing ingest, auto-checkpoint
//! and background compaction must answer **bit-identically** to a quiesced
//! reference engine.
//!
//! The harness is seeded (`STREACH_FAULT_SEED`, printed in every assertion)
//! and drives N query threads against a live serving engine while, on other
//! threads:
//!
//! * a [`MaintenanceController`] runs auto-checkpoints (the delta tail
//!   crosses `IndexConfig::auto_checkpoint_bytes` every round) and
//!   ratio-triggered compactions — `run_now` turns "maintenance exactly
//!   here" into a scripted trigger point, and the worker's own poll cadence
//!   adds unscripted interleavings on top;
//! * the writer ingests **slot-disjoint** batches (fresh trajectory IDs,
//!   afternoon time slots, existing dates) through the WAL — data that
//!   provably cannot change any answer of the morning query pool, so even
//!   queries racing the ingest application must match the quiesced
//!   reference bit-exactly (a guard assertion re-checks the disjointness
//!   premise after every round).
//!
//! Each round barriers on batch ingest (the one operation that *does*
//! change answers), pre-computes the reference answers on a quiesced
//! single-threaded engine, then lets the threads race. After the rounds the
//! live engine is "crashed", reopened from the auto-checkpoint directory,
//! and the WAL tail replayed — still bit-identical to the reference.
//!
//! Query threads run under `streach_par::with_worker_override` (seeded 1 or
//! 2 workers), so both the sequential and the genuinely parallel
//! verification paths race the maintenance.

use std::sync::Arc;

use streach::prelude::*;
use streach_core::MaintenanceConfig;
use streach_testkit::{
    assert_pool_answers, checkpointing_config, disjoint_batch, fault_seed, pool, pool_answers,
    race_queries, scenario, tmp_dir, Race,
};

/// Base fleet-days built offline; the remaining days arrive via ingest.
const BASE_DAYS: u16 = 2;
/// Fleet-days ingested round by round.
const EXTRA_DAYS: u16 = 2;
/// Concurrent query threads.
const QUERY_THREADS: usize = 3;

/// The tentpole harness (see the module docs).
#[test]
fn queries_racing_ingest_checkpoint_and_compaction_stay_bit_identical() {
    let seed = fault_seed();
    let dir = tmp_dir("harness");
    let (network, base, round_batches) = scenario(BASE_DAYS, EXTRA_DAYS);
    // Any non-empty delta warrants an auto-checkpoint: every maintenance
    // pass during a round does real checkpoint work.
    EngineBuilder::new(network.clone(), &base)
        .index_config(checkpointing_config())
        .save_snapshot(&dir)
        .expect("save base snapshot");
    let center = network.bounds().center();
    let pool = pool(&[center], &[center, center.offset_m(900.0, -600.0)]);

    // Live engine: WAL-backed, with a background maintenance worker whose
    // poll cadence races the rounds on its own, on top of the scripted
    // `run_now` trigger points.
    let live = Arc::new(
        ReachabilityEngine::open_snapshot(&dir, network.clone()).expect("open live engine"),
    );
    live.attach_wal(dir.join("ingest.wal")).expect("attach WAL");
    let controller = streach_core::MaintenanceController::spawn(
        Arc::clone(&live),
        &dir,
        MaintenanceConfig {
            poll_interval: std::time::Duration::from_millis(20),
            compact_delta_ratio: Some(0.05),
        },
    );

    // Quiesced reference: same base snapshot, volatile ingest, queried
    // single-threaded only between rounds.
    let reference =
        ReachabilityEngine::open_snapshot(&dir, network.clone()).expect("open reference");

    let rounds = if cfg!(debug_assertions) {
        2.min(round_batches.len())
    } else {
        round_batches.len().min(4)
    };
    let queries_per_thread = if cfg!(debug_assertions) { 4 } else { 8 };

    for (round, batch) in round_batches.iter().enumerate().take(rounds) {
        // Barrier phase: the one operation that changes answers — a real
        // fleet-day batch — lands quiesced on both engines.
        live.ingest(batch)
            .unwrap_or_else(|e| panic!("[seed {seed}] round {round}: live ingest failed: {e}"));
        reference
            .ingest(batch)
            .unwrap_or_else(|e| panic!("[seed {seed}] round {round}: reference ingest: {e}"));
        let expected = pool_answers(&reference, &pool);
        assert_pool_answers(
            live.as_ref(),
            &pool,
            &expected,
            seed,
            &format!("round {round} entry"),
        );

        // Phase A: queries race auto-checkpoint + compaction. `run_now`
        // blocks until the worker's pass (checkpoint and/or compaction)
        // completed, so passes run back to back for the whole phase.
        race_queries(
            live.as_ref(),
            &pool,
            &expected,
            Race {
                seed,
                threads: QUERY_THREADS,
                queries_per_thread,
                phase: round as u64 * 2,
                label: &format!("round {round} phase A (maintenance race)"),
            },
            || controller.run_now(),
        );
        let maintenance_errors = controller.take_errors();
        assert!(
            maintenance_errors.is_empty(),
            "[seed {seed}] round {round}: background maintenance failed: {maintenance_errors:?}"
        );
        assert_pool_answers(
            live.as_ref(),
            &pool,
            &expected,
            seed,
            &format!("round {round} post-A"),
        );

        // Phase B: queries race a live WAL ingest of slot-disjoint data
        // (plus whatever the background worker's own cadence does). The
        // ingest is split into pieces so the application keeps racing the
        // queries for the whole phase.
        let disjoint = disjoint_batch(batch, round, BASE_DAYS);
        reference
            .ingest(&disjoint)
            .unwrap_or_else(|e| panic!("[seed {seed}] round {round}: reference disjoint: {e}"));
        let pieces: Vec<&[TrajPoint]> = disjoint
            .chunks(disjoint.len().div_ceil(16).max(1))
            .collect();
        let mut next_piece = 0usize;
        race_queries(
            live.as_ref(),
            &pool,
            &expected,
            Race {
                seed,
                threads: QUERY_THREADS,
                queries_per_thread,
                phase: round as u64 * 2 + 1,
                label: &format!("round {round} phase B (ingest race)"),
            },
            || {
                if next_piece < pieces.len() {
                    live.ingest(pieces[next_piece]).unwrap_or_else(|e| {
                        panic!("[seed {seed}] round {round}: racing ingest failed: {e}")
                    });
                    next_piece += 1;
                } else {
                    std::thread::yield_now();
                }
            },
        );
        // Drain any pieces the query threads outpaced, then guard-check
        // the disjointness premise: the racing data must not have changed
        // a single pool answer.
        for piece in &pieces[next_piece..] {
            live.ingest(piece)
                .unwrap_or_else(|e| panic!("[seed {seed}] round {round}: drain ingest: {e}"));
        }
        assert_pool_answers(
            live.as_ref(),
            &pool,
            &expected,
            seed,
            &format!("round {round} post-B (disjointness guard)"),
        );
        assert_pool_answers(
            &reference,
            &pool,
            &expected,
            seed,
            &format!("round {round} reference guard"),
        );
    }

    // Final quiesced sweep, then crash + recovery: the auto-checkpoints
    // were taken at arbitrary points between batches, so the reopened
    // engine is checkpoint + WAL-tail replay — still bit-identical.
    let stats = controller.stats();
    assert!(
        stats.checkpoints > 0,
        "[seed {seed}] the harness must have exercised auto-checkpoints ({stats:?})"
    );
    assert!(
        stats.compactions > 0,
        "[seed {seed}] the harness must have exercised background compaction ({stats:?})"
    );
    let errors = controller.shutdown();
    assert!(
        errors.is_empty(),
        "[seed {seed}] shutdown errors: {errors:?}"
    );

    let expected = pool_answers(&reference, &pool);
    assert_pool_answers(live.as_ref(), &pool, &expected, seed, "final live");
    drop(live); // crash

    let recovered =
        ReachabilityEngine::open_snapshot(&dir, network.clone()).expect("reopen auto-checkpoint");
    // (Whether the log was rotated at the last checkpoint depends on the
    // race between the checkpoint and in-flight ingest — `records_skipped`
    // may legitimately be non-zero. What must hold is bit-identity.)
    recovered
        .attach_wal(dir.join("ingest.wal"))
        .expect("replay WAL tail");
    assert_pool_answers(&recovered, &pool, &expected, seed, "recovered engine");
    std::fs::remove_dir_all(&dir).ok();
}

/// Compile-time pin: the engine (and its maintenance controller) must stay
/// shareable across threads — the whole harness depends on it.
#[test]
fn engine_is_send_and_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<ReachabilityEngine>();
    assert_send_sync::<streach_core::MaintenanceController>();
}
