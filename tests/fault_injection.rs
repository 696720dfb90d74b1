//! Fault-injection campaign over the query and ingest pipelines.
//!
//! A reopened snapshot serves queries off a real page file; this suite wraps
//! that store in a [`FaultInjectingPageStore`] and drives **every** query
//! pipeline (SQMB+TBS, ES, MQMB, repeated s-query — single-threaded and
//! parallel) through scripted failures:
//!
//! * a **transient** `EIO` at every distinct posting-read ordinal of a
//!   known query is absorbed by the buffer pool's bounded retry — the
//!   query answers bit-identically and the caller never sees the fault;
//! * a **persistent** `EIO` from any ordinal onward exhausts the retry
//!   budget and surfaces as a typed [`QueryError::Storage`] (annotated
//!   with the attempt count) — never a panic, never a silently wrong
//!   region — and leaves the engine able to serve the next fault-free
//!   query bit-identically to the baseline;
//! * torn and zeroed pages must either be rejected (strict posting decode)
//!   or leave the result bit-identical — a partial page can never shift a
//!   probability;
//! * seeded probabilistic faults reproduce deterministically, so a failing
//!   run is reproducible from the seed printed in its assertion message
//!   (override with `STREACH_FAULT_SEED`).
//!
//! The streaming-ingest subsystem gets its own crash-recovery campaign:
//! a torn WAL append ("kill") at **every record ordinal**, reopen, assert
//! the consistent prefix; plus a dead base disk at a spread of read
//! ordinals of an ingest batch's merge, which must fail the batch whole.
//!
//! The online-maintenance campaigns extend the crash story to background
//! work: EIO / torn appends at every attempt ordinal **while a
//! [`MaintenanceController`] owns the checkpoints**, a compaction that
//! fails mid-copy (old base keeps serving, retry succeeds), and a
//! multi-writer group-commit fsync failure (the applied prefix freezes for
//! every record in the group; replay after reopen converges idempotently).

use std::path::PathBuf;
use std::sync::Arc;

use streach::prelude::*;
use streach::storage::{AppendFault, FaultController, FaultInjectingPageStore, ReadFault};
use streach_core::query::MQueryAlgorithm;
use streach_core::{MaintenanceConfig, MaintenanceController};
use streach_testkit::{
    checkpointing_config, fault_scenario, fault_seed, open_with_fault_script, tmp_dir,
};

/// A small all-day scenario: every pipeline below has live postings to
/// read. `read_retries` is persisted in the snapshot's config, so the
/// reopened engine inherits it.
fn build_snapshot_with_retries(dir: &PathBuf, read_retries: u32) -> Arc<RoadNetwork> {
    let (network, dataset) = fault_scenario();
    streach::core::EngineBuilder::new(network.clone(), &dataset)
        .index_config(IndexConfig {
            read_retries,
            ..IndexConfig::default()
        })
        .save_snapshot(dir)
        .expect("save snapshot");
    network
}

fn build_snapshot(dir: &PathBuf) -> Arc<RoadNetwork> {
    build_snapshot_with_retries(dir, IndexConfig::default().read_retries)
}

/// A later fleet (dates 3..5) over the same network, flattened into ingest
/// batches — one batch per trajectory, in a deterministic order.
fn extra_batches(network: &Arc<RoadNetwork>) -> Vec<Vec<TrajPoint>> {
    let extra = TrajectoryDataset::simulate(
        network,
        FleetConfig {
            num_taxis: 6,
            num_days: 2,
            day_start_s: 8 * 3600,
            day_end_s: 12 * 3600,
            seed: 99,
            ..FleetConfig::default()
        },
    );
    extra
        .trajectories()
        .iter()
        .map(|traj| {
            points_of(traj)
                .map(|mut p| {
                    // Shift onto days after the base dataset's 0..3.
                    p.date += 3;
                    p
                })
                .collect()
        })
        .collect()
}

/// What a pipeline run yields: the region's segments, or the error.
type RunResult = Result<Vec<SegmentId>, QueryError>;

/// A pipeline's query, run against an engine.
type RunQuery = dyn Fn(&ReachabilityEngine) -> Result<QueryOutcome, QueryError>;

/// One query pipeline under test.
struct Pipeline {
    name: &'static str,
    run: Box<RunQuery>,
}

impl Pipeline {
    /// Runs the pipeline's query and keeps its region's segments.
    fn region(&self, engine: &ReachabilityEngine) -> RunResult {
        (self.run)(engine).map(|o| o.region.segments)
    }
}

fn pipelines(center: GeoPoint) -> Vec<Pipeline> {
    let s_query = SQuery {
        location: center,
        start_time_s: 9 * 3600,
        duration_s: 300,
        prob: 0.25,
    };
    let m_query = MQuery {
        locations: vec![center, center.offset_m(900.0, -600.0)],
        start_time_s: 9 * 3600,
        duration_s: 300,
        prob: 0.25,
    };
    vec![
        Pipeline {
            name: "sqmb_tbs",
            run: Box::new(move |e| e.try_s_query(&s_query, Algorithm::SqmbTbs)),
        },
        Pipeline {
            name: "es",
            run: Box::new(move |e| e.try_s_query(&s_query, Algorithm::ExhaustiveSearch)),
        },
        Pipeline {
            name: "mqmb",
            run: Box::new({
                let m = m_query.clone();
                move |e| e.try_m_query(&m, MQueryAlgorithm::MqmbTbs)
            }),
        },
        Pipeline {
            name: "repeated_squery",
            run: Box::new(move |e| e.try_m_query(&m_query, MQueryAlgorithm::RepeatedSQuery)),
        },
    ]
}

/// The core campaign, for every pipeline on both the single-threaded and
/// the parallel verification paths, at each distinct posting-read ordinal
/// of the query:
///
/// * a **one-shot** `EIO` is absorbed by the automatic bounded-backoff
///   retry — the query succeeds bit-identically and pays exactly one extra
///   physical attempt;
/// * a **persistent** `EIO` (dead disk from that ordinal on) exhausts the
///   budget and surfaces as a typed storage error annotated with the
///   attempt count, after which the engine serves the baseline again.
///
/// Every scripted run is a fresh open's first query, so it reads its
/// window slots segment-major as a first touch does; the view builds of
/// later touches have their own campaign below.
#[test]
fn eio_at_every_posting_read_ordinal_yields_typed_error_and_engine_survives() {
    let seed = fault_seed();
    let dir = tmp_dir("eio-campaign");
    let network = build_snapshot(&dir);
    let center = network.bounds().center();
    let open = || open_with_fault_script(&dir, network.clone(), seed);
    let (engine, _) = open();
    let budget = engine.config().read_retries;
    assert!(budget > 0, "campaign requires the default retry budget");
    // Every campaign query verifies segments beyond its start: a query its
    // start segment decides reads the start's postings only and would
    // leave the verification reads out of the campaign.
    for pipeline in pipelines(center) {
        let outcome = (pipeline.run)(&engine).expect("fault-free query");
        assert!(
            outcome.stats.segments_verified > 0,
            "[seed {seed}] {}: the campaign query must read postings beyond its start",
            pipeline.name
        );
    }

    for workers in [1usize, 4] {
        streach_par::with_worker_override(workers, || {
            for pipeline in pipelines(center) {
                let name = pipeline.name;
                // Baseline: fault-free, cold cache — counts the distinct
                // posting-page reads this query performs.
                let (engine, ctl) = open();
                let before = ctl.reads_observed();
                let baseline = pipeline.region(&engine).unwrap_or_else(|e| {
                    panic!("[seed {seed}] {name}/w{workers}: fault-free baseline failed: {e}")
                });
                let reads = ctl.reads_observed() - before;
                assert!(
                    reads > 0,
                    "[seed {seed}] {name}/w{workers}: query must read postings"
                );

                // Release CI sweeps every ordinal; debug builds (tier-1
                // `cargo test`) sample every other one to stay inside the
                // pre-retry campaign's time budget.
                let step = if cfg!(debug_assertions) { 2 } else { 1 };
                for ordinal in (0..reads).step_by(step) {
                    // (a) One-shot EIO at this ordinal: the retry absorbs
                    // it — same region, one extra physical attempt, no
                    // error surfaces.
                    let (engine, ctl) = open();
                    let run_start = ctl.reads_observed();
                    ctl.fail_read_at(run_start + ordinal, ReadFault::Eio);
                    let absorbed = pipeline.region(&engine).unwrap_or_else(|e| {
                        panic!(
                            "[seed {seed}] {name}/w{workers} read #{ordinal}: \
                             a one-shot EIO must be absorbed by the retry, got {e}"
                        )
                    });
                    assert_eq!(
                        absorbed, baseline,
                        "[seed {seed}] {name}/w{workers} read #{ordinal}: \
                         retried query diverged from the baseline"
                    );
                    assert!(
                        ctl.reads_observed() - run_start > reads,
                        "[seed {seed}] {name}/w{workers} read #{ordinal}: \
                         absorbing the fault must cost an extra physical attempt"
                    );

                    // (b) Dead disk from this ordinal on: the budget is
                    // exhausted and a typed error names the page, the
                    // backend failure and the attempts made.
                    let (engine, ctl) = open();
                    ctl.fail_reads_from(ctl.reads_observed() + ordinal);
                    match pipeline.region(&engine) {
                        Err(QueryError::Storage { page, context }) => {
                            assert!(
                                page.is_some(),
                                "[seed {seed}] {name}/w{workers} read #{ordinal}: \
                                 storage error must carry the faulting page id ({context})"
                            );
                            assert!(
                                context.contains("injected EIO"),
                                "[seed {seed}] {name}/w{workers} read #{ordinal}: \
                                 context must surface the backend failure, got: {context}"
                            );
                            assert!(
                                context.contains(&format!("after {} attempts", budget + 1)),
                                "[seed {seed}] {name}/w{workers} read #{ordinal}: \
                                 context must surface the exhausted retry budget, got: {context}"
                            );
                        }
                        Err(other) => panic!(
                            "[seed {seed}] {name}/w{workers} read #{ordinal}: \
                             expected QueryError::Storage, got {other}"
                        ),
                        Ok(_) => panic!(
                            "[seed {seed}] {name}/w{workers} read #{ordinal}: \
                             a dead disk must not produce a region"
                        ),
                    }
                    // The engine stays usable: the next fault-free query
                    // answers bit-identically to the baseline.
                    ctl.clear();
                    engine.st_index().clear_cache();
                    let after = pipeline.region(&engine).unwrap_or_else(|e| {
                        panic!(
                            "[seed {seed}] {name}/w{workers} read #{ordinal}: \
                             engine unusable after fault: {e}"
                        )
                    });
                    assert_eq!(
                        after, baseline,
                        "[seed {seed}] {name}/w{workers} read #{ordinal}: \
                         post-fault region diverged from the baseline"
                    );
                }
            }
        });
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A window slot's second verification builds its trajectory view from
/// one read of the whole slot. On a 200-taxi fleet, whose slots span
/// pages, and for SQMB+TBS and ES over a 15-minute window, whose one query
/// touches each window slot once, the second run of a fresh open is
/// scripted at each of its read ordinals, with the read at that ordinal
/// failing on every attempt, or with a dead disk from that ordinal on. The
/// answer is the baseline (the failed build fell back to the
/// segment-major read, which met no fault) or a typed storage error, never
/// a different region; the slot whose build failed keeps no view, and the
/// next clean query builds it and answers the baseline.
#[test]
fn eio_at_every_read_ordinal_of_a_view_build_falls_back_or_fails_typed() {
    let seed = fault_seed();
    let dir = tmp_dir("view-build-campaign");
    let (network, _) = fault_scenario();
    let dataset = TrajectoryDataset::simulate(
        &network,
        FleetConfig {
            num_taxis: 200,
            num_days: 3,
            day_start_s: 8 * 3600,
            day_end_s: 12 * 3600,
            seed: 5,
            ..FleetConfig::default()
        },
    );
    streach::core::EngineBuilder::new(network.clone(), &dataset)
        .index_config(IndexConfig::default())
        .save_snapshot(&dir)
        .expect("save snapshot");
    let center = network.bounds().center();
    let open = || open_with_fault_script(&dir, network.clone(), seed);
    let budget = open().0.config().read_retries as u64;
    let views = |engine: &ReachabilityEngine| engine.st_index().view_stats().views_built;
    streach_par::with_worker_override(1, || {
        let query = SQuery {
            location: center,
            start_time_s: 9 * 3600,
            duration_s: 900,
            prob: 0.25,
        };
        for (name, algorithm) in [
            ("sqmb_tbs", Algorithm::SqmbTbs),
            ("es", Algorithm::ExhaustiveSearch),
        ] {
            let pipeline = Pipeline {
                name,
                run: Box::new(move |e| e.try_s_query(&query, algorithm)),
            };
            // A fresh open's first run touches each window slot once, the
            // second builds; count the build run's reads from a cold pool.
            let (engine, ctl) = open();
            let baseline = pipeline.region(&engine).expect("fault-free baseline");
            assert_eq!(
                views(&engine),
                0,
                "[seed {seed}] {name}: one touch builds no view"
            );
            engine.st_index().clear_cache();
            let before = ctl.reads_observed();
            assert_eq!(pipeline.region(&engine).unwrap(), baseline);
            let reads = ctl.reads_observed() - before;
            let built = views(&engine);
            assert!(
                built > 0,
                "[seed {seed}] {name}: the second run must build views"
            );

            assert!(
                reads > 2,
                "[seed {seed}] {name}: a build reads pages ({reads})"
            );
            let (mut fell_back, mut failed) = (0, 0);
            for ordinal in 0..reads {
                for dead_disk in [false, true] {
                    let at = format!("[seed {seed}] {name} read #{ordinal} dead_disk={dead_disk}");
                    let (engine, ctl) = open();
                    assert_eq!(pipeline.region(&engine).unwrap(), baseline, "{at}");
                    engine.st_index().clear_cache();
                    let run_start = ctl.reads_observed();
                    if dead_disk {
                        ctl.fail_reads_from(run_start + ordinal);
                    } else {
                        for attempt in 0..=budget {
                            ctl.fail_read_at(run_start + ordinal + attempt, ReadFault::Eio);
                        }
                    }
                    match pipeline.region(&engine) {
                        Ok(region) => {
                            assert_eq!(region, baseline, "{at}: a fallback changed the answer");
                            fell_back += 1;
                        }
                        Err(QueryError::Storage { page, context }) => {
                            assert!(page.is_some(), "{at}: {context}");
                            assert!(context.contains("injected EIO"), "{at}: {context}");
                            failed += 1;
                        }
                        Err(other) => panic!("{at}: expected QueryError::Storage, got {other}"),
                    }
                    // Each scripted read belongs to the start segment's
                    // lists (the query fails before any build) or to one
                    // slot's build, which must then leave no view; the
                    // slots built before the fault hit were read cleanly.
                    assert!(views(&engine) < built, "{at}: a failed build left a view");
                    ctl.clear();
                    engine.st_index().clear_cache();
                    assert_eq!(pipeline.region(&engine).unwrap(), baseline, "{at}");
                    assert_eq!(views(&engine), built, "{at}: a clean query must build");
                }
            }
            assert!(
                fell_back > 0 && failed > 0,
                "[seed {seed}] {name}: the sweep must see fallbacks ({fell_back}) \
                 and typed errors ({failed})"
            );
        }
    });
    std::fs::remove_dir_all(&dir).ok();
}

/// Torn and zeroed pages under range-valid handles: the strict posting
/// decode must reject the damage (typed error) or — when the damaged half
/// holds no byte of the postings actually read — leave the result
/// bit-identical. A silently different region is the one outcome that must
/// never happen.
#[test]
fn torn_and_zeroed_pages_never_shift_a_region() {
    let seed = fault_seed();
    let dir = tmp_dir("torn-pages");
    let network = build_snapshot(&dir);
    let center = network.bounds().center();
    let (engine, ctl) = open_with_fault_script(&dir, network, seed);

    for pipeline in pipelines(center) {
        let name = pipeline.name;
        ctl.clear();
        engine.st_index().clear_cache();
        let before = ctl.reads_observed();
        let baseline = pipeline.region(&engine).expect("fault-free baseline");
        let reads = ctl.reads_observed() - before;

        let mut rejected = 0usize;
        for (fault, label) in [
            (ReadFault::TornPage, "torn"),
            (ReadFault::ZeroedPage, "zeroed"),
        ] {
            for ordinal in 0..reads {
                engine.st_index().clear_cache();
                ctl.fail_read_at(ctl.reads_observed() + ordinal, fault);
                match pipeline.region(&engine) {
                    Err(QueryError::Storage { .. }) => rejected += 1,
                    Err(other) => panic!(
                        "[seed {seed}] {name} {label} page at read #{ordinal}: \
                         expected QueryError::Storage, got {other}"
                    ),
                    Ok(region) => assert_eq!(
                        region, baseline,
                        "[seed {seed}] {name} {label} page at read #{ordinal}: \
                         SILENTLY WRONG REGION — corrupt posting bytes were used"
                    ),
                }
                ctl.clear();
            }
        }
        assert!(
            rejected > 0,
            "[seed {seed}] {name}: at least one torn/zeroed page must hit \
             live posting bytes and be rejected by the strict decode"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Seeded probabilistic faults: under a p=0.08 EIO rate every outcome is
/// either a typed storage error or the exact baseline region, and the
/// engine keeps serving across the whole storm. Retries are disabled via
/// the snapshot's config so the storm hits the error path at full rate —
/// the retry-enabled behaviour is covered by the ordinal campaign.
#[test]
fn probabilistic_fault_storm_degrades_gracefully_and_deterministically() {
    let seed = fault_seed();
    let dir = tmp_dir("fault-storm");
    let network = build_snapshot_with_retries(&dir, 0);
    let center = network.bounds().center();
    let (engine, ctl) = open_with_fault_script(&dir, network, seed);

    let pipeline = &pipelines(center)[0]; // SQMB+TBS, the paper's main path
    engine.st_index().clear_cache();
    let baseline = pipeline.region(&engine).expect("fault-free baseline");

    ctl.set_read_fault_probability(0.08);
    let outcomes: Vec<bool> = (0..40)
        .map(|round| {
            engine.st_index().clear_cache();
            match pipeline.region(&engine) {
                Ok(region) => {
                    assert_eq!(
                        region, baseline,
                        "[seed {seed}] storm round {round}: surviving query diverged"
                    );
                    true
                }
                Err(QueryError::Storage { .. }) => false,
                Err(other) => {
                    panic!("[seed {seed}] storm round {round}: unexpected error {other}")
                }
            }
        })
        .collect();
    assert!(
        outcomes.iter().any(|ok| *ok) && outcomes.iter().any(|ok| !ok),
        "[seed {seed}] p=0.08 over 40 queries should both fail and succeed \
         (got {} successes)",
        outcomes.iter().filter(|ok| **ok).count()
    );

    // After the storm: clean service, bit-identical to the baseline.
    ctl.clear();
    engine.st_index().clear_cache();
    assert_eq!(
        pipeline.region(&engine).expect("post-storm query"),
        baseline
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Runs every pipeline and collects its region — the comparison unit of the
/// ingest campaigns below.
fn all_regions(engine: &ReachabilityEngine, center: GeoPoint) -> Vec<(String, Vec<SegmentId>)> {
    pipelines(center)
        .iter()
        .map(|p| {
            (
                p.name.to_string(),
                p.region(engine)
                    .unwrap_or_else(|e| panic!("{}: {e}", p.name)),
            )
        })
        .collect()
}

/// The ingest crash-recovery campaign: "kill" the process (torn WAL append)
/// at **every record ordinal** of a batch sequence, reopen the snapshot,
/// re-attach the WAL and assert the engine recovered exactly the consistent
/// prefix — bit-identical, on all four pipelines, to an engine that
/// ingested precisely those batches.
#[test]
fn ingest_crash_at_every_wal_record_ordinal_recovers_the_consistent_prefix() {
    let seed = fault_seed();
    let dir = tmp_dir("ingest-crash");
    let network = build_snapshot(&dir);
    let center = network.bounds().center();
    let batches = extra_batches(&network);
    let kill_points = batches.len().min(4); // keep the reopen loop bounded

    for k in 0..kill_points {
        let wal_path = dir.join(format!("crash-{k}.wal"));
        let _ = std::fs::remove_file(&wal_path);
        let ctl = FaultController::detached(seed);
        ctl.fail_append_at(k as u64, AppendFault::TornAppend);

        // The "process": ingests until the injected crash kills its WAL.
        let engine =
            ReachabilityEngine::open_snapshot(&dir, network.clone()).expect("open snapshot");
        engine
            .attach_wal_with_controller(&wal_path, ctl)
            .expect("attach fresh WAL");
        for (i, batch) in batches.iter().enumerate() {
            let outcome = engine.ingest(batch);
            match i.cmp(&k) {
                std::cmp::Ordering::Less => {
                    let outcome = outcome.unwrap_or_else(|e| {
                        panic!("[seed {seed}] kill@{k}: batch {i} must ingest: {e}")
                    });
                    assert_eq!(outcome.wal_ordinal, Some(i as u64));
                }
                std::cmp::Ordering::Equal => {
                    let err = outcome.expect_err("the scripted torn append must fail");
                    assert!(
                        err.to_string().contains("torn WAL append"),
                        "[seed {seed}] kill@{k}: {err}"
                    );
                }
                std::cmp::Ordering::Greater => {
                    assert!(
                        outcome.is_err(),
                        "[seed {seed}] kill@{k}: the dead process must not accept batch {i}"
                    );
                }
            }
        }
        drop(engine);

        // Recovery: reopen the snapshot, attach the torn WAL — the torn
        // frame is truncated, the prefix replays.
        let recovered =
            ReachabilityEngine::open_snapshot(&dir, network.clone()).expect("reopen snapshot");
        let attach = recovered.attach_wal(&wal_path).expect("recover WAL");
        assert_eq!(
            attach.records_replayed, k as u64,
            "[seed {seed}] kill@{k}: exactly the consistent prefix replays"
        );
        assert_eq!(attach.records_skipped, 0, "[seed {seed}] kill@{k}");
        assert!(
            attach.truncated_bytes > 0,
            "[seed {seed}] kill@{k}: the torn frame must be discarded"
        );

        // Reference: a fresh engine that (volatilely) ingested exactly the
        // surviving prefix.
        let reference =
            ReachabilityEngine::open_snapshot(&dir, network.clone()).expect("reference open");
        for batch in &batches[..k] {
            reference.ingest(batch).expect("reference ingest");
        }
        assert_eq!(
            all_regions(&recovered, center),
            all_regions(&reference, center),
            "[seed {seed}] kill@{k}: recovered engine diverged from the prefix reference"
        );
        std::fs::remove_file(&wal_path).ok();
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Ingest read faults: a batch merges each touched list with the base
/// list it overrides, so a dead base disk from a spread of read ordinals
/// of that merge (first, last, and evenly spaced between — the batch is
/// one trajectory) fails the ingest with a typed error and applies none of
/// it: every region stays as before. Because the merge is idempotent, a
/// clean retry of the same batch converges to the state a clean ingest
/// reaches. Each ordinal runs on a fresh open, so the merge's reads start
/// cold; a one-shot `EIO` would be absorbed by the read retries, so the
/// fault persists.
#[test]
fn delta_write_faults_fail_ingest_cleanly_and_retry_converges() {
    let seed = fault_seed();
    let dir = tmp_dir("ingest-read");
    let network = build_snapshot(&dir);
    let center = network.bounds().center();
    let batch: Vec<TrajPoint> = extra_batches(&network).swap_remove(0);
    // One worker: the merge reads the base in one order on every open.
    let ingest = |engine: &ReachabilityEngine| {
        streach_par::with_worker_override(1, || engine.ingest(&batch))
    };

    // Clean ingest: the regions before and after, and the base reads one
    // application of this batch performs.
    let (engine, ctl) = open_with_fault_script(&dir, network.clone(), seed);
    let before = all_regions(&engine, center);
    engine.st_index().clear_cache();
    let reads_before = ctl.reads_observed();
    ingest(&engine).expect("clean ingest");
    let reads_per_ingest = ctl.reads_observed() - reads_before;
    assert!(
        reads_per_ingest > 0,
        "[seed {seed}] ingest must merge with base lists — the fault lever is void"
    );
    let target = all_regions(&engine, center);
    assert_ne!(before, target, "[seed {seed}] the batch must move a region");

    let mut ordinals: Vec<u64> = (0..8).map(|i| i * (reads_per_ingest - 1) / 7).collect();
    ordinals.dedup();
    for ordinal in ordinals {
        let (engine, ctl) = open_with_fault_script(&dir, network.clone(), seed);
        ctl.fail_reads_from(ctl.reads_observed() + ordinal);
        let err = ingest(&engine).expect_err("a dead base disk must fail the ingest");
        assert!(
            err.to_string().contains("injected EIO"),
            "[seed {seed}] read #{ordinal}: {err}"
        );
        // Nothing of the batch applied, then a clean retry converges.
        ctl.clear();
        assert_eq!(
            all_regions(&engine, center),
            before,
            "[seed {seed}] read #{ordinal}: a failed ingest must not shift any region"
        );
        ingest(&engine).expect("retry after fault");
        assert_eq!(
            all_regions(&engine, center),
            target,
            "[seed {seed}] read #{ordinal}: retried ingest diverged"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Background-maintenance crash campaign: an `EIO` or a torn WAL append at
/// **every append-attempt ordinal** while a [`MaintenanceController`] owns
/// the checkpoints (kicked after every batch, so rotations race the
/// appends). An `EIO` append is retryable and the engine converges on the
/// full batch set; a torn append kills the "process" — reopening the
/// (checkpoint-mutated) snapshot directory and re-attaching the WAL must
/// recover exactly the acknowledged prefix, bit-identically to a reference
/// engine that ingested precisely those batches.
#[test]
fn wal_faults_under_background_checkpoints_recover_the_consistent_prefix() {
    let seed = fault_seed();
    // The builder engine is saved once per campaign iteration (checkpoints
    // mutate the live directory) plus once for pristine reference opens.
    let (network, dataset) = fault_scenario();
    // Any delta warrants a checkpoint: every maintenance pass between
    // batches does real checkpoint + rotation work.
    let base_engine = streach::core::EngineBuilder::new(network.clone(), &dataset)
        .index_config(checkpointing_config())
        .build();
    let ref_dir = tmp_dir("maint-ref");
    base_engine.save_snapshot(&ref_dir).expect("save reference");
    let batches = extra_batches(&network);
    let center = network.bounds().center();
    let kill_points = batches.len().min(3);
    let mut checkpoints_owned = 0u64;

    for fault in [AppendFault::Eio, AppendFault::TornAppend] {
        for k in 0..kill_points {
            let label = format!("{fault:?}@{k}");
            let dir = tmp_dir(&format!("maint-live-{fault:?}-{k}"));
            base_engine.save_snapshot(&dir).expect("save live dir");
            let ctl = FaultController::detached(seed);
            // Attempt ordinals are stable under rotation, so the k-th
            // ingest's append fails no matter how the racing checkpoints
            // sliced the generations.
            ctl.fail_append_attempt_at(k as u64, fault);

            let engine = Arc::new(
                ReachabilityEngine::open_snapshot(&dir, network.clone()).expect("open live"),
            );
            engine
                .attach_wal_with_controller(dir.join("ingest.wal"), ctl)
                .expect("attach WAL");
            let controller = MaintenanceController::spawn(
                Arc::clone(&engine),
                &dir,
                MaintenanceConfig {
                    poll_interval: std::time::Duration::from_millis(5),
                    compact_delta_ratio: Some(0.25),
                },
            );

            let mut acknowledged = 0usize;
            let mut dead = false;
            for (i, batch) in batches.iter().enumerate() {
                let outcome = engine.ingest(batch);
                match (i.cmp(&(k)), fault, dead) {
                    (_, _, true) => assert!(
                        outcome.is_err(),
                        "[seed {seed}] {label}: the dead process must reject batch {i}"
                    ),
                    (std::cmp::Ordering::Less, _, _) => {
                        outcome.unwrap_or_else(|e| {
                            panic!("[seed {seed}] {label}: batch {i} must ingest: {e}")
                        });
                        acknowledged += 1;
                        // The maintenance thread owns a checkpoint while
                        // the next append (and possibly the crash) lands.
                        controller.kick();
                    }
                    (std::cmp::Ordering::Equal, AppendFault::Eio, _) => {
                        let err = outcome.expect_err("scripted EIO append must fail");
                        assert!(
                            err.to_string().contains("injected EIO on WAL append"),
                            "[seed {seed}] {label}: {err}"
                        );
                        // Nothing was logged; the same batch retries clean.
                        engine.ingest(batch).unwrap_or_else(|e| {
                            panic!("[seed {seed}] {label}: retry after EIO failed: {e}")
                        });
                        acknowledged += 1;
                        controller.kick();
                    }
                    (std::cmp::Ordering::Equal, AppendFault::TornAppend, _) => {
                        let err = outcome.expect_err("scripted torn append must crash");
                        assert!(
                            err.to_string().contains("torn WAL append"),
                            "[seed {seed}] {label}: {err}"
                        );
                        dead = true;
                    }
                    (std::cmp::Ordering::Greater, _, _) => {
                        outcome.unwrap_or_else(|e| {
                            panic!("[seed {seed}] {label}: batch {i} must ingest: {e}")
                        });
                        acknowledged += 1;
                        controller.kick();
                    }
                }
            }
            // Let the worker finish its in-flight pass, then account for it.
            controller.run_now();
            let stats = controller.stats();
            checkpoints_owned += stats.checkpoints;
            let errors = controller.shutdown();
            assert!(
                errors.is_empty(),
                "[seed {seed}] {label}: background maintenance must survive the \
                 WAL fault untouched: {errors:?}"
            );
            drop(engine);

            // Recovery: the checkpoint-mutated directory plus the WAL tail
            // must reconstruct exactly the acknowledged batches.
            let recovered = ReachabilityEngine::open_snapshot(&dir, network.clone())
                .unwrap_or_else(|e| panic!("[seed {seed}] {label}: reopen failed: {e}"));
            recovered
                .attach_wal(dir.join("ingest.wal"))
                .unwrap_or_else(|e| panic!("[seed {seed}] {label}: re-attach failed: {e}"));
            let reference = ReachabilityEngine::open_snapshot(&ref_dir, network.clone())
                .expect("open reference");
            for batch in batches.iter().take(acknowledged) {
                reference.ingest(batch).expect("reference ingest");
            }
            assert_eq!(
                all_regions(&recovered, center),
                all_regions(&reference, center),
                "[seed {seed}] {label}: recovered engine diverged from the \
                 {acknowledged}-batch reference"
            );
            std::fs::remove_dir_all(&dir).ok();
        }
    }
    assert!(
        checkpoints_owned > 0,
        "[seed {seed}] the campaign must have raced real background checkpoints"
    );
    std::fs::remove_dir_all(&ref_dir).ok();
}

/// A compaction that fails mid-copy (dead disk part-way through the blob
/// copy) must leave the old base serving bit-identically — and be
/// retryable: after the fault clears, the same `compact()` folds the delta
/// and queries still match.
#[test]
fn compaction_failing_mid_copy_leaves_old_base_serving_and_is_retryable() {
    let seed = fault_seed();
    let dir = tmp_dir("compact-midcopy");
    let network = build_snapshot(&dir);
    let center = network.bounds().center();
    let batches = extra_batches(&network);

    let ctl = FaultController::detached(seed);
    let engine = ReachabilityEngine::open_snapshot_with_store(&dir, network.clone(), {
        let ctl = ctl.clone();
        move |store| Box::new(FaultInjectingPageStore::with_controller(store, &ctl))
    })
    .expect("open snapshot with fault wrapper");
    for batch in &batches {
        engine.ingest(batch).expect("ingest");
    }
    let baseline = all_regions(&engine, center);
    let delta_before = engine.st_index().delta_stats();
    assert!(delta_before.delta_lists > 0);

    // Kill the disk a few reads into the copy: the fold dies mid-flight.
    engine.st_index().clear_cache();
    ctl.fail_reads_from(ctl.reads_observed() + 5);
    let err = engine
        .compact()
        .expect_err("a dead disk mid-copy must fail the compaction");
    assert!(
        err.to_string().contains("injected EIO"),
        "[seed {seed}] compaction error must surface the backend fault: {err}"
    );

    // The old base (and the delta tail) keep serving, bit-identically.
    ctl.clear();
    assert_eq!(
        engine.st_index().delta_stats(),
        delta_before,
        "[seed {seed}] a failed compaction must leave the delta untouched"
    );
    engine.st_index().clear_cache();
    assert_eq!(
        all_regions(&engine, center),
        baseline,
        "[seed {seed}] a failed compaction must not shift any region"
    );

    // Retry: the same call now folds the delta, and nothing moved.
    let folded = engine.compact().expect("retried compaction");
    assert_eq!(folded.delta_lists, delta_before.delta_lists);
    assert_eq!(engine.st_index().delta_stats(), Default::default());
    assert_eq!(
        all_regions(&engine, center),
        baseline,
        "[seed {seed}] retried compaction diverged"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Group-commit durability: a multi-writer batch whose fsync fails must
/// fail **every** caller in the group and freeze the applied prefix for all
/// of their records — none applies live, all replay idempotently after a
/// reopen, and clean retries converge.
#[test]
fn group_commit_fsync_eio_freezes_the_applied_prefix_for_the_whole_group() {
    let seed = fault_seed();
    let dir = tmp_dir("group-fsync");
    let network = build_snapshot(&dir);
    let center = network.bounds().center();
    let batches: Vec<Vec<TrajPoint>> = extra_batches(&network).into_iter().take(3).collect();
    let writers = batches.len();

    let ctl = FaultController::detached(seed);
    let engine =
        Arc::new(ReachabilityEngine::open_snapshot(&dir, network.clone()).expect("open snapshot"));
    engine
        .attach_wal_with_controller(dir.join("group.wal"), ctl.clone())
        .expect("attach WAL");
    let pristine = all_regions(&engine, center);

    // Every physical fsync under the concurrent batch fails.
    ctl.fail_next_syncs(u64::MAX / 2);
    let outcomes: Vec<Result<IngestOutcome, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = batches
            .iter()
            .map(|batch| {
                let engine = Arc::clone(&engine);
                scope.spawn(move || engine.ingest(batch).map_err(|e| e.to_string()))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    ctl.clear();
    for (i, outcome) in outcomes.iter().enumerate() {
        let err = outcome
            .as_ref()
            .expect_err("every record of the failed group must error");
        assert!(
            err.contains("fsync"),
            "[seed {seed}] writer {i}: the group fsync failure must surface: {err}"
        );
    }

    // Nothing of the failed group applied live: the engine still answers
    // like the pristine snapshot.
    assert_eq!(
        all_regions(&engine, center),
        pristine,
        "[seed {seed}] records of a failed group must not apply live"
    );

    // Clean retries converge (idempotent merges), even though the applied
    // prefix stays frozen until the next attach.
    for batch in &batches {
        engine.ingest(batch).expect("clean retry");
    }
    let reference = ReachabilityEngine::open_snapshot(&dir, network.clone()).expect("reference");
    for batch in &batches {
        reference.ingest(batch).expect("reference ingest");
    }
    let target = all_regions(&reference, center);
    assert_eq!(
        all_regions(&engine, center),
        target,
        "[seed {seed}] retried group diverged from the reference"
    );
    drop(engine);

    // Crash + reopen: the frozen prefix forces a full replay — the
    // failed-but-durable records plus their retries, 2 per batch — and
    // idempotent application converges on the same engine.
    let recovered =
        ReachabilityEngine::open_snapshot(&dir, network.clone()).expect("reopen after crash");
    let attach = recovered
        .attach_wal(dir.join("group.wal"))
        .expect("replay WAL");
    assert_eq!(
        attach.records_replayed,
        2 * writers as u64,
        "[seed {seed}] the frozen prefix must replay the whole group and its retries"
    );
    assert_eq!(
        all_regions(&recovered, center),
        target,
        "[seed {seed}] replayed engine diverged"
    );
    std::fs::remove_dir_all(&dir).ok();
}
