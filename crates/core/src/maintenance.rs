//! Background maintenance: auto-checkpoint and ratio-triggered compaction
//! for a serving [`ReachabilityEngine`], off the caller's thread.
//!
//! Streaming ingest (see [`crate::ingest`]) leaves two maintenance duties
//! behind: the delta tail must periodically be **checkpointed** into an
//! incremental snapshot (so the WAL stays short and restarts stay fast) and
//! eventually **compacted** into a fresh sealed base (so reads stop paying
//! the delta override path and superseded list versions are reclaimed).
//! Running either synchronously on an ingest or query thread stalls the
//! serving path exactly when the delta tail is largest.
//!
//! [`MaintenanceController::spawn`] starts one background thread — it runs
//! on `worker::Worker`, the crate's one kick / run_now / shutdown
//! protocol — that watches the engine and triggers:
//!
//! * an **incremental checkpoint** ([`ReachabilityEngine::save_incremental_snapshot`])
//!   whenever the delta tail's folded bytes cross
//!   [`IndexConfig::auto_checkpoint_bytes`](crate::IndexConfig::auto_checkpoint_bytes),
//! * a **compaction** ([`ReachabilityEngine::compact`]) when the delta/base
//!   size ratio crosses [`MaintenanceConfig::compact_delta_ratio`].
//!
//! Both run concurrently with queries (compaction publishes its new base
//! with one atomic pointer swap; a checkpoint pins one immutable state) and
//! exclude only ingest for their duration. Failures are reported back as
//! typed [`MaintenanceError`]s retrievable from the controller — a
//! maintenance fault (full disk, dead base disk) never kills the worker
//! or the serving process, and the failed pass is retried on the next
//! trigger.
//!
//! Tests drive the worker **deterministically**: [`MaintenanceController::run_now`]
//! kicks a pass and blocks until it completed, which turns "background
//! maintenance at this exact point between two batches" into a scriptable
//! trigger — the shape `tests/concurrent_maintenance.rs` builds its seeded
//! harness around.

use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

use streach_storage::StorageError;

use crate::engine::ReachabilityEngine;
use crate::worker::Worker;

/// Which maintenance duty a worker pass ran (or failed).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MaintenanceTask {
    /// An incremental snapshot save of the serving engine.
    Checkpoint,
    /// Folding the delta tail into a new sealed base.
    Compaction,
}

/// A typed maintenance failure, reported back from the background worker.
#[derive(Debug)]
pub struct MaintenanceError {
    /// The duty that failed.
    pub task: MaintenanceTask,
    /// The storage error it failed with.
    pub error: StorageError,
}

impl std::fmt::Display for MaintenanceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "background {:?} failed: {}", self.task, self.error)
    }
}

/// Counters of the background worker's activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MaintenanceStats {
    /// Trigger-evaluation passes completed (kicked or on the poll cadence).
    pub passes: u64,
    /// Incremental checkpoints saved.
    pub checkpoints: u64,
    /// Compactions folded.
    pub compactions: u64,
    /// Failed duties (details retrievable via
    /// [`MaintenanceController::take_errors`]).
    pub errors: u64,
}

/// Trigger configuration of the background worker. The checkpoint trigger
/// itself lives in
/// [`IndexConfig::auto_checkpoint_bytes`](crate::IndexConfig::auto_checkpoint_bytes)
/// (it is a property of the index, persisted in snapshots); this struct
/// configures the worker's cadence and the compaction policy.
#[derive(Debug, Clone)]
pub struct MaintenanceConfig {
    /// How often the worker re-evaluates its triggers when nobody kicks it.
    pub poll_interval: Duration,
    /// Compact when the delta is non-empty and `delta_bytes >= ratio *
    /// base_posting_bytes` (`None` disables compaction).
    pub compact_delta_ratio: Option<f64>,
}

impl Default for MaintenanceConfig {
    fn default() -> Self {
        Self {
            poll_interval: Duration::from_millis(200),
            compact_delta_ratio: Some(0.5),
        }
    }
}

struct WorkerState {
    stats: MaintenanceStats,
    errors: Vec<MaintenanceError>,
}

struct Shared {
    engine: Arc<ReachabilityEngine>,
    dir: PathBuf,
    config: MaintenanceConfig,
    state: Mutex<WorkerState>,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, WorkerState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// Owns the background maintenance worker of one serving engine. Dropping
/// the controller (or calling [`MaintenanceController::shutdown`]) stops
/// the worker cleanly: the in-flight pass finishes, then the thread joins.
pub struct MaintenanceController {
    shared: Arc<Shared>,
    worker: Worker,
}

impl MaintenanceController {
    /// Spawns the background worker. `dir` is the snapshot directory
    /// auto-checkpoints save into — normally the directory the engine was
    /// opened from, so the WAL rotates on every successful checkpoint.
    pub fn spawn<P: Into<PathBuf>>(
        engine: Arc<ReachabilityEngine>,
        dir: P,
        config: MaintenanceConfig,
    ) -> Self {
        let poll_interval = config.poll_interval;
        let shared = Arc::new(Shared {
            engine,
            dir: dir.into(),
            config,
            state: Mutex::new(WorkerState {
                stats: MaintenanceStats::default(),
                errors: Vec::new(),
            }),
        });
        let worker = {
            let shared = Arc::clone(&shared);
            // Delta shape at the last *successful* checkpoint: the trigger
            // gates on growth since then, so an idle engine whose delta
            // sits above the threshold is checkpointed once — not re-saved
            // (and its WAL re-rotated) on every poll pass forever.
            let mut last_checkpointed = None;
            Worker::spawn(
                "streach-maintenance",
                move || poll_interval,
                move || Self::run_pass(&shared, &mut last_checkpointed),
            )
        };
        Self { shared, worker }
    }

    /// One trigger-evaluation pass: checkpoint if the delta tail crossed
    /// the auto-checkpoint threshold **and grew since the last successful
    /// checkpoint** (a checkpoint does not shrink the delta — only
    /// compaction does — so the absolute size alone would re-save forever),
    /// then compact if the delta/base ratio is due. Errors are recorded,
    /// never propagated — the engine keeps serving and the next pass
    /// retries.
    fn run_pass(shared: &Shared, last_checkpointed: &mut Option<crate::st_index::DeltaStats>) {
        let engine = &shared.engine;

        let threshold = engine.config().auto_checkpoint_bytes;
        let delta = engine.st_index().delta_stats();
        if threshold > 0
            && delta.delta_bytes >= threshold
            && last_checkpointed.as_ref() != Some(&delta)
        {
            match engine.save_incremental_snapshot(&shared.dir) {
                Ok(()) => {
                    // Re-read under no lock: the delta may have grown while
                    // the save ran — recording the pre-save shape keeps the
                    // next pass triggering on that growth.
                    *last_checkpointed = Some(delta);
                    shared.lock().stats.checkpoints += 1;
                }
                Err(error) => Self::record_error(shared, MaintenanceTask::Checkpoint, error),
            }
        }

        let delta = engine.st_index().delta_stats();
        if delta.delta_lists > 0 {
            let base_bytes = engine.st_index().stats().posting_bytes.max(1);
            let due = shared
                .config
                .compact_delta_ratio
                .is_some_and(|ratio| delta.delta_bytes as f64 >= ratio * base_bytes as f64);
            if due {
                match engine.compact() {
                    Ok(_) => {
                        // The delta the checkpoint marker described no
                        // longer exists: without this reset, a future delta
                        // that happens to grow back to byte-identical stats
                        // would never be checkpointed again.
                        *last_checkpointed = None;
                        shared.lock().stats.compactions += 1;
                    }
                    Err(error) => Self::record_error(shared, MaintenanceTask::Compaction, error),
                }
            }
        }
    }

    fn record_error(shared: &Shared, task: MaintenanceTask, error: StorageError) {
        let mut state = shared.lock();
        state.stats.errors += 1;
        state.errors.push(MaintenanceError { task, error });
    }

    /// Wakes the worker for an immediate trigger-evaluation pass without
    /// waiting for it.
    pub fn kick(&self) {
        self.worker.kick();
    }

    /// Kicks the worker and blocks until that pass has completed — the
    /// deterministic hook: after `run_now` returns, every maintenance
    /// action the engine's current state warranted has happened (or is
    /// recorded as a typed error).
    pub fn run_now(&self) {
        self.worker.run_now();
    }

    /// Activity counters so far.
    pub fn stats(&self) -> MaintenanceStats {
        MaintenanceStats {
            passes: self.worker.passes(),
            ..self.shared.lock().stats
        }
    }

    /// Drains the recorded maintenance failures (oldest first).
    pub fn take_errors(&self) -> Vec<MaintenanceError> {
        std::mem::take(&mut self.shared.lock().errors)
    }

    /// The snapshot directory auto-checkpoints save into.
    pub fn snapshot_dir(&self) -> &std::path::Path {
        &self.shared.dir
    }

    /// Stops the worker cleanly (the in-flight pass finishes first) and
    /// returns any failures it had recorded.
    pub fn shutdown(mut self) -> Vec<MaintenanceError> {
        self.worker.stop();
        self.take_errors()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::EngineBuilder;
    use crate::config::IndexConfig;
    use streach_roadnet::{GeneratorConfig, SyntheticCity};
    use streach_traj::{points_of, FleetConfig, TrajectoryDataset};

    fn tmp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("streach-maintenance-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// A serving engine plus the batches of a second fleet-day wave.
    fn serving_engine(
        dir: &PathBuf,
        auto_checkpoint_bytes: u64,
    ) -> (Arc<ReachabilityEngine>, Vec<Vec<streach_traj::TrajPoint>>) {
        let city = SyntheticCity::generate(GeneratorConfig::small());
        let network = Arc::new(city.network);
        let full = TrajectoryDataset::simulate(
            &network,
            FleetConfig {
                num_taxis: 8,
                num_days: 3,
                day_start_s: 8 * 3600,
                day_end_s: 11 * 3600,
                seed: 9,
                ..FleetConfig::default()
            },
        );
        let base = TrajectoryDataset::from_matched(
            full.trajectories()
                .iter()
                .filter(|t| t.date < 2)
                .cloned()
                .collect(),
            full.num_taxis(),
            2,
        );
        let batches: Vec<Vec<streach_traj::TrajPoint>> = full
            .trajectories()
            .iter()
            .filter(|t| t.date >= 2)
            .map(|t| points_of(t).collect())
            .collect();
        EngineBuilder::new(network.clone(), &base)
            .index_config(IndexConfig {
                auto_checkpoint_bytes,
                ..Default::default()
            })
            .save_snapshot(dir)
            .expect("save base snapshot");
        let engine =
            Arc::new(ReachabilityEngine::open_snapshot(dir, network).expect("open snapshot"));
        engine.attach_wal(dir.join("ingest.wal")).expect("attach");
        (engine, batches)
    }

    #[test]
    fn auto_checkpoint_fires_when_delta_crosses_threshold() {
        let dir = tmp_dir("auto-ckpt");
        // 1-byte threshold: any ingested delta warrants a checkpoint.
        let (engine, batches) = serving_engine(&dir, 1);
        let controller = MaintenanceController::spawn(
            Arc::clone(&engine),
            &dir,
            MaintenanceConfig {
                compact_delta_ratio: None,
                ..Default::default()
            },
        );
        controller.run_now();
        assert_eq!(controller.stats().checkpoints, 0, "no delta yet");
        engine.ingest(&batches[0]).expect("ingest");
        controller.run_now();
        let stats = controller.stats();
        // The worker's own poll cadence may have run extra passes (the
        // delta stays non-empty without compaction), so at least one.
        assert!(stats.checkpoints >= 1, "threshold crossed => checkpoint");
        assert_eq!(stats.errors, 0);
        // The checkpoint rotated the WAL (everything applied + folded).
        let wal_len = std::fs::metadata(dir.join("ingest.wal")).unwrap().len();
        assert!(wal_len < 64, "rotated WAL must be header-only: {wal_len}");
        assert!(controller.shutdown().is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compaction_triggers_on_ratio_and_reports_success() {
        let dir = tmp_dir("auto-compact");
        let (engine, batches) = serving_engine(&dir, 0);
        let controller = MaintenanceController::spawn(
            Arc::clone(&engine),
            &dir,
            MaintenanceConfig {
                // Any non-empty delta crosses a zero ratio.
                compact_delta_ratio: Some(0.0),
                ..Default::default()
            },
        );
        for batch in &batches {
            engine.ingest(batch).expect("ingest");
        }
        assert!(engine.st_index().delta_stats().delta_lists > 0);
        controller.run_now();
        // (>=: the poll cadence may have folded an intermediate delta too.)
        assert!(controller.stats().compactions >= 1);
        assert_eq!(
            engine.st_index().delta_stats().delta_lists,
            0,
            "compaction must have folded the delta"
        );
        assert!(controller.shutdown().is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_failure_is_reported_typed_and_worker_survives() {
        let dir = tmp_dir("ckpt-error");
        let (engine, batches) = serving_engine(&dir, 1);
        engine.ingest(&batches[0]).expect("ingest");
        // Point the auto-checkpoint at an unwritable target.
        let bogus = dir.join("not-a-dir");
        std::fs::write(&bogus, b"file, not a directory").unwrap();
        let controller = MaintenanceController::spawn(
            Arc::clone(&engine),
            bogus,
            MaintenanceConfig {
                compact_delta_ratio: None,
                ..Default::default()
            },
        );
        controller.run_now();
        let stats = controller.stats();
        assert!(stats.errors >= 1, "failed checkpoint must be recorded");
        let errors = controller.take_errors();
        assert!(!errors.is_empty());
        assert_eq!(errors[0].task, MaintenanceTask::Checkpoint);
        // The worker survives and keeps serving further passes.
        controller.run_now();
        assert!(controller.stats().passes >= 2);
        drop(controller);
        std::fs::remove_dir_all(&dir).ok();
    }
}
