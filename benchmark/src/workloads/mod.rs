//! The four workloads and the pieces they share: set-up, the closed-loop
//! caller, and the per-query accounting read from `QueryStats`.

pub mod adhoc_cold;
pub mod adhoc_warm;
pub mod fleet;
pub mod serve_live;

use std::path::{Path, PathBuf};
use std::time::Instant;

use streach_core::prelude::*;
use streach_core::{IndexConfig, QueryStats, StorageBackend};

use crate::inputs::World;
use crate::metrics::{self, ms, PhaseStats, Report, Values};
use crate::trace::Trace;

/// Command-line arguments of one run.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// How many times set-up runs in an untraced run; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 3;

/// A fresh scratch directory inside the checkout, removed when the run ends
/// — also when it ends by a panic.
pub struct WorkDir(PathBuf);

impl WorkDir {
    pub fn create(label: &str) -> Self {
        let path = PathBuf::from("benchmark/out").join(label);
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).expect("create the run's scratch directory");
        Self(path)
    }

    /// A fresh, empty sub-directory.
    pub fn fresh(&self, name: &str) -> PathBuf {
        let path = self.0.join(name);
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).expect("create scratch sub-directory");
        path
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The state every workload threads through its phases.
pub struct Run<'a> {
    workload: &'static str,
    pub args: &'a Args,
    pub trace: Trace,
    pub work: WorkDir,
    pub values: Values,
    pub notes: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    next_request: u64,
}

impl<'a> Run<'a> {
    pub fn new(args: &'a Args, workload: &'static str, epoch: Instant) -> Self {
        let label = format!("work-{workload}-{}-t{}", args.seed, u8::from(args.trace));
        Self {
            workload,
            args,
            trace: Trace::new(args.trace, epoch, 0),
            work: WorkDir::create(&label),
            values: Values::default(),
            notes: Vec::new(),
            attempted: 0,
            failed: 0,
            next_request: 0,
        }
    }

    pub fn request_id(&mut self) -> u64 {
        self.next_request += 1;
        self.next_request
    }

    /// Counts `n` operations of which `failed` failed.
    pub fn count(&mut self, n: u64, failed: u64, what: &str) {
        self.attempted += n;
        self.failed += failed;
        if failed > 0 {
            self.notes.push(format!("FAILED: {failed} of {n} {what}"));
        }
    }

    /// Runs set-up `SETUP_REPEATS` times (once when traced: the spans inside
    /// it attribute the one run) and keeps the last state; `setup_s` is the
    /// median duration.
    pub fn setup<S>(&mut self, mut build: impl FnMut(&mut Run<'a>) -> S) -> S {
        let repeats = if self.args.trace { 1 } else { SETUP_REPEATS };
        let mut durations = Vec::new();
        let mut state = None;
        for _ in 0..repeats {
            drop(state.take());
            let t0 = Instant::now();
            state = Some(self.span("setup", &mut build));
            durations.push(t0.elapsed().as_secs_f64());
        }
        self.values.set("setup_s", metrics::median(&durations));
        self.notes.push(format!("setup_s runs: {durations:.3?}"));
        state.expect("set-up ran at least once")
    }

    /// A harness span around one stage of the run; spans the stage opens
    /// nest under it.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Run<'a>) -> R) -> R {
        let span = self.trace.begin(name, 0);
        let out = f(self);
        self.trace.end(span);
        out
    }

    /// Runs `f` inside a span and records its duration, in seconds, as the
    /// per-layer metric `metric`.
    pub fn timed<R>(
        &mut self,
        span: &'static str,
        metric: &'static str,
        f: impl FnOnce() -> R,
    ) -> R {
        let t0 = Instant::now();
        let out = self.trace.span(span, 0, |_| f());
        self.values.set(metric, t0.elapsed().as_secs_f64());
        out
    }

    pub fn finish(self) -> (Report, Trace) {
        (
            Report {
                workload: self.workload,
                traced: self.args.trace,
                attempted: self.attempted.max(1),
                failed: self.failed,
                values: self.values,
                notes: self.notes,
            },
            self.trace,
        )
    }
}

/// The index configuration all workloads share: defaults except no simulated
/// read latency (disk cost shows as exact page counts) and the stated pool.
pub fn index_config(pool_pages: usize) -> IndexConfig {
    IndexConfig {
        read_latency_us: 0,
        pool_pages,
        ..IndexConfig::default()
    }
}

/// Builds the base engine and saves its snapshot into `dir`.
pub fn build_and_save(
    run: &mut Run<'_>,
    world: &World,
    config: &IndexConfig,
    dir: &Path,
) -> ReachabilityEngine {
    let engine = run.timed("builder.build", "builder.build_s", || {
        EngineBuilder::new(world.network.clone(), &world.base)
            .index_config(config.clone())
            .build()
    });
    run.timed("snapshot.full_save", "snapshot.full_save_s", || {
        engine.save_snapshot(dir)
    })
    .expect("save the base snapshot");
    engine
}

/// Generates the world inside a `traj.simulate` span.
pub fn make_world(run: &mut Run<'_>, extra_days: u16) -> World {
    let seed = run.args.seed;
    run.timed("traj.simulate", "traj.simulate_s", || {
        crate::inputs::world(seed, extra_days)
    })
}

pub fn open(
    run: &mut Run<'_>,
    dir: &Path,
    world: &World,
    backend: StorageBackend,
) -> ReachabilityEngine {
    let name = match backend {
        StorageBackend::File => "snapshot.open_file",
        StorageBackend::Mmap => "snapshot.open_mmap",
    };
    run.trace
        .span(name, 0, |_| {
            ReachabilityEngine::open_snapshot_with_backend(dir, world.network.clone(), backend)
        })
        .expect("open the snapshot")
}

/// Bytes of the files directly inside `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .expect("read snapshot directory")
        .flatten()
        .filter_map(|e| e.metadata().ok())
        .filter(|m| m.is_file())
        .map(|m| m.len())
        .sum()
}

pub fn file_bytes(path: &Path) -> u64 {
    std::fs::metadata(path).map(|m| m.len()).unwrap_or(0)
}

/// What a closed-loop phase recorded.
#[derive(Default)]
pub struct QueryRun {
    pub latencies_ms: Vec<f64>,
    pub completed_at_s: Vec<f64>,
    /// (index into the query list, the program's own accounting).
    pub stats: Vec<(usize, QueryStats)>,
    /// The first answer to each query of the list, by query index: `None`
    /// until the query was asked, `Some(None)` for a typed error.
    pub answers: Vec<Option<Option<ReachableRegion>>>,
    pub errors: u64,
    /// Later answers that differ from the first answer to the same query.
    pub unstable: u64,
    pub passes: usize,
}

impl QueryRun {
    pub fn phase_stats(&self) -> PhaseStats {
        self.reduced(metrics::Reduce::MedianBlock)
    }

    pub fn reduced(&self, reduce: metrics::Reduce) -> PhaseStats {
        metrics::phase_stats(&self.latencies_ms, &self.completed_at_s, reduce)
    }

    /// The first answer to query `i`, if it was asked and answered.
    pub fn answer(&self, i: usize) -> Option<&ReachableRegion> {
        self.answers.get(i)?.as_ref()?.as_ref()
    }
}

/// One pass of a closed-loop caller over `queries[range]`, appended to `out`;
/// every call is timed from outside. In a traced run each call is a span,
/// with the program's reported bounding and verify stage times laid out
/// inside it as derived child spans. `began` is when the phase began.
pub fn one_pass<Q>(
    run: &mut Run<'_>,
    out: &mut QueryRun,
    began: Instant,
    span_name: &'static str,
    queries: &[Q],
    range: std::ops::Range<usize>,
    mut exec: impl FnMut(&Q) -> Result<QueryOutcome, QueryError>,
) {
    out.answers.resize(queries.len(), None);
    for i in range {
        let request = run.request_id();
        let t0 = Instant::now();
        let result = run.trace.span(span_name, request, |trace| {
            let result = exec(&queries[i]);
            if let Ok(outcome) = &result {
                let bounding_end = t0 + outcome.stats.bounding_time;
                trace.record("query.bounding", request, t0, bounding_end);
                trace.record(
                    "query.verify",
                    request,
                    bounding_end,
                    bounding_end + outcome.stats.verify_time,
                );
            }
            result
        });
        let done = Instant::now();
        out.latencies_ms.push(ms(done - t0));
        out.completed_at_s.push((done - began).as_secs_f64());
        let answer = match result {
            Ok(outcome) => {
                out.stats.push((i, outcome.stats));
                Some(outcome.region)
            }
            Err(_) => {
                out.errors += 1;
                None
            }
        };
        match &out.answers[i] {
            None => out.answers[i] = Some(answer),
            Some(first) => out.unstable += u64::from(*first != answer),
        }
    }
    out.passes += 1;
}

/// One closed-loop caller running `queries` in whole passes until `seconds`
/// have passed (always at least one pass).
pub fn closed_loop<Q>(
    run: &mut Run<'_>,
    span_name: &'static str,
    queries: &[Q],
    seconds: f64,
    mut exec: impl FnMut(&Q) -> Result<QueryOutcome, QueryError>,
) -> QueryRun {
    let mut out = QueryRun::default();
    let began = Instant::now();
    while out.passes == 0 || began.elapsed().as_secs_f64() < seconds {
        one_pass(
            run,
            &mut out,
            began,
            span_name,
            queries,
            0..queries.len(),
            &mut exec,
        );
    }
    out
}

/// Per-query accounting of a phase, reduced per duration L (the `.L5`,
/// `.L10`, `.L20` metric families) and over all queries.
pub fn record_query_layers(values: &mut Values, queries: &[SQuery], run: &QueryRun) {
    for (duration_s, suffix) in [(300, "L5"), (600, "L10"), (1200, "L20")] {
        let of_l: Vec<&QueryStats> = run
            .stats
            .iter()
            .filter(|(i, _)| queries[*i].duration_s == duration_s)
            .map(|(_, s)| s)
            .collect();
        if of_l.is_empty() {
            continue;
        }
        let mut set = |stem: &str, reduce: fn(&[f64]) -> f64, f: &dyn Fn(&QueryStats) -> f64| {
            let column: Vec<f64> = of_l.iter().map(|s| f(s)).collect();
            values.set(
                metrics::per_layer_name(&format!("{stem}.{suffix}")),
                reduce(&column),
            );
        };
        set("query.bounding_ms_p50", metrics::median, &|s| {
            ms(s.bounding_time)
        });
        set("query.verify_ms_p50", metrics::median, &|s| {
            ms(s.verify_time)
        });
        set("query.other_ms_p50", metrics::median, &|s| {
            ms(s.wall_time.saturating_sub(s.bounding_time + s.verify_time))
        });
        set("query.segments_verified_per_query", metrics::mean, &|s| {
            s.segments_verified as f64
        });
        set("query.max_bounding_size", metrics::mean, &|s| {
            s.max_bounding_size as f64
        });
    }
    let n = run.stats.len().max(1) as f64;
    let sum =
        |f: &dyn Fn(&QueryStats) -> u64| run.stats.iter().map(|(_, s)| f(s)).sum::<u64>() as f64;
    let (hits, misses) = (sum(&|s| s.io.cache_hits), sum(&|s| s.io.cache_misses));
    values.set("buffer_pool.hit_ratio", hits / (hits + misses).max(1.0));
    values.set(
        "buffer_pool.page_reads_per_query",
        sum(&|s| s.io.page_reads) / n,
    );
    values.set(
        "postings.bytes_resident_per_query",
        sum(&|s| s.io.bytes_resident) / n,
    );
    values.set(
        "postings.bytes_decoded_per_query",
        sum(&|s| s.io.bytes_decoded) / n,
    );
}

/// Sets the three end-to-end query metrics from a phase.
pub fn record_end_to_end(run: &mut Run<'_>, stats: &PhaseStats, passes: usize) {
    run.values.set("query_p50_ms", stats.p50_ms);
    run.values.set("query_p95_ms", stats.p95_ms);
    run.values.set("queries_per_s", stats.per_s);
    run.notes.push(format!(
        "timed phase: {} queries in {passes} whole passes, {} per block",
        stats.samples,
        stats.samples / metrics::BLOCKS
    ));
    let blocks: Vec<String> = stats
        .blocks
        .iter()
        .map(|(p50, p95, rate)| format!("{p50:.2}/{p95:.2}/{rate:.0}"))
        .collect();
    run.notes
        .push(format!("blocks p50_ms/p95_ms/per_s: {}", blocks.join("  ")));
}

/// Runs a timed phase the way the mode asks: untraced for the whole
/// `--seconds`, or — in a traced run — half untraced and half traced, which
/// also yields the tracing overhead from one invocation. `phase` runs the
/// workload's closed loop for the given number of seconds.
pub fn timed_phase(
    run: &mut Run<'_>,
    mut phase: impl FnMut(&mut Run<'_>, f64) -> QueryRun,
) -> QueryRun {
    let seconds = run.args.seconds;
    if !run.args.trace {
        return phase(run, seconds);
    }
    // The untraced half still sits under a span, so the trace accounts for
    // the whole run; only the spans inside it are switched off.
    let stage = run.trace.begin("measure_untraced", 0);
    run.trace.set_enabled(false);
    let untraced = phase(run, seconds / 2.0);
    run.trace.set_enabled(true);
    run.trace.end(stage);
    let traced = run.span("measure_traced", |run| phase(run, seconds / 2.0));
    let whole = |phase: &QueryRun| phase.reduced(metrics::Reduce::WholePhase).per_s;
    let (plain, spans) = (whole(&untraced), whole(&traced));
    run.values
        .set("trace.overhead_pct", (plain - spans) / plain * 100.0);
    traced
}

/// Sleeps until `deadline`; how late the sleeper woke is the caller's to
/// record.
pub fn sleep_until(deadline: Instant) {
    std::thread::sleep(deadline.saturating_duration_since(Instant::now()));
}
