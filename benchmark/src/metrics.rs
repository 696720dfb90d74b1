//! The benchmark's contract in one place: workloads, metric names, units,
//! directions and bounds (`BENCHMARK.json` is generated from these tables),
//! plus the statistics every timed phase is reduced with.

use std::collections::BTreeMap;
use std::time::Duration;

/// The four workloads and why each exists (one line each).
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "adhoc_warm",
        "everything fits: pool >= heap and Con-Index tables pre-built, so only the CPU query path works; bypass workload for storage, table builds, serve, WAL and router",
    ),
    (
        "adhoc_cold",
        "larger than cache: a fresh mmap open with a 256 KiB pool before every 12-query slice of a day-wide sweep, so snapshot open, Con-Index table builds and pool misses do the work",
    ),
    (
        "serve_live",
        "one node's afternoon: a closed loop through the QueryServer (80% Zipf over 512 hot tuples, 20% new) beside durable tick ingest, so result cache, invalidation scans, WAL fsync and delta fold all run",
    ),
    (
        "fleet",
        "2 k-d shards x 2 WAL-shipped replicas, replica-first reads: the adhoc_warm query list through the router after routed ingest, so scatter/merge and shipping add the only extra work",
    ),
];

/// An end-to-end metric: what a user of the system sees. `bound` is the
/// share of the parent's median by which it may worsen.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub bound: f64,
}

/// Every workload reports every one of these from one long timed phase
/// (never from an incidental sub-second phase). The bounds are set from
/// `repeat.sh` on the 2-vCPU sandbox, whose speed itself moves by 10–20 %
/// between minutes (README, "How steady it is"): identical runs of identical
/// inputs spread by up to 15 %, so nothing tighter would hold.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "query_p50_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "query_p95_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "queries_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
];

/// A per-layer metric (no bound). `moves` names the end-to-end metric and
/// workload it should move; a workload whose layer does no work reports 0.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
    }
}

pub const PER_LAYER: &[PerLayer] = &[
    // Workload-specific user-visible figures: end-to-end in spirit, but only
    // one or two workloads exercise each, so they carry no bound (see README).
    layer("open_s", "s", "lower", "adhoc_cold: restart time"),
    layer(
        "mquery_p50_ms",
        "ms",
        "lower",
        "adhoc_warm: m-query latency",
    ),
    layer(
        "ingest_points_per_s",
        "points/s",
        "higher",
        "serve_live, fleet: durable and visible",
    ),
    layer("checkpoint_s", "s", "lower", "serve_live"),
    layer("compact_s", "s", "lower", "serve_live"),
    layer("recover_s", "s", "lower", "serve_live: reopen + WAL replay"),
    layer(
        "disk_bytes_per_point",
        "bytes",
        "lower",
        "adhoc_cold (exact)",
    ),
    // Set-up layers.
    layer(
        "roadnet.locate_us",
        "us",
        "lower",
        "query_p50_ms on adhoc_warm",
    ),
    layer("traj.simulate_s", "s", "lower", "setup_s everywhere"),
    layer("builder.build_s", "s", "lower", "setup_s everywhere"),
    layer("snapshot.full_save_s", "s", "lower", "setup_s everywhere"),
    layer("snapshot.open_file_s", "s", "lower", "open_s, setup_s"),
    layer("snapshot.open_mmap_s", "s", "lower", "open_s on adhoc_cold"),
    layer(
        "snapshot.bytes_index_snap",
        "bytes",
        "lower",
        "disk_bytes_per_point, open_s (exact)",
    ),
    layer(
        "snapshot.bytes_postings",
        "bytes",
        "lower",
        "disk_bytes_per_point (exact)",
    ),
    // Con-Index.
    layer(
        "con_index.table_build_ms",
        "ms",
        "lower",
        "query_p50_ms, queries_per_s on adhoc_cold; setup_s on adhoc_warm",
    ),
    layer(
        "con_index.table_hit_us",
        "us",
        "lower",
        "query_p50_ms on adhoc_warm",
    ),
    layer(
        "con_index.builds_per_query",
        "count",
        "lower",
        "query_p50_ms on adhoc_cold; 0 on adhoc_warm",
    ),
    layer(
        "con_index.evictions",
        "count",
        "lower",
        "queries_per_s on adhoc_cold; serve_live p95",
    ),
    // ST-Index, buffer pool, page stores.
    layer(
        "st_index.time_list_hit_us",
        "us",
        "lower",
        "query_p50_ms on adhoc_warm",
    ),
    layer(
        "st_index.time_list_miss_us",
        "us",
        "lower",
        "query_p50_ms on adhoc_cold",
    ),
    layer(
        "buffer_pool.hit_ratio",
        "ratio",
        "higher",
        "query_p50_ms on adhoc_cold",
    ),
    layer(
        "buffer_pool.page_reads_per_query",
        "count",
        "lower",
        "query_p50_ms on adhoc_cold; 0 on adhoc_warm (exact)",
    ),
    layer(
        "postings.bytes_resident_per_query",
        "bytes",
        "lower",
        "query_p50_ms (exact)",
    ),
    layer(
        "postings.bytes_decoded_per_query",
        "bytes",
        "lower",
        "query_p50_ms (exact)",
    ),
    layer(
        "pagestore.read_us_file",
        "us",
        "lower",
        "query_p50_ms on adhoc_cold",
    ),
    layer(
        "pagestore.read_us_mmap",
        "us",
        "lower",
        "query_p50_ms on adhoc_cold",
    ),
    // Query pipeline, split by duration L.
    layer(
        "query.bounding_ms_p50.L5",
        "ms",
        "lower",
        "query_p50_ms on adhoc_warm",
    ),
    layer(
        "query.bounding_ms_p50.L10",
        "ms",
        "lower",
        "query_p50_ms on adhoc_warm, adhoc_cold",
    ),
    layer(
        "query.bounding_ms_p50.L20",
        "ms",
        "lower",
        "query_p95_ms on adhoc_warm",
    ),
    layer(
        "query.verify_ms_p50.L5",
        "ms",
        "lower",
        "query_p50_ms on adhoc_warm",
    ),
    layer(
        "query.verify_ms_p50.L10",
        "ms",
        "lower",
        "query_p50_ms on adhoc_warm, adhoc_cold",
    ),
    layer(
        "query.verify_ms_p50.L20",
        "ms",
        "lower",
        "query_p95_ms on adhoc_warm",
    ),
    layer(
        "query.other_ms_p50.L5",
        "ms",
        "lower",
        "query_p50_ms on adhoc_warm",
    ),
    layer(
        "query.other_ms_p50.L10",
        "ms",
        "lower",
        "query_p50_ms on adhoc_warm",
    ),
    layer(
        "query.other_ms_p50.L20",
        "ms",
        "lower",
        "query_p95_ms on adhoc_warm",
    ),
    layer(
        "query.segments_verified_per_query.L5",
        "count",
        "lower",
        "verify time (exact)",
    ),
    layer(
        "query.segments_verified_per_query.L10",
        "count",
        "lower",
        "verify time (exact)",
    ),
    layer(
        "query.segments_verified_per_query.L20",
        "count",
        "lower",
        "verify time (exact)",
    ),
    layer(
        "query.max_bounding_size.L5",
        "count",
        "lower",
        "bounding time (exact)",
    ),
    layer(
        "query.max_bounding_size.L10",
        "count",
        "lower",
        "bounding time (exact)",
    ),
    layer(
        "query.max_bounding_size.L20",
        "count",
        "lower",
        "bounding time (exact)",
    ),
    layer(
        "query.es_p50_ms",
        "ms",
        "lower",
        "the paper's baseline on the same list",
    ),
    layer(
        "mqmb.bounding_ms_p50",
        "ms",
        "lower",
        "mquery_p50_ms on adhoc_warm",
    ),
    layer(
        "par.one_worker_p50_ms",
        "ms",
        "lower",
        "fan-out share of query_p50_ms on adhoc_warm",
    ),
    // Serving front end.
    layer(
        "serve.cache_hit_ratio",
        "ratio",
        "higher",
        "query_p50_ms, queries_per_s on serve_live",
    ),
    layer(
        "serve.coalesced_share",
        "ratio",
        "higher",
        "queries_per_s on serve_live",
    ),
    layer(
        "serve.hit_p50_us",
        "us",
        "lower",
        "query_p50_ms on serve_live",
    ),
    layer(
        "serve.miss_p50_ms",
        "ms",
        "lower",
        "query_p95_ms on serve_live",
    ),
    layer(
        "serve.queue_overhead_ms",
        "ms",
        "lower",
        "query_p95_ms on serve_live",
    ),
    layer(
        "serve.invalidated_per_tick",
        "count",
        "lower",
        "cache_hit_ratio on serve_live",
    ),
    layer(
        "serve.flushes",
        "count",
        "lower",
        "cache_hit_ratio on serve_live",
    ),
    layer("serve.latency_p99_ms", "ms", "lower", "tail on serve_live"),
    layer(
        "serve.passage_per_s",
        "1/s",
        "higher",
        "serving while ingest passes through a hot window",
    ),
    layer(
        "serve.passage_p95_ms",
        "ms",
        "lower",
        "table rebuilds while ingest passes through a hot window",
    ),
    // Ingest, WAL, maintenance.
    layer(
        "ingest.volatile_points_per_s",
        "points/s",
        "higher",
        "ingest_points_per_s on serve_live",
    ),
    layer(
        "ingest.ack_p95_ms",
        "ms",
        "lower",
        "ingest_points_per_s on serve_live",
    ),
    layer(
        "wal.append_us",
        "us",
        "lower",
        "ingest_points_per_s on serve_live",
    ),
    layer(
        "wal.sync_ms",
        "ms",
        "lower",
        "ingest_points_per_s on serve_live",
    ),
    layer(
        "wal.bytes_per_point",
        "bytes",
        "lower",
        "ingest_points_per_s on serve_live (exact)",
    ),
    layer("wal.replay_records", "count", "lower", "recover_s (exact)"),
    layer("wal.replay_s", "s", "lower", "recover_s"),
    layer(
        "maintenance.checkpoints",
        "count",
        "lower",
        "query_p95_ms spikes on serve_live",
    ),
    layer(
        "maintenance.compactions",
        "count",
        "lower",
        "query_p95_ms spikes on serve_live",
    ),
    layer(
        "snapshot.incremental_save_s",
        "s",
        "lower",
        "checkpoint_s (fixed cost, empty delta)",
    ),
    layer(
        "st_index.delta_bytes",
        "bytes",
        "lower",
        "checkpoint_s, compact_s (exact)",
    ),
    // Router and replication.
    layer(
        "sharded.router_overhead_ms",
        "ms",
        "lower",
        "query_p50_ms on fleet",
    ),
    layer(
        "sharded.straddling_share",
        "ratio",
        "lower",
        "query_p50_ms on fleet (exact)",
    ),
    layer(
        "replicate.ship_ms_per_call",
        "ms",
        "lower",
        "ingest_points_per_s on fleet",
    ),
    layer(
        "replicate.ship_points_per_s",
        "points/s",
        "higher",
        "ingest_points_per_s on fleet",
    ),
    layer(
        "replicate.converge_ms",
        "ms",
        "lower",
        "ingest_points_per_s on fleet",
    ),
    layer(
        "replicate.max_lag_records",
        "count",
        "lower",
        "ingest_points_per_s on fleet",
    ),
    // The harness itself.
    layer(
        "trace.overhead_pct",
        "%",
        "lower",
        "traced vs untraced queries_per_s, same invocation",
    ),
    layer(
        "trace.coverage_pct",
        "%",
        "higher",
        "top-level spans / traced wall time",
    ),
];

/// The table's own name for a per-layer metric assembled at run time (the
/// `.L5/.L10/.L20` families); a name the table lacks is a bug in the harness.
pub fn per_layer_name(name: &str) -> &'static str {
    PER_LAYER
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("{name} is not a per-layer metric"))
        .name
}

/// The command line the driver prefixes to `--workload .. --seed ..`.
pub const COMMAND: &[&str] = &["bash", "benchmark/run.sh"];
pub const PATHS: &[&str] = &["benchmark"];
/// Seconds one run measures (the single timed end-to-end phase).
pub const RUN_SECONDS: u64 = 10;

/// `BENCHMARK.json`, generated so the file and the program cannot drift.
pub fn benchmark_json() -> String {
    let quote = |items: &[&str]| {
        items
            .iter()
            .map(|s| format!("\"{s}\""))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"command\": [{}],\n", quote(COMMAND)));
    out.push_str(&format!("  \"paths\": [{}],\n", quote(PATHS)));
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    out.push_str("  \"workloads\": [\n");
    for (i, (name, why)) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 == WORKLOADS.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{\"name\": \"{name}\", \"why\": \"{why}\"}}{comma}\n"
        ));
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 == END_TO_END.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}\n",
            m.name, m.unit, m.better, m.bound
        ));
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 == PER_LAYER.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{comma}\n",
            m.name, m.unit, m.better
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Named values collected by one run.
#[derive(Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// What one run of one workload produced.
pub struct Report {
    pub workload: &'static str,
    pub traced: bool,
    pub attempted: u64,
    pub failed: u64,
    pub values: Values,
    /// Free-form context lines for the human report (sample counts, sizes).
    pub notes: Vec<String>,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The (name, unit, value, remark) rows this run must print: every
    /// end-to-end metric untraced (remark: its bound), every per-layer metric
    /// traced (remark: what it should move). A per-layer metric whose layer
    /// did no work in this workload reads 0.
    pub fn rows(&self) -> Vec<(&'static str, &'static str, f64, String)> {
        if self.traced {
            PER_LAYER
                .iter()
                .map(|m| {
                    let value = self.values.get(m.name).unwrap_or(0.0);
                    (m.name, m.unit, value, format!("-> {}", m.moves))
                })
                .collect()
        } else {
            END_TO_END
                .iter()
                .map(|m| {
                    let value = self
                        .values
                        .get(m.name)
                        .unwrap_or_else(|| panic!("workload did not report {}", m.name));
                    let remark = format!("{} is better, bound {:.0}%", m.better, m.bound * 100.0);
                    (m.name, m.unit, value, remark)
                })
                .collect()
        }
    }

    /// The one-line JSON result the driver reads from the last stdout line.
    pub fn json_line(&self) -> String {
        let metrics = self
            .rows()
            .iter()
            .map(|(name, unit, value, _)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_number(*value)
                )
            })
            .collect::<Vec<_>>()
            .join(", ");
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct(),
            self.attempted,
            self.failed
        )
    }
}

/// A JSON number with all measured digits (non-finite values cannot occur on
/// a correct run; they print as 0 so the line stays valid JSON).
fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".into()
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Nearest-rank percentile of an unsorted sample (`q` in 0..=1).
pub fn percentile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((sorted.len() as f64) * q).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

/// Number of equal blocks a timed phase is cut into.
pub const BLOCKS: usize = 5;

/// Fewest samples a block needs before its percentiles mean anything.
const MIN_BLOCK_SAMPLES: usize = 40;

/// How a timed phase is reduced to its three figures.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Reduce {
    /// A stationary phase (the same list again and again): each figure is
    /// the **median of five equal blocks**, so a stall that lands in one or
    /// two blocks does not move it. A phase with fewer than
    /// `BLOCKS * MIN_BLOCK_SAMPLES` operations (adhoc_cold, whose operations
    /// take a third of a second) takes its percentiles over the whole phase.
    MedianBlock,
    /// A scripted phase whose regimes differ by design (serve_live's hours):
    /// percentiles and throughput over the whole phase.
    WholePhase,
}

pub struct PhaseStats {
    pub p50_ms: f64,
    pub p95_ms: f64,
    pub per_s: f64,
    pub samples: usize,
    /// (p50 ms, p95 ms, operations/s) of each block, for the human report.
    pub blocks: Vec<(f64, f64, f64)>,
}

/// Reduces a phase given each operation's latency and completion time
/// (seconds since the phase began), in completion order.
pub fn phase_stats(latencies_ms: &[f64], completed_at_s: &[f64], reduce: Reduce) -> PhaseStats {
    assert_eq!(latencies_ms.len(), completed_at_s.len());
    let n = latencies_ms.len();
    assert!(n >= BLOCKS, "a timed phase needs at least {BLOCKS} samples");
    let (mut p50, mut p95, mut rate) = (Vec::new(), Vec::new(), Vec::new());
    for b in 0..BLOCKS {
        let (lo, hi) = (b * n / BLOCKS, (b + 1) * n / BLOCKS);
        let block = &latencies_ms[lo..hi];
        p50.push(percentile(block, 0.50));
        p95.push(percentile(block, 0.95));
        let began = if lo == 0 { 0.0 } else { completed_at_s[lo - 1] };
        rate.push((hi - lo) as f64 / (completed_at_s[hi - 1] - began).max(1e-9));
    }
    let by_block = reduce == Reduce::MedianBlock;
    let block_percentiles = by_block && n >= BLOCKS * MIN_BLOCK_SAMPLES;
    PhaseStats {
        p50_ms: if block_percentiles {
            median(&p50)
        } else {
            percentile(latencies_ms, 0.50)
        },
        p95_ms: if block_percentiles {
            median(&p95)
        } else {
            percentile(latencies_ms, 0.95)
        },
        per_s: if by_block {
            median(&rate)
        } else {
            n as f64 / completed_at_s[n - 1].max(1e-9)
        },
        samples: n,
        blocks: (0..BLOCKS).map(|b| (p50[b], p95[b], rate[b])).collect(),
    }
}
