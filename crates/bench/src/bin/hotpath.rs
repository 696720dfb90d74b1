//! `hotpath` — measures the optimized query hot path against the naive
//! pre-refactor reference implementations and records the result in
//! `BENCH_hotpath.json`.
//!
//! ```text
//! cargo run --release -p streach-bench --bin hotpath
//! ```
//!
//! Scenario: `GeneratorConfig::small()` city, all-day smoke fleet, Δt = 5
//! minutes, zero simulated disk latency (the hot path being measured is the
//! CPU side: posting decoding, ID intersection, Dijkstra, scheduling). The
//! baseline runs the same SQMB bounds but verifies through the naive
//! hash-map verifier, sequentially — the exact structure of the code before
//! the zero-allocation refactor (see `streach_core::query::reference`).

use std::sync::Arc;

use streach_bench::timing::{measure, Measurement};
use streach_core::con_index::ConIndex;
use streach_core::config::IndexConfig;
use streach_core::query::reference::{naive_exhaustive_search, naive_trace_back_search};
use streach_core::query::sqmb::sqmb;
use streach_core::query::tbs::trace_back_search;
use streach_core::query::verifier::ReachabilityVerifier;
use streach_core::query::{es::exhaustive_search, SQuery};
use streach_core::speed_stats::SpeedStats;
use streach_core::st_index::StIndex;
use streach_geo::GeoPoint;
use streach_roadnet::{GeneratorConfig, RoadNetwork, SegmentId, SyntheticCity};
use streach_traj::{FleetConfig, TrajectoryDataset};

struct Row {
    name: String,
    baseline: Measurement,
    optimized: Measurement,
}

impl Row {
    fn speedup(&self) -> f64 {
        self.baseline.median.as_secs_f64() / self.optimized.median.as_secs_f64().max(1e-12)
    }
}

fn main() {
    eprintln!("[hotpath] building scenario (GeneratorConfig::small, all-day smoke fleet)...");
    let city = SyntheticCity::generate(GeneratorConfig::small());
    let center = city.central_point();
    let network = Arc::new(city.network);
    let dataset = TrajectoryDataset::simulate(
        &network,
        FleetConfig {
            num_taxis: 60,
            num_days: 10,
            day_start_s: 0,
            day_end_s: 86_400,
            seed: 2014,
            ..FleetConfig::default()
        },
    );
    let config = IndexConfig {
        read_latency_us: 0,
        ..Default::default()
    };
    let st = StIndex::build(network.clone(), &dataset, &config);
    let stats = Arc::new(SpeedStats::from_dataset(&network, &dataset, config.slot_s));
    let con = ConIndex::new(network.clone(), stats, &config);
    let start = network.nearest_segment(&center).unwrap().0;
    eprintln!(
        "[hotpath] scenario ready: {} segments, {} trajectories, {} time lists",
        network.num_segments(),
        dataset.trajectories().len(),
        st.stats().num_time_lists
    );

    let mut rows: Vec<Row> = Vec::new();
    let start_time = 11 * 3600u32;
    for minutes in [3u32, 5, 8, 10, 15, 25] {
        let duration = minutes * 60;
        rows.push(bench_squery(
            &network, &st, &con, start, start_time, duration, minutes,
        ));
        rows.push(bench_es(
            &network, &st, center, start, start_time, duration, minutes,
        ));
    }

    // Report.
    println!(
        "{:<24} {:>14} {:>14} {:>9}",
        "benchmark", "baseline (ms)", "optimized (ms)", "speedup"
    );
    for row in &rows {
        println!(
            "{:<24} {:>14.3} {:>14.3} {:>8.2}x",
            row.name,
            row.baseline.median_ms(),
            row.optimized.median_ms(),
            row.speedup()
        );
    }
    let squery_speedups: Vec<f64> = rows
        .iter()
        .filter(|r| r.name.starts_with("sqmb_tbs"))
        .map(Row::speedup)
        .collect();
    let geomean =
        (squery_speedups.iter().map(|s| s.ln()).sum::<f64>() / squery_speedups.len() as f64).exp();
    println!("geomean SQMB+TBS speedup: {geomean:.2}x");

    // BENCH_hotpath.json (hand-rolled: no JSON dependency offline).
    let mut entries = String::new();
    for (i, row) in rows.iter().enumerate() {
        if i > 0 {
            entries.push_str(",\n");
        }
        entries.push_str(&format!(
            "    {{\"name\": \"{}\", \"baseline_median_ms\": {:.4}, \"optimized_median_ms\": {:.4}, \"baseline_min_ms\": {:.4}, \"optimized_min_ms\": {:.4}, \"speedup\": {:.3}}}",
            row.name,
            row.baseline.median_ms(),
            row.optimized.median_ms(),
            row.baseline.min.as_secs_f64() * 1e3,
            row.optimized.min.as_secs_f64() * 1e3,
            row.speedup()
        ));
    }
    let json = format!(
        "{{\n  \"scenario\": {{\"city\": \"GeneratorConfig::small\", \"segments\": {}, \"taxis\": 60, \"days\": 10, \"slot_s\": {}, \"read_latency_us\": 0}},\n  \"baseline\": \"naive pre-refactor reference (hash-map verifier, sequential verification, hash-map Dijkstra)\",\n  \"threads\": {},\n  \"benchmarks\": [\n{}\n  ],\n  \"geomean_sqmb_tbs_speedup\": {:.3}\n}}\n",
        network.num_segments(),
        config.slot_s,
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
        entries,
        geomean
    );
    std::fs::write("BENCH_hotpath.json", &json).expect("write BENCH_hotpath.json");
    eprintln!("[hotpath] wrote BENCH_hotpath.json");

    if geomean < 2.0 {
        eprintln!(
            "[hotpath] WARNING: geomean SQMB+TBS speedup {geomean:.2}x is below the 2x target"
        );
        std::process::exit(1);
    }
}

#[allow(clippy::too_many_arguments)]
fn bench_squery(
    network: &Arc<RoadNetwork>,
    st: &StIndex,
    con: &ConIndex,
    start: SegmentId,
    start_time: u32,
    duration: u32,
    minutes: u32,
) -> Row {
    let prob = 0.2;
    let baseline = measure(2, 9, || {
        let bounds = sqmb(con, network.num_segments(), start, start_time, duration);
        naive_trace_back_search(st.network(), st, &bounds, start, start_time, duration, prob)
            .expect("fault-free store")
    });
    let optimized = measure(2, 9, || {
        let bounds = sqmb(con, network.num_segments(), start, start_time, duration);
        let verifier =
            ReachabilityVerifier::new(st, start, start_time, duration).expect("fault-free store");
        trace_back_search(st.network(), verifier.core(), &bounds, prob).expect("fault-free store")
    });
    Row {
        name: format!("sqmb_tbs_L{minutes}min"),
        baseline,
        optimized,
    }
}

fn bench_es(
    network: &Arc<RoadNetwork>,
    st: &StIndex,
    center: GeoPoint,
    start: SegmentId,
    start_time: u32,
    duration: u32,
    minutes: u32,
) -> Row {
    let q = SQuery {
        location: center,
        start_time_s: start_time,
        duration_s: duration,
        prob: 0.2,
    };
    let baseline = measure(1, 5, || {
        naive_exhaustive_search(network, st, &q, start).expect("fault-free store")
    });
    let optimized = measure(1, 5, || {
        exhaustive_search(network, st, &q, start).expect("fault-free store")
    });
    Row {
        name: format!("es_L{minutes}min"),
        baseline,
        optimized,
    }
}
