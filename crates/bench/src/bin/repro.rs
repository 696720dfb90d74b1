//! `repro` — regenerates every table and figure of the paper's evaluation
//! (Chapter 4) against the synthetic Shenzhen-like scenario.
//!
//! ```text
//! cargo run --release -p streach-bench --bin repro -- all            # everything
//! cargo run --release -p streach-bench --bin repro -- fig4_1a        # one experiment
//! cargo run --release -p streach-bench --bin repro -- all --quick    # smaller scenario
//! ```
//!
//! Output: one aligned table per experiment on stdout, plus GeoJSON files
//! for the map figures under `results/`.

use std::path::PathBuf;
use std::time::Instant;

use streach_bench::{Scenario, ScenarioSize, Table};
use streach_core::geojson::region_to_geojson;
use streach_core::query::{Algorithm, MQuery, MQueryAlgorithm, SQuery};
use streach_core::time::format_hhmm;

struct Ctx {
    scenario: Scenario,
    results_dir: PathBuf,
}

impl Ctx {
    fn new(size: ScenarioSize) -> Self {
        eprintln!("[repro] building scenario ({size:?}) ...");
        let t0 = Instant::now();
        let scenario = Scenario::build(size);
        eprintln!(
            "[repro] scenario ready in {:.1}s: {} segments, {} trajectories",
            t0.elapsed().as_secs_f64(),
            scenario.network.num_segments(),
            scenario.dataset.stats().num_trajectories
        );
        let results_dir = PathBuf::from("results");
        std::fs::create_dir_all(&results_dir).expect("create results directory");
        Self {
            scenario,
            results_dir,
        }
    }

    fn squery(&self, start_time_s: u32, duration_min: u32, prob: f64) -> SQuery {
        SQuery {
            location: self.scenario.query_location,
            start_time_s,
            duration_s: duration_min * 60,
            prob,
        }
    }

    fn run(&self, q: &SQuery, algo: Algorithm) -> streach_core::query::QueryOutcome {
        self.scenario.engine.try_s_query(q, algo).expect("s-query")
    }

    fn write_geojson(&self, name: &str, region: &streach_core::ReachableRegion) {
        let path = self.results_dir.join(format!("{name}.geojson"));
        std::fs::write(&path, region_to_geojson(&self.scenario.network, region))
            .expect("write GeoJSON");
        eprintln!("[repro] wrote {}", path.display());
    }
}

// ---------------------------------------------------------------------------
// Tables
// ---------------------------------------------------------------------------

fn table4_1(ctx: &Ctx) -> Table {
    let stats = ctx.scenario.dataset.stats();
    let net = &ctx.scenario.network;
    let bounds = net.bounds();
    let diag_km = streach_core::prelude::GeoPoint::new(bounds.min_lon, bounds.min_lat).haversine_m(
        &streach_core::prelude::GeoPoint::new(bounds.max_lon, bounds.max_lat),
    ) / 1000.0;
    let mut t = Table::new(
        "Table 4.1 — Dataset description (synthetic stand-in for the Shenzhen taxi dataset)",
        &["statistic", "value"],
    );
    t.row(vec![
        "city extent (diagonal)".into(),
        format!("{diag_km:.1} km"),
    ]);
    t.row(vec![
        "road segments (directed, re-segmented at 500 m)".into(),
        net.num_segments().to_string(),
    ]);
    t.row(vec!["intersections".into(), net.num_nodes().to_string()]);
    t.row(vec![
        "total road length".into(),
        format!("{:.0} km", net.total_length_km()),
    ]);
    t.row(vec!["duration".into(), format!("{} days", stats.num_days)]);
    t.row(vec!["number of taxis".into(), stats.num_taxis.to_string()]);
    t.row(vec![
        "number of trajectories".into(),
        stats.num_trajectories.to_string(),
    ]);
    t.row(vec![
        "segment visits (map-matched observations)".into(),
        stats.num_segment_visits.to_string(),
    ]);
    let st = ctx.scenario.engine.st_index().stats();
    t.row(vec![
        "ST-Index time lists".into(),
        st.num_time_lists.to_string(),
    ]);
    t.row(vec![
        "ST-Index posting pages (4 KiB)".into(),
        st.posting_pages.to_string(),
    ]);
    t
}

fn table4_2(_ctx: &Ctx) -> Table {
    let mut t = Table::new(
        "Table 4.2 — Evaluation configuration",
        &["parameter", "settings"],
    );
    t.row(vec!["duration L".into(), "{5, 10, ..., 35} min".into()]);
    t.row(vec!["probability Prob".into(), "{20%, ..., 100%}".into()]);
    t.row(vec![
        "start time T".into(),
        "[00:00 - 24:00] (2-hour steps)".into(),
    ]);
    t.row(vec!["interval Δt".into(), "{1, 5, 10, 20} min".into()]);
    t.row(vec!["s-query algorithms".into(), "ES, SQMB+TBS".into()]);
    t.row(vec![
        "m-query algorithms".into(),
        "SQMB+TBS (repeated), MQMB+TBS".into(),
    ]);
    t
}

// ---------------------------------------------------------------------------
// Figure 4.1 — effect of duration L
// ---------------------------------------------------------------------------

fn fig4_1a(ctx: &Ctx) -> Table {
    let mut t = Table::new(
        "Fig 4.1(a) — processing time vs duration L (T=11:00, Prob=20%)",
        &[
            "L (min)",
            "ES (ms)",
            "SQMB+TBS Δt=5 (ms)",
            "SQMB+TBS Δt=10 (ms)",
            "reduction vs ES",
        ],
    );
    let engine10 = ctx.scenario.engine_with_slot(600);
    for l in (5..=35).step_by(5) {
        let q = ctx.squery(11 * 3600, l, 0.2);
        let es = ctx.run(&q, Algorithm::ExhaustiveSearch);
        let fast5 = ctx.run(&q, Algorithm::SqmbTbs);
        let fast10 = engine10
            .try_s_query(&q, Algorithm::SqmbTbs)
            .expect("s-query");
        let best = fast5
            .stats
            .running_time_ms()
            .min(fast10.stats.running_time_ms());
        let reduction = 100.0 * (1.0 - best / es.stats.running_time_ms().max(1e-9));
        t.row(vec![
            l.to_string(),
            format!("{:.1}", es.stats.running_time_ms()),
            format!("{:.1}", fast5.stats.running_time_ms()),
            format!("{:.1}", fast10.stats.running_time_ms()),
            format!("{reduction:.0}%"),
        ]);
    }
    t
}

fn fig4_1b(ctx: &Ctx) -> Table {
    let mut t = Table::new(
        "Fig 4.1(b) — reachable road length vs duration L (T=11:00, Prob=20%)",
        &[
            "L (min)",
            "road km (Δt=5)",
            "road km (Δt=10)",
            "segments (Δt=5)",
        ],
    );
    let engine10 = ctx.scenario.engine_with_slot(600);
    for l in (5..=35).step_by(5) {
        let q = ctx.squery(11 * 3600, l, 0.2);
        let fast5 = ctx.run(&q, Algorithm::SqmbTbs);
        let fast10 = engine10
            .try_s_query(&q, Algorithm::SqmbTbs)
            .expect("s-query");
        t.row(vec![
            l.to_string(),
            format!("{:.1}", fast5.region.total_length_km),
            format!("{:.1}", fast10.region.total_length_km),
            fast5.region.len().to_string(),
        ]);
    }
    t
}

fn fig4_2(ctx: &Ctx) -> Table {
    let mut t = Table::new(
        "Fig 4.2 — Prob-reachable region maps (Prob=20%), exported as GeoJSON",
        &["L (min)", "segments", "road km", "file"],
    );
    for l in [5u32, 10] {
        let q = ctx.squery(11 * 3600, l, 0.2);
        let out = ctx.run(&q, Algorithm::SqmbTbs);
        let name = format!("fig4_2_L{l}min");
        ctx.write_geojson(&name, &out.region);
        t.row(vec![
            l.to_string(),
            out.region.len().to_string(),
            format!("{:.1}", out.region.total_length_km),
            format!("results/{name}.geojson"),
        ]);
    }
    t
}

// ---------------------------------------------------------------------------
// Figure 4.3 / 4.4 — effect of probability Prob
// ---------------------------------------------------------------------------

fn fig4_3a(ctx: &Ctx) -> Table {
    let mut t = Table::new(
        "Fig 4.3(a) — processing time vs probability (T=11:00)",
        &[
            "Prob",
            "ES L=10 (ms)",
            "SQMB+TBS L=10 (ms)",
            "SQMB+TBS L=15 (ms)",
        ],
    );
    for prob in [0.2, 0.4, 0.6, 0.8, 1.0] {
        let q10 = ctx.squery(11 * 3600, 10, prob);
        let q15 = ctx.squery(11 * 3600, 15, prob);
        let es = ctx.run(&q10, Algorithm::ExhaustiveSearch);
        let fast10 = ctx.run(&q10, Algorithm::SqmbTbs);
        let fast15 = ctx.run(&q15, Algorithm::SqmbTbs);
        t.row(vec![
            format!("{:.0}%", prob * 100.0),
            format!("{:.1}", es.stats.running_time_ms()),
            format!("{:.1}", fast10.stats.running_time_ms()),
            format!("{:.1}", fast15.stats.running_time_ms()),
        ]);
    }
    t
}

fn fig4_3b(ctx: &Ctx) -> Table {
    let mut t = Table::new(
        "Fig 4.3(b) — reachable road length vs probability (T=11:00)",
        &["Prob", "road km L=10", "road km L=15"],
    );
    for prob in [0.2, 0.4, 0.6, 0.8, 1.0] {
        let out10 = ctx.run(&ctx.squery(11 * 3600, 10, prob), Algorithm::SqmbTbs);
        let out15 = ctx.run(&ctx.squery(11 * 3600, 15, prob), Algorithm::SqmbTbs);
        t.row(vec![
            format!("{:.0}%", prob * 100.0),
            format!("{:.1}", out10.region.total_length_km),
            format!("{:.1}", out15.region.total_length_km),
        ]);
    }
    t
}

fn fig4_4(ctx: &Ctx) -> Table {
    let mut t = Table::new(
        "Fig 4.4 — region maps for Prob = 20/60/80/100% (L=10 min, T=11:00)",
        &["Prob", "segments", "road km", "file"],
    );
    for prob in [0.2, 0.6, 0.8, 1.0] {
        let out = ctx.run(&ctx.squery(11 * 3600, 10, prob), Algorithm::SqmbTbs);
        let name = format!("fig4_4_prob{:03}", (prob * 100.0) as u32);
        ctx.write_geojson(&name, &out.region);
        t.row(vec![
            format!("{:.0}%", prob * 100.0),
            out.region.len().to_string(),
            format!("{:.1}", out.region.total_length_km),
            format!("results/{name}.geojson"),
        ]);
    }
    t
}

// ---------------------------------------------------------------------------
// Figure 4.5 / 4.6 — effect of start time T
// ---------------------------------------------------------------------------

fn fig4_5(ctx: &Ctx, lengths: bool) -> Table {
    let (title, header): (&str, &[&str]) = if lengths {
        (
            "Fig 4.5(b) — reachable road length vs start time (Prob=20%)",
            &["start time", "road km L=5", "road km L=10"],
        )
    } else {
        (
            "Fig 4.5(a) — processing time vs start time (Prob=20%)",
            &["start time", "SQMB+TBS L=5 (ms)", "SQMB+TBS L=10 (ms)"],
        )
    };
    let mut t = Table::new(title, header);
    for hour in (0..24).step_by(2) {
        let start = hour * 3600;
        let out5 = ctx.run(&ctx.squery(start, 5, 0.2), Algorithm::SqmbTbs);
        let out10 = ctx.run(&ctx.squery(start, 10, 0.2), Algorithm::SqmbTbs);
        let (a, b) = if lengths {
            (out5.region.total_length_km, out10.region.total_length_km)
        } else {
            (out5.stats.running_time_ms(), out10.stats.running_time_ms())
        };
        t.row(vec![
            format_hhmm(start),
            format!("{a:.1}"),
            format!("{b:.1}"),
        ]);
    }
    t
}

fn fig4_6(ctx: &Ctx) -> Table {
    let mut t = Table::new(
        "Fig 4.6 — region maps at T = 01:00 / 06:00 / 12:00 / 18:00 (L=5 min, Prob=80%)",
        &["start time", "segments", "road km", "file"],
    );
    for hour in [1u32, 6, 12, 18] {
        let out = ctx.run(&ctx.squery(hour * 3600, 5, 0.8), Algorithm::SqmbTbs);
        let name = format!("fig4_6_T{hour:02}h");
        ctx.write_geojson(&name, &out.region);
        t.row(vec![
            format_hhmm(hour * 3600),
            out.region.len().to_string(),
            format!("{:.1}", out.region.total_length_km),
            format!("results/{name}.geojson"),
        ]);
    }
    t
}

// ---------------------------------------------------------------------------
// Figure 4.7 — effect of Δt
// ---------------------------------------------------------------------------

fn fig4_7(ctx: &Ctx) -> Table {
    let mut t = Table::new(
        "Fig 4.7 — processing time vs time interval Δt (T=11:00, Prob=20%)",
        &[
            "Δt (min)",
            "SQMB+TBS L=5 (ms)",
            "SQMB+TBS L=10 (ms)",
            "ES L=10 (ms)",
        ],
    );
    let q10 = ctx.squery(11 * 3600, 10, 0.2);
    let es = ctx.run(&q10, Algorithm::ExhaustiveSearch);
    for dt_min in [1u32, 5, 10, 20] {
        let engine = ctx.scenario.engine_with_slot(dt_min * 60);
        let mut times = Vec::new();
        for l in [5u32, 10] {
            let q = ctx.squery(11 * 3600, l, 0.2);
            let out = engine.try_s_query(&q, Algorithm::SqmbTbs).expect("s-query");
            times.push(out.stats.running_time_ms());
        }
        t.row(vec![
            dt_min.to_string(),
            format!("{:.1}", times[0]),
            format!("{:.1}", times[1]),
            format!("{:.1}", es.stats.running_time_ms()),
        ]);
    }
    t
}

// ---------------------------------------------------------------------------
// Figure 4.8 / 4.9 — m-query
// ---------------------------------------------------------------------------

fn fig4_8a(ctx: &Ctx) -> Table {
    let mut t = Table::new(
        "Fig 4.8(a) — m-query vs repeated s-query over duration (3 locations, Prob=20%, T=10:00)",
        &[
            "L (min)",
            "s-query x3 (ms)",
            "m-query (ms)",
            "saving",
            "bound max/min",
        ],
    );
    let locations = ctx.scenario.mquery_locations(3);
    for l in (5..=35).step_by(5) {
        let q = MQuery {
            locations: locations.clone(),
            start_time_s: 10 * 3600,
            duration_s: l * 60,
            prob: 0.2,
        };
        let repeated = ctx
            .scenario
            .engine
            .try_m_query(&q, MQueryAlgorithm::RepeatedSQuery)
            .expect("m-query");
        let unified = ctx
            .scenario
            .engine
            .try_m_query(&q, MQueryAlgorithm::MqmbTbs)
            .expect("m-query");
        let saving = 100.0
            * (1.0 - unified.stats.running_time_ms() / repeated.stats.running_time_ms().max(1e-9));
        t.row(vec![
            l.to_string(),
            format!("{:.1}", repeated.stats.running_time_ms()),
            format!("{:.1}", unified.stats.running_time_ms()),
            format!("{saving:.0}%"),
            // Merged per-location extremes: widest max / tightest min
            // bounding region across the sub-queries (not their sums).
            format!(
                "{}/{}",
                repeated.stats.max_bounding_size, repeated.stats.min_bounding_size
            ),
        ]);
    }
    t
}

fn fig4_8b(ctx: &Ctx) -> Table {
    let mut t = Table::new(
        "Fig 4.8(b) — m-query vs repeated s-query over #locations (L=20 min, Prob=20%, T=10:00)",
        &[
            "#locations",
            "s-query x n (ms)",
            "m-query (ms)",
            "saving",
            "bound max/min",
        ],
    );
    for n in 1..=10usize {
        let q = MQuery {
            locations: ctx.scenario.mquery_locations(n),
            start_time_s: 10 * 3600,
            duration_s: 20 * 60,
            prob: 0.2,
        };
        let repeated = ctx
            .scenario
            .engine
            .try_m_query(&q, MQueryAlgorithm::RepeatedSQuery)
            .expect("m-query");
        let unified = ctx
            .scenario
            .engine
            .try_m_query(&q, MQueryAlgorithm::MqmbTbs)
            .expect("m-query");
        let saving = 100.0
            * (1.0 - unified.stats.running_time_ms() / repeated.stats.running_time_ms().max(1e-9));
        t.row(vec![
            n.to_string(),
            format!("{:.1}", repeated.stats.running_time_ms()),
            format!("{:.1}", unified.stats.running_time_ms()),
            format!("{saving:.0}%"),
            format!(
                "{}/{}",
                repeated.stats.max_bounding_size, repeated.stats.min_bounding_size
            ),
        ]);
    }
    t
}

fn fig4_9(ctx: &Ctx) -> Table {
    let mut t = Table::new(
        "Fig 4.9 — m-query region of 3 locations and its per-location parts (L=20 min, Prob=20%)",
        &["result", "segments", "road km", "file"],
    );
    let locations = ctx.scenario.mquery_locations(3);
    let q = MQuery {
        locations: locations.clone(),
        start_time_s: 10 * 3600,
        duration_s: 20 * 60,
        prob: 0.2,
    };
    let union = ctx
        .scenario
        .engine
        .try_m_query(&q, MQueryAlgorithm::MqmbTbs)
        .expect("m-query");
    ctx.write_geojson("fig4_9_all", &union.region);
    t.row(vec![
        "all 3 locations".into(),
        union.region.len().to_string(),
        format!("{:.1}", union.region.total_length_km),
        "results/fig4_9_all.geojson".into(),
    ]);
    for (i, &loc) in locations.iter().enumerate() {
        let sq = SQuery {
            location: loc,
            start_time_s: q.start_time_s,
            duration_s: q.duration_s,
            prob: q.prob,
        };
        let out = ctx
            .scenario
            .engine
            .try_s_query(&sq, Algorithm::SqmbTbs)
            .expect("s-query");
        let name = format!("fig4_9_location_{}", (b'A' + i as u8) as char);
        ctx.write_geojson(&name, &out.region);
        t.row(vec![
            format!("location {}", (b'A' + i as u8) as char),
            out.region.len().to_string(),
            format!("{:.1}", out.region.total_length_km),
            format!("results/{name}.geojson"),
        ]);
    }
    t
}

// ---------------------------------------------------------------------------
// Ablations (design choices called out in DESIGN.md)
// ---------------------------------------------------------------------------

fn ablation(ctx: &Ctx) -> Table {
    let mut t = Table::new(
        "Ablation — where the speedup comes from (T=11:00, L=10 min, Prob=20%)",
        &[
            "variant",
            "runtime (ms)",
            "segments verified",
            "posting page requests",
        ],
    );
    let q = ctx.squery(11 * 3600, 10, 0.2);
    let es = ctx.run(&q, Algorithm::ExhaustiveSearch);
    let fast = ctx.run(&q, Algorithm::SqmbTbs);
    // Cold-cache run of the index-based algorithm.
    ctx.scenario.engine.st_index().clear_cache();
    let cold = ctx.run(&q, Algorithm::SqmbTbs);
    for (name, o) in [
        ("ES (baseline)", &es),
        ("SQMB+TBS (warm cache)", &fast),
        ("SQMB+TBS (cold cache)", &cold),
    ] {
        t.row(vec![
            name.into(),
            format!("{:.1}", o.stats.running_time_ms()),
            o.stats.segments_verified.to_string(),
            (o.stats.io.cache_hits + o.stats.io.cache_misses).to_string(),
        ]);
    }
    t
}

// ---------------------------------------------------------------------------
// Snapshot persistence — cold vs warm start
// ---------------------------------------------------------------------------

/// Cold-start experiment: persist the engine, reopen it from disk without
/// the trajectory dataset, and compare (a) startup cost against a full
/// rebuild and (b) query results bit-for-bit. The reopened engine serves
/// its postings from a real `FilePageStore`, so the reported page reads are
/// genuine disk I/O.
fn snapshot(ctx: &Ctx) -> Table {
    use streach_core::prelude::ReachabilityEngine;
    use streach_core::EngineBuilder;

    let dir = std::env::temp_dir().join(format!("streach-repro-snapshot-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let network = ctx.scenario.network.clone();
    let config = ctx.scenario.engine.config().clone();

    let t0 = Instant::now();
    ctx.scenario
        .engine
        .save_snapshot(&dir)
        .expect("save snapshot");
    let save_s = t0.elapsed().as_secs_f64();

    // Warm start: rebuild everything from the raw trajectory dataset.
    let t1 = Instant::now();
    let rebuilt = EngineBuilder::new(network.clone(), &ctx.scenario.dataset)
        .index_config(config.clone())
        .build();
    let rebuild_s = t1.elapsed().as_secs_f64();

    // Cold start: reopen from disk; the dataset is not consulted at all.
    let t2 = Instant::now();
    let reopened = ReachabilityEngine::open_snapshot(&dir, network).expect("open snapshot");
    let open_s = t2.elapsed().as_secs_f64();

    // Round-trip check: the canonical query answers bit-identically on the
    // rebuilt and the reopened engine, and the cold engine pays real I/O.
    let q = ctx.squery(11 * 3600, 10, 0.2);
    let warm_out = rebuilt
        .try_s_query(&q, Algorithm::SqmbTbs)
        .expect("s-query");
    reopened.st_index().clear_cache();
    reopened.st_index().io_stats().reset();
    let cold_out = reopened
        .try_s_query(&q, Algorithm::SqmbTbs)
        .expect("s-query");
    assert_eq!(
        warm_out.region.segments, cold_out.region.segments,
        "snapshot round-trip must answer bit-identically"
    );
    assert!(
        cold_out.stats.io.page_reads > 0,
        "cold open must read pages from disk"
    );

    let snap_bytes: u64 = std::fs::read_dir(&dir)
        .expect("snapshot dir")
        .flatten()
        .filter_map(|e| e.metadata().ok())
        .map(|m| m.len())
        .sum();
    let _ = std::fs::remove_dir_all(&dir);

    let mut t = Table::new(
        "Snapshot persistence — cold start (open from disk) vs warm start (rebuild)",
        &["stage", "value"],
    );
    t.row(vec![
        "rebuild indexes from trajectories".into(),
        format!("{rebuild_s:.2} s"),
    ]);
    t.row(vec![
        "save snapshot (fsync)".into(),
        format!("{save_s:.2} s"),
    ]);
    t.row(vec![
        "open snapshot (cold start)".into(),
        format!("{open_s:.2} s"),
    ]);
    t.row(vec![
        "cold-start speedup over rebuild".into(),
        format!("{:.0}x", rebuild_s / open_s.max(1e-9)),
    ]);
    t.row(vec![
        "snapshot size on disk".into(),
        format!("{:.1} MiB", snap_bytes as f64 / (1024.0 * 1024.0)),
    ]);
    t.row(vec![
        "cold s-query page reads (real disk)".into(),
        cold_out.stats.io.page_reads.to_string(),
    ]);
    t.row(vec![
        "round-trip result".into(),
        "bit-identical to rebuilt engine".into(),
    ]);
    t
}

// ---------------------------------------------------------------------------
// main
// ---------------------------------------------------------------------------

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let which: Vec<&str> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .map(|s| s.as_str())
        .collect();
    let which = if which.is_empty() { vec!["all"] } else { which };

    let size = if quick {
        ScenarioSize::Quick
    } else {
        ScenarioSize::Standard
    };
    let ctx = Ctx::new(size);

    type ExperimentFn = fn(&Ctx) -> Table;
    let experiments: Vec<(&str, ExperimentFn)> = vec![
        ("table4_1", table4_1),
        ("table4_2", table4_2),
        ("fig4_1a", fig4_1a),
        ("fig4_1b", fig4_1b),
        ("fig4_2", fig4_2),
        ("fig4_3a", fig4_3a),
        ("fig4_3b", fig4_3b),
        ("fig4_4", fig4_4),
        ("fig4_5a", |c| fig4_5(c, false)),
        ("fig4_5b", |c| fig4_5(c, true)),
        ("fig4_6", fig4_6),
        ("fig4_7", fig4_7),
        ("fig4_8a", fig4_8a),
        ("fig4_8b", fig4_8b),
        ("fig4_9", fig4_9),
        ("ablation", ablation),
        ("snapshot", snapshot),
    ];

    let run_all = which.contains(&"all");
    let mut ran = 0;
    for (name, f) in &experiments {
        if run_all || which.contains(name) {
            let t0 = Instant::now();
            let table = f(&ctx);
            println!("{}", table.render());
            eprintln!(
                "[repro] {name} done in {:.1}s\n",
                t0.elapsed().as_secs_f64()
            );
            ran += 1;
        }
    }
    if ran == 0 {
        eprintln!(
            "unknown experiment; available: all, {}",
            experiments
                .iter()
                .map(|(n, _)| *n)
                .collect::<Vec<_>>()
                .join(", ")
        );
        std::process::exit(2);
    }
}
