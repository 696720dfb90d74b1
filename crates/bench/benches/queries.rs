//! Micro-benchmarks mirroring the timing figures of the paper's evaluation
//! on the smoke-sized scenario (one group per figure), using the in-repo
//! harness (`streach_bench::timing`; criterion is unavailable offline).
//!
//! The full-scale tables come from the `repro` binary; these benches exist
//! to track regressions of each code path.
//! Run with `cargo bench -p streach-bench --bench queries`.

use streach_bench::timing::measure;
use streach_bench::{Scenario, ScenarioSize};
use streach_core::query::{Algorithm, MQuery, MQueryAlgorithm, SQuery};

fn report(group: &str, name: &str, ms: f64) {
    println!("{group:<22} {name:<24} {ms:>10.3} ms");
}

/// Fig 4.1(a): ES vs SQMB+TBS as the duration grows.
fn bench_duration(s: &Scenario) {
    for minutes in [5u32, 15, 25] {
        let q = s.canonical_squery(minutes);
        let es = measure(1, 9, || {
            s.engine
                .try_s_query(&q, Algorithm::ExhaustiveSearch)
                .expect("s-query")
        });
        report("fig4_1_duration", &format!("es/{minutes}"), es.median_ms());
        let fast = measure(1, 9, || {
            s.engine
                .try_s_query(&q, Algorithm::SqmbTbs)
                .expect("s-query")
        });
        report(
            "fig4_1_duration",
            &format!("sqmb_tbs/{minutes}"),
            fast.median_ms(),
        );
    }
}

/// Fig 4.3(a): running time vs probability threshold (should be flat).
fn bench_probability(s: &Scenario) {
    for prob in [20u32, 60, 100] {
        let q = SQuery {
            prob: prob as f64 / 100.0,
            ..s.canonical_squery(10)
        };
        let m = measure(1, 9, || {
            s.engine
                .try_s_query(&q, Algorithm::SqmbTbs)
                .expect("s-query")
        });
        report(
            "fig4_3_probability",
            &format!("sqmb_tbs/{prob}"),
            m.median_ms(),
        );
    }
}

/// Fig 4.5(a): running time vs start time (rush hour vs free flow).
fn bench_start_time(s: &Scenario) {
    for hour in [3u32, 8, 12, 18] {
        let q = SQuery {
            start_time_s: hour * 3600,
            ..s.canonical_squery(10)
        };
        let m = measure(1, 9, || {
            s.engine
                .try_s_query(&q, Algorithm::SqmbTbs)
                .expect("s-query")
        });
        report(
            "fig4_5_start_time",
            &format!("sqmb_tbs/{hour}h"),
            m.median_ms(),
        );
    }
}

/// Fig 4.7: running time vs the index granularity Δt.
fn bench_interval(s: &Scenario) {
    for dt_min in [5u32, 10, 20] {
        let engine = s.engine_with_slot(dt_min * 60);
        let q = s.canonical_squery(10);
        let m = measure(1, 9, || {
            engine.try_s_query(&q, Algorithm::SqmbTbs).expect("s-query")
        });
        report(
            "fig4_7_interval",
            &format!("sqmb_tbs/dt{dt_min}min"),
            m.median_ms(),
        );
    }
}

/// Fig 4.8: m-query answered as repeated s-queries vs MQMB.
fn bench_mquery(s: &Scenario) {
    for n in [1usize, 3, 6] {
        let q = MQuery {
            locations: s.mquery_locations(n),
            start_time_s: 10 * 3600,
            duration_s: 20 * 60,
            prob: 0.2,
        };
        let rep = measure(1, 5, || {
            s.engine
                .try_m_query(&q, MQueryAlgorithm::RepeatedSQuery)
                .expect("m-query")
        });
        report(
            "fig4_8_mquery",
            &format!("repeated_squery/{n}"),
            rep.median_ms(),
        );
        let uni = measure(1, 5, || {
            s.engine
                .try_m_query(&q, MQueryAlgorithm::MqmbTbs)
                .expect("m-query")
        });
        report("fig4_8_mquery", &format!("mqmb_tbs/{n}"), uni.median_ms());
    }
}

fn main() {
    let s = Scenario::build(ScenarioSize::Smoke);
    println!("{:<22} {:<24} {:>13}", "group", "benchmark", "median");
    bench_duration(&s);
    bench_probability(&s);
    bench_start_time(&s);
    bench_interval(&s);
    bench_mquery(&s);
}
