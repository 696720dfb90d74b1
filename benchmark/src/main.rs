//! The repository's benchmark. One invocation runs one workload once:
//!
//! ```text
//! streach-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! and prints, as the last line of standard output, one JSON object with the
//! run's metrics (end-to-end untraced, per-layer traced). Without
//! `--workload` all four run in turn. Everything else — the tables a person
//! reads — goes to standard error. See `README.md`.

mod check;
mod inputs;
mod metrics;
mod probes;
mod trace;
mod workloads;

use std::process::ExitCode;
use std::time::Instant;

use metrics::Report;
use trace::Trace;
use workloads::Args;

fn usage() -> ! {
    eprintln!(
        "usage: streach-benchmark [--workload W] [--seed N] [--seconds S] [--trace [0|1]]\n\
         \x20      streach-benchmark --emit-benchmark-json\n\
         workloads: {}",
        metrics::WORKLOADS
            .iter()
            .map(|(name, _)| *name)
            .collect::<Vec<_>>()
            .join(", ")
    );
    std::process::exit(64);
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: metrics::RUN_SECONDS as f64,
        trace: false,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--emit-benchmark-json" => {
                print!("{}", metrics::benchmark_json());
                std::process::exit(0);
            }
            "--workload" => args.workload = Some(it.next().unwrap_or_else(|| usage())),
            "--seed" => {
                args.seed = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--seconds" => {
                args.seconds = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|s: &f64| *s >= 1.0 && *s <= 60.0)
                    .unwrap_or_else(|| usage())
            }
            // `--trace` alone means on; the driver passes `--trace 0|1`.
            "--trace" => {
                args.trace = match it.peek().map(String::as_str) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            _ => usage(),
        }
    }
    if let Some(name) = &args.workload {
        if !metrics::WORKLOADS.iter().any(|(w, _)| w == name) {
            usage();
        }
    }
    args
}

fn run_workload(name: &str, args: &Args) -> Report {
    let epoch = Instant::now();
    let (mut report, trace): (Report, Trace) = match name {
        "adhoc_warm" => workloads::adhoc_warm::run(args, epoch),
        "adhoc_cold" => workloads::adhoc_cold::run(args, epoch),
        "serve_live" => workloads::serve_live::run(args, epoch),
        "fleet" => workloads::fleet::run(args, epoch),
        _ => unreachable!("workload names are validated"),
    };
    let wall_ns = epoch.elapsed().as_nanos() as u64;
    if args.trace {
        report.values.set(
            "trace.coverage_pct",
            trace::coverage(trace.spans(), wall_ns) * 100.0,
        );
        let path = format!("benchmark/out/trace-{name}.json");
        std::fs::write(
            &path,
            trace::to_json(name, args.seed, wall_ns, trace.spans()),
        )
        .expect("write the trace file");
        eprintln!("trace: {} spans written to {path}", trace.spans().len());
        print_self_times(&trace, wall_ns);
    }
    print_report(&report, args, wall_ns);
    report
}

fn print_self_times(trace: &Trace, wall_ns: u64) {
    eprintln!(
        "  {:<34} {:>8} {:>12} {:>12}",
        "span", "count", "total_ms", "self_ms"
    );
    for (name, totals) in trace::self_times(trace.spans()) {
        eprintln!(
            "  {:<34} {:>8} {:>12.3} {:>12.3}",
            name,
            totals.count,
            totals.total_ns as f64 / 1e6,
            totals.self_ns as f64 / 1e6
        );
    }
    eprintln!("  traced wall time: {:.3} s", wall_ns as f64 / 1e9);
}

fn print_report(report: &Report, args: &Args, wall_ns: u64) {
    eprintln!(
        "== {} seed={} seconds={} trace={} nproc={} streach_par::num_workers={} commit={} wall={:.1}s",
        report.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        streach_par::num_workers(usize::MAX),
        std::env::var("BENCH_GIT_COMMIT").unwrap_or_else(|_| "unknown".into()),
        wall_ns as f64 / 1e9,
    );
    for note in &report.notes {
        eprintln!("  # {note}");
    }
    for (name, unit, value, remark) in report.rows() {
        eprintln!("  {name:<40} {value:>16.4} {unit:<9} {remark}");
    }
    eprintln!(
        "  operations attempted={} failed={}",
        report.attempted, report.failed
    );
}

fn main() -> ExitCode {
    let args = parse_args();
    std::fs::create_dir_all("benchmark/out").expect("create benchmark/out");
    let names: Vec<&str> = match &args.workload {
        Some(name) => vec![name.as_str()],
        None => metrics::WORKLOADS.iter().map(|(name, _)| *name).collect(),
    };
    let mut all_correct = true;
    for name in names {
        let report = run_workload(name, &args);
        all_correct &= report.correct();
        println!("{}", report.json_line());
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("FAILED: at least one operation failed or answered wrongly");
        ExitCode::from(2)
    }
}
