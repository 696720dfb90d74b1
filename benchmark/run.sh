#!/usr/bin/env bash
# The repository's benchmark, one command:
#
#   benchmark/run.sh [--workload W] [--seed N] [--seconds S] [--trace [0|1]]
#
# Builds the benchmark package (and through it the crates it measures) from
# source, then runs it from the root of the checkout. Without --workload all
# four workloads run in turn. The last line of standard output of each
# workload is its result as one JSON object; the tables go to standard error.
set -euo pipefail

cd "$(dirname "$0")/.."
# The driver points CARGO_TARGET_DIR at its own build directory; by hand the
# build lands beside the benchmark (ignored by git).
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-benchmark/target}"
# Recorded in the report only; a checkout that is not a git repository says so.
export BENCH_GIT_COMMIT="${BENCH_GIT_COMMIT:-$(git rev-parse --short HEAD 2>/dev/null || echo unknown)}"

cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/streach-benchmark" "$@"
