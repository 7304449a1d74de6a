#!/usr/bin/env bash
# Build the benchmark in release and run it. From anywhere:
#
#   bench/e2e/run.sh [--seed N] [--seconds S]      every workload, end to end and traced
#   bench/e2e/run.sh --workload NAME --seed N --seconds S --trace 0|1    one run
#   bench/e2e/run.sh --smoke                       tiny run of everything, checked
#                                                  against BENCHMARK.json
#
# Prints every metric as `workload metric value unit`; a single run ends with
# the one-line JSON object the driver reads. Result files land in
# bench/e2e/out/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cd "$here/../.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path bench/e2e/Cargo.toml --bin e2e >&2
exec "$CARGO_TARGET_DIR/release/e2e" "$@"
