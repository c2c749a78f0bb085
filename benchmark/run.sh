#!/usr/bin/env bash
# The benchmark's single entry point: builds the benchmark package and
# hands every argument to its binary (see README.md in this directory).
#
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#   benchmark/run.sh [--seed N] [--runs R] [--smoke] [--out FILE]
#   benchmark/run.sh compare A.json B.json
set -euo pipefail

cd "$(dirname "$0")/.."
# The driver sets CARGO_TARGET_DIR; elsewhere the build goes beside it.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/ptatin-benchmark" "$@"
