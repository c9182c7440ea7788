#!/usr/bin/env bash
# Build the benchmark offline and run it.
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one run; the last line of output is the result as one JSON object
#   benchmark/run.sh [--seed N] [--seconds S] [--no-trace]
#       every workload in a process of its own, untraced then traced
#   benchmark/run.sh --self-check [--seed N]
#       all of that twice on the same tree, compared against the bounds
#
# Run from the root of the repository. The build goes to
# $CARGO_TARGET_DIR, or to benchmark/target if that is not set.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-benchmark/target}"
# The build's messages go to stderr: stdout carries only the run's output.
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/ccs-benchmark" "$@"
