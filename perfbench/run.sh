#!/usr/bin/env bash
# Builds the benchmark and the `edna` binary from this checkout, then runs
# one benchmark run:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the root of a checkout. Build output goes to
# $CARGO_TARGET_DIR (default .bench_build); prepared instances and run
# directories go to .bench_work. The last stdout line is the result JSON.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --quiet --offline -p edna-cli --bin edna >&2
cargo build --release --quiet --offline --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/edna-perfbench" "$@" \
    --edna "$CARGO_TARGET_DIR/release/edna" --work .bench_work
