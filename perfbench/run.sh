#!/usr/bin/env bash
# Builds the `fdi` binary and the benchmark harness from source, then runs
# the harness. Run from the repository root:
#
#   bash perfbench/run.sh --workload run|sweep|serve --seed N --seconds S --trace 0|1
#   bash perfbench/run.sh --selftest
#
# Build output goes to $CARGO_TARGET_DIR (default: .bench_build). The last
# line of standard output is the result JSON.
set -euo pipefail

target="${CARGO_TARGET_DIR:-.bench_build}"
case "$target" in
  /*) ;;
  *) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

cargo build --release --offline --quiet --bin fdi >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$target/release/perfbench" --fdi "$target/release/fdi" "$@"
