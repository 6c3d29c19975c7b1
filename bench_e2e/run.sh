#!/usr/bin/env bash
# Builds the release `serve` binary and the benchmark harness from source,
# then runs the harness against that binary. Run from the repository root:
#
#   bash bench_e2e/run.sh --workload fresh_tp160_20k --seed 1 --seconds 30 --trace 0
#
# Build output goes to stderr; the last line on stdout is the JSON result.
set -euo pipefail
if [ ! -f Cargo.toml ] || [ ! -d crates/serve ] || [ ! -f bench_e2e/Cargo.toml ]; then
    echo "bench_e2e: run from the repository root (no workspace here)" >&2
    exit 2
fi
target="${CARGO_TARGET_DIR:-target}"
export CARGO_TARGET_DIR="$target"
cargo build --release --quiet -p ecfd_serve --bin serve >&2
cargo build --release --quiet --manifest-path bench_e2e/Cargo.toml >&2
exec "$target/release/bench_e2e" --serve-bin "$target/release/serve" "$@"
