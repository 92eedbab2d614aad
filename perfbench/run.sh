#!/usr/bin/env bash
# Builds the library and the `optipart-serve` binary from source, then runs
# one benchmark workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload cold_ladder --seed 2017 --seconds 15 --trace 0
#
# Build output goes to $CARGO_TARGET_DIR (default .bench_build); build logs
# go to stderr, the report and the closing JSON line to stdout.
set -euo pipefail

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
# The engine's host-thread budget equals the core count.
export RAYON_NUM_THREADS="$(nproc)"

cargo build --release --offline -q --manifest-path Cargo.toml \
    -p optipart --bin optipart-serve >&2
cargo build --release --offline -q --manifest-path perfbench/Cargo.toml >&2

PERFBENCH_RUSTC="$(rustc --version)"
PERFBENCH_COMMIT="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
export PERFBENCH_RUSTC PERFBENCH_COMMIT
# Both binaries land in one directory; perfbench starts the server from
# beside its own executable.
exec "$CARGO_TARGET_DIR/release/perfbench" "$@"
