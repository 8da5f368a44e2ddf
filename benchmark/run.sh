#!/usr/bin/env bash
# The one command of the benchmark.
#
#   benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#       one workload in one process; the last line of standard output is
#       the result object (correct, attempted, failed, metrics).
#   benchmark/run.sh [--seed <n>] [--seconds <s>] [--smoke] [--verify-threads]
#       the full set: four workloads, one process each, untraced then
#       traced; prints every metric and writes benchmark/out/results.json.
#   benchmark/run.sh compare <a.json> <b.json>
#   benchmark/run.sh manifest
#
# Builds the harness from source first (release, offline), into
# $CARGO_TARGET_DIR when set, else benchmark/target. Exits non-zero on any
# build, correctness or determinism failure.
set -euo pipefail
# Pin glibc malloc's thresholds: buffers up to 32 MiB come from the heap and
# the heap is never trimmed, so after the first repetition memory is reused
# instead of being unmapped and faulted in again. Left adaptive, the same
# binary's set-up time on this host was 0.17 s or 0.55 s from run to run,
# depending on allocation history.
export MALLOC_MMAP_THRESHOLD_=33554432 MALLOC_TRIM_THRESHOLD_=17179869184
ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cargo build --release --offline --quiet --manifest-path "$ROOT/benchmark/Cargo.toml" >&2
# Where benchmark/out/ goes and .git is looked up (--root overrides).
export MSR_BENCHMARK_ROOT="$ROOT"
exec "${CARGO_TARGET_DIR:-$ROOT/benchmark/target}/release/msr-benchmark" "$@"
