#!/usr/bin/env bash
# Run the perf microbenchmarks and emit machine-readable timing JSON
# (BENCH_kernels.json / BENCH_speedup.json / BENCH_train_throughput.json)
# for regression tracking.
#
# Usage: tools/run_benches.sh [build_dir] [output_dir]
#   build_dir   cmake build tree containing the bench binaries (default: build)
#   output_dir  where BENCH_*.json land (default: .)
#
# MAPS_BENCH_FILTER can narrow the run, e.g.
#   MAPS_BENCH_FILTER=Banded tools/run_benches.sh
# MAPS_BENCH_MIN_TIME caps per-benchmark sampling time (seconds), e.g.
#   MAPS_BENCH_MIN_TIME=0.01 for a CI smoke pass that runs ~1 iteration.
set -euo pipefail

BUILD_DIR="${1:-build}"
OUT_DIR="${2:-.}"
FILTER="${MAPS_BENCH_FILTER:-}"
MIN_TIME="${MAPS_BENCH_MIN_TIME:-}"

run_bench() {
  local name="$1" binary="$2" out="$3" default_filter="${4:-}"
  if [[ ! -x "$binary" ]]; then
    echo "[run_benches] skip $name: $binary not built" >&2
    return 0
  fi
  local args=(--benchmark_format=json --benchmark_out="$out"
              --benchmark_out_format=json)
  # A per-entry filter pins what that artifact means (e.g. train_throughput
  # is always the TrainStep series); MAPS_BENCH_FILTER only narrows entries
  # without one.
  if [[ -n "$default_filter" ]]; then
    args+=("--benchmark_filter=$default_filter")
  elif [[ -n "$FILTER" ]]; then
    args+=("--benchmark_filter=$FILTER")
  fi
  if [[ -n "$MIN_TIME" ]]; then
    args+=("--benchmark_min_time=$MIN_TIME")
  fi
  echo "[run_benches] $name -> $out"
  "$binary" "${args[@]}" >/dev/null
}

mkdir -p "$OUT_DIR"
run_bench kernels "$BUILD_DIR/bench_perf_kernels" "$OUT_DIR/BENCH_kernels.json"
run_bench speedup "$BUILD_DIR/bench_perf_speedup" "$OUT_DIR/BENCH_speedup.json"
# End-to-end NN training-step throughput (surrogate-training hot loop),
# sliced out of bench_perf_kernels so the perf trajectory tracks it as its
# own series.
run_bench train_throughput "$BUILD_DIR/bench_perf_kernels" \
  "$OUT_DIR/BENCH_train_throughput.json" "TrainStep"

# Dataset-generation throughput: workers=1 vs workers=nproc (median of 5
# alternating runs each) and a 2-shard+merge run (patterns/s + byte-identity
# checks). A plain main (not google-benchmark); MAPS_BENCH_PATTERNS scales
# the run.
if [[ -x "$BUILD_DIR/bench_datagen_throughput" ]]; then
  echo "[run_benches] datagen_throughput -> $OUT_DIR/BENCH_datagen_throughput.json"
  "$BUILD_DIR/bench_datagen_throughput" "$OUT_DIR/BENCH_datagen_throughput.json"
else
  echo "[run_benches] skip datagen_throughput: binary not built" >&2
fi

echo "[run_benches] done"
