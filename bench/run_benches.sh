#!/usr/bin/env sh
# Runs the perf-trajectory benches and leaves their schema-stable JSON files
# at the repository root (or $TDC_BENCH_OUT_DIR):
#
#   BENCH_micro_codec.json        — encoder path comparison (reference
#                                   vs lzw::Encoder chars/sec, gain vs the
#                                   pinned pre-index baseline), encode per
#                                   tie-break policy (chars/sec, identical-
#                                   to-reference flag, gain vs the pinned
#                                   pre-slab baseline), decoder and cycle-
#                                   model decode rows (chars/sec, care-bit
#                                   coverage flag, gain vs the pinned
#                                   pre-decode-core baseline), .tests text
#                                   rows, per-character-class encode rows
#                                   (chars/sec, post-fill share, gain vs
#                                   the pinned pre-slab-order baseline) +
#                                   google-benchmark micro numbers on stdout
#   BENCH_engine_throughput.json  — batch-engine scaling at 1/2/4/8 worker
#                                   threads (wall time, jobs/sec, MB/sec,
#                                   speedup vs 1 thread) plus the last
#                                   run's metrics snapshot
#
# Usage: bench/run_benches.sh [build-dir]
#   build-dir defaults to ./build (must already be configured+built, e.g.
#   `cmake -B build -S . -DCMAKE_BUILD_TYPE=Release && cmake --build build`).
#
# Environment:
#   TDC_BENCH_OUT_DIR   where the JSON files land (default: repo root)
#   TDC_BENCH_BITS      micro_codec corpus size in bits (default 32768;
#                       smaller values mark the gain-vs-baseline null)
#   TDC_BENCH_FILTER    google-benchmark --benchmark_filter for micro_codec
#                       (default NONE: only the path comparison runs; CI's
#                       perf-smoke profile keeps it NONE for speed)
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
build_dir=${1:-"$repo_root/build"}
out_dir=${TDC_BENCH_OUT_DIR:-"$repo_root"}
filter=${TDC_BENCH_FILTER:-NONE}

for bin in "$build_dir/bench/micro_codec" "$build_dir/bench/engine_throughput"; do
  if [ ! -x "$bin" ]; then
    echo "run_benches: missing $bin — build the 'bench' targets first" >&2
    echo "  cmake --build $build_dir --target micro_codec engine_throughput" >&2
    exit 1
  fi
done

echo "== micro_codec =="
TDC_BENCH_JSON="$out_dir/BENCH_micro_codec.json" \
  "$build_dir/bench/micro_codec" --benchmark_filter="$filter"

echo ""
echo "== engine_throughput =="
TDC_BENCH_JSON="$out_dir/BENCH_engine_throughput.json" \
  "$build_dir/bench/engine_throughput"

echo ""
echo "Bench JSON written to:"
echo "  $out_dir/BENCH_micro_codec.json"
echo "  $out_dir/BENCH_engine_throughput.json"
