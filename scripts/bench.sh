#!/usr/bin/env bash
# Build the bench preset and run the wall-clock benchmarks.
#
# Three targets, each writing google-benchmark JSON:
#   * bench_smr_throughput — whole single-shot consensus instances per second
#     per algorithm → BENCH_smr_throughput.json
#   * bench_hotpath        — per-layer cost floor (executor, channel,
#     broadcast fan-out, buffer sharing, shard routing) → BENCH_hotpath.json
#   * bench_nonequiv       — the cost of simulating non-equivocating
#     broadcast → build-bench/BENCH_nonequiv.json (full run only)
#
# Nothing here is compared by tolerance, and CI compares none of it:
# wall-clock rates measure the machine as much as the code. Compare them by
# hand, on a quiet machine, against a checked-in baseline whose "recorded"
# block names the same build type and CPU count. Every virtual-time number
# (throughput per 1000 delays, latency percentiles, catch-up bytes, abort
# rates, messages, memory ops, signatures) is an exact tier-1 assertion
# instead: tests/perf_guards_test.cpp, the determinism suite and the tests
# that own the paper's claims.
#
#   ./scripts/bench.sh            # all three targets
#   ./scripts/bench.sh --quick    # bench_smr_throughput and bench_hotpath
#   git diff --stat BENCH_hotpath.json BENCH_smr_throughput.json
#
# BENCH_MIN_TIME overrides google-benchmark's --benchmark_min_time (default
# 0.5).

set -euo pipefail
cd "$(dirname "$0")/.."

QUICK=0
for arg in "$@"; do
  case "$arg" in
    --quick) QUICK=1 ;;
    *)
      echo "usage: $0 [--quick]" >&2
      exit 2
      ;;
  esac
done

cmake --preset bench
cmake --build --preset bench -j"$(nproc)"

MIN_TIME="${BENCH_MIN_TIME:-0.5}"

./build-bench/bench_smr_throughput \
  --benchmark_out=BENCH_smr_throughput.json --benchmark_out_format=json \
  --benchmark_min_time="${MIN_TIME}"
./build-bench/bench_hotpath \
  --benchmark_out=BENCH_hotpath.json --benchmark_out_format=json \
  --benchmark_min_time="${MIN_TIME}"

if [[ "${QUICK}" -eq 0 ]]; then
  ./build-bench/bench_nonequiv \
    --benchmark_out=build-bench/BENCH_nonequiv.json --benchmark_out_format=json \
    --benchmark_min_time="${MIN_TIME}"
fi

echo "Wrote BENCH_smr_throughput.json and BENCH_hotpath.json"
