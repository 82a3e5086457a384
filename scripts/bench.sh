#!/usr/bin/env bash
# Build the bench preset and run the benchmark suite.
#
# Seven baseline-compared regression guards always run and write
# machine-readable JSON at the repo root (compare against the checked-in
# baselines to detect regressions):
#   * bench_smr_throughput — end-to-end consensus instances/sec per algorithm
#     → BENCH_smr_throughput.json
#   * bench_hotpath        — per-layer cost floor (executor, channel, fan-out)
#     → BENCH_hotpath.json
#   * bench_log_pipeline   — pipelined smr::Log committed commands/sec vs
#     window/batch → BENCH_log_pipeline.json
#   * bench_kv             — sharded KV aggregate ops/sec vs shards × mix ×
#     engine (the kv/..._s8_C : kv/..._s1_C ops_per_kdelay ratio is the
#     shard-scaling evidence; the kv/FastPaxos_s4_A_signed row runs the
#     same workload with client-signed commands — its ops_per_kdelay must
#     match the unsigned row, since the HMAC cost is wall-clock-only and
#     must never perturb the virtual-time schedule) → BENCH_kv.json
#   * bench_recovery       — crash-and-rejoin: snapshot cadence, log
#     compaction and peer catch-up cost (the rejoin rows' cmds_per_kdelay
#     matching the no-fault row is the recovery-doesn't-stall-survivors
#     evidence) → BENCH_recovery.json
#   * bench_reconfig       — live resharding under load: split/double/merge
#     plans vs the static control row (ops_per_kdelay with the migration
#     stall included, plus keys_moved/bounces counters)
#     → BENCH_reconfig.json
#   * bench_txn            — cross-shard 2PC transactions: abort_rate vs
#     zipfian contention (the theta0/95/99 trio must rise), txn commit
#     p50/p999, and the pure/plain pair whose ops_per_kdelay must agree
#     within 15% (the 2PC machinery adds records, not per-record cost)
#     → BENCH_txn.json
#
# A full run (the default) additionally executes the eighth target,
# bench_nonequiv — the wall-clock cost of simulating non-equivocating
# broadcast — writing its google-benchmark JSON under build-bench/. The
# paper's own numbers (delays, resilience bounds, signatures) are tier-1
# assertions in tests/, not benches.
#
#   ./scripts/bench.sh            # full sweep: all eight bench targets
#   ./scripts/bench.sh --quick    # just the seven baseline-compared guards
#   git diff --stat BENCH_hotpath.json BENCH_smr_throughput.json \
#                   BENCH_log_pipeline.json BENCH_kv.json BENCH_recovery.json \
#                   BENCH_reconfig.json BENCH_txn.json
#
# BENCH_MIN_TIME overrides google-benchmark's --benchmark_min_time (default
# 0.5; CI smoke uses 0.01).

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

# --benchmark_out keeps the JSON clean even though bench_smr_throughput also
# prints its per-instance cost table to stdout.
./build-bench/bench_smr_throughput \
  --benchmark_out=BENCH_smr_throughput.json --benchmark_out_format=json \
  --benchmark_min_time="${MIN_TIME}"
./build-bench/bench_hotpath \
  --benchmark_out=BENCH_hotpath.json --benchmark_out_format=json \
  --benchmark_min_time="${MIN_TIME}"
./build-bench/bench_log_pipeline \
  --benchmark_out=BENCH_log_pipeline.json --benchmark_out_format=json \
  --benchmark_min_time="${MIN_TIME}"
./build-bench/bench_kv \
  --benchmark_out=BENCH_kv.json --benchmark_out_format=json \
  --benchmark_min_time="${MIN_TIME}"
./build-bench/bench_recovery \
  --benchmark_out=BENCH_recovery.json --benchmark_out_format=json \
  --benchmark_min_time="${MIN_TIME}"
./build-bench/bench_reconfig \
  --benchmark_out=BENCH_reconfig.json --benchmark_out_format=json \
  --benchmark_min_time="${MIN_TIME}"
./build-bench/bench_txn \
  --benchmark_out=BENCH_txn.json --benchmark_out_format=json \
  --benchmark_min_time="${MIN_TIME}"

if [[ "${QUICK}" -eq 0 ]]; then
  ./build-bench/bench_nonequiv \
    --benchmark_out=build-bench/BENCH_nonequiv.json --benchmark_out_format=json \
    --benchmark_min_time="${MIN_TIME}"
fi

echo "Wrote BENCH_smr_throughput.json, BENCH_hotpath.json, BENCH_log_pipeline.json, BENCH_kv.json, BENCH_recovery.json, BENCH_reconfig.json and BENCH_txn.json"
