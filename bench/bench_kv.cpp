// Experiment F10 — sharded KV store throughput (the tentpole measurement
// for kv/): aggregate client ops/sec as a function of shard count, workload
// mix and backing engine.
//
// Three measurements:
//  * virtual-time scaling table: ops per 1000 sim-time units across a
//    (shards × YCSB mix) grid with a fixed closed-loop client fleet. Each
//    consensus group's pipeline is bounded (window × batch in-flight
//    commands — the real-world constraint sharding exists to beat), so
//    aggregate throughput grows with the shard count until the clients
//    bind. The read-heavy column is the headline: ≥3× from 1 → 8 shards.
//  * engine matrix: the same workload over every engine family (message,
//    memory, Byzantine) at a fixed shard count — any of the seven protocols
//    backs a shard through the same kv::Router.
//  * wall-clock guard rows (google-benchmark → BENCH_kv.json, compared by
//    scripts/bench.sh): whole-cluster runs/sec with ops/kdelay +
//    commit/op-latency tail percentiles attached as counters, so the JSON
//    itself evidences the scaling and the p999 tails.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>

#include "src/harness/cluster.hpp"
#include "src/harness/table.hpp"

using namespace mnm;
using namespace mnm::harness;

namespace {

/// Every guard row runs seeds 1..kGuardSeeds: its counters are means over
/// the same runs on every machine, however fast the wall clock goes.
constexpr benchmark::IterationCount kGuardSeeds = 16;

ClusterConfig kv_config(Algorithm algo, std::size_t n, std::size_t m,
                        std::size_t shards, std::size_t clients,
                        std::size_t ops, kv::Mix mix, bool sign = false) {
  ClusterConfig c;
  c.algo = algo;
  c.n = n;
  c.m = m;
  c.kv.enabled = true;
  c.kv.shards = shards;
  c.kv.clients = clients;
  c.kv.ops_per_client = ops;
  c.kv.mix = mix;
  c.kv.dist = kv::KeyDist::kUniform;
  c.kv.keys = 256;
  // Bounded per-group pipeline: one group absorbs at most window × batch
  // in-flight commands, so the client fleet saturates a single shard and
  // sharding shows up as aggregate throughput.
  c.kv.window = 4;
  c.kv.batch = 4;
  // Signed rows: every client op carries an HMAC signature and every
  // replica verifies before apply — the _signed guard rows pin that cost
  // (expected small: one MAC sign per op, one verify per replica apply).
  c.kv.sign_commands = sign;
  c.horizon = 400000;
  return c;
}

void shard_scaling_grid() {
  std::printf("\n== F10: aggregate ops vs shards x mix (Fast Paxos engine, "
              "n=3, 64 clients x 8 ops, window=4, batch=4) ==\n");
  Table t({"shards", "mix", "ops", "ops/kdelay", "op p50", "op p99", "op p999",
           "commit p50", "commit p99"});
  for (const std::size_t shards :
       {std::size_t{1}, std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
    for (const kv::Mix mix : {kv::Mix::kA, kv::Mix::kB, kv::Mix::kC}) {
      const RunReport r = run_cluster(
          kv_config(Algorithm::kFastPaxos, 3, 0, shards, 64, 8, mix));
      if (!r.all_ok()) {
        std::printf("  !! run failed: %s\n", r.summary().c_str());
        continue;
      }
      char rate[32];
      std::snprintf(rate, sizeof(rate), "%.0f", r.kv_ops_per_kdelay);
      t.row({std::to_string(shards), kv::mix_name(mix),
             std::to_string(r.kv_ops), rate, std::to_string(r.kv_op_p50),
             std::to_string(r.kv_op_p99), std::to_string(r.kv_op_p999),
             std::to_string(r.commit_p50), std::to_string(r.commit_p99)});
    }
  }
  t.print();
  std::printf("(each group's in-flight pipeline is capped at window x batch "
              "= 16\n commands, so one shard bottlenecks the 64-client fleet; "
              "adding\n groups multiplies the aggregate commit rate until "
              "clients bind)\n");
}

void engine_matrix() {
  std::printf("\n== F10b: any engine backs any shard (mix A, "
              "zipfian keys) ==\n");
  struct Row {
    Algorithm algo;
    std::size_t n, m, shards, clients, ops;
  };
  const Row rows[] = {
      {Algorithm::kFastPaxos, 3, 0, 4, 16, 8},
      {Algorithm::kPaxos, 3, 0, 4, 16, 8},
      {Algorithm::kDiskPaxos, 2, 3, 2, 8, 4},
      {Algorithm::kProtectedMemoryPaxos, 2, 3, 2, 8, 4},
      {Algorithm::kAlignedPaxos, 3, 3, 2, 8, 4},
      {Algorithm::kFastRobust, 3, 3, 1, 2, 3},
  };
  Table t({"engine", "shards", "ops", "ops/kdelay", "op p50", "op p99",
           "dups", "fast slots"});
  for (const Row& row : rows) {
    ClusterConfig c = kv_config(row.algo, row.n, row.m, row.shards,
                                row.clients, row.ops, kv::Mix::kA);
    c.kv.dist = kv::KeyDist::kZipfian;
    const RunReport r = run_cluster(c);
    if (!r.all_ok()) {
      std::printf("  !! %s failed: %s\n", algorithm_name(row.algo),
                  r.summary().c_str());
      continue;
    }
    char rate[32];
    std::snprintf(rate, sizeof(rate), "%.0f", r.kv_ops_per_kdelay);
    t.row({algorithm_name(row.algo), std::to_string(row.shards),
           std::to_string(r.kv_ops), rate, std::to_string(r.kv_op_p50),
           std::to_string(r.kv_op_p99), std::to_string(r.kv_duplicates),
           std::to_string(r.fast_slots)});
  }
  t.print();
  std::printf("(one Router/Workload stack over message, memory and Byzantine\n"
              " engines alike — the ConsensusEngine seam doing its job)\n");
}

void bm_kv(benchmark::State& state, Algorithm algo, std::size_t n,
           std::size_t m, std::size_t shards, std::size_t clients,
           std::size_t ops, kv::Mix mix, bool sign = false) {
  std::uint64_t seed = 1;
  std::uint64_t completed = 0;
  double ops_per_kdelay = 0.0;
  sim::Time op_p50 = 0, op_p999 = 0, commit_p999 = 0;
  std::uint64_t iters = 0;
  for (auto _ : state) {
    ClusterConfig c = kv_config(algo, n, m, shards, clients, ops, mix, sign);
    c.seed = seed++;
    const RunReport r = run_cluster(c);
    if (!r.agreement || !r.termination) {
      state.SkipWithError(r.agreement ? "kv run did not terminate"
                                      : "kv agreement violated");
      break;  // SkipWithError does not exit the range-for by itself
    }
    completed += r.kv_ops;
    ops_per_kdelay += r.kv_ops_per_kdelay;
    op_p50 += r.kv_op_p50;
    op_p999 += r.kv_op_p999;
    commit_p999 += r.commit_p999;
    ++iters;
    benchmark::DoNotOptimize(r);
  }
  // items/sec == completed client ops per wall-clock second.
  state.SetItemsProcessed(static_cast<std::int64_t>(completed));
  if (iters > 0) {
    const double d = static_cast<double>(iters);
    // Virtual-time aggregate throughput: the shard-scaling headline the
    // checked-in JSON evidences (kv/..._s8_C vs kv/..._s1_C).
    state.counters["ops_per_kdelay"] = ops_per_kdelay / d;
    state.counters["op_p50"] = static_cast<double>(op_p50) / d;
    state.counters["op_p999"] = static_cast<double>(op_p999) / d;
    state.counters["commit_p999"] = static_cast<double>(commit_p999) / d;
  }
}

/// During-migration guard: the same fleet and mix as the static rows, but
/// the run doubles the shard count (a consensus-decided split with live key
/// migration) mid-workload. ops_per_kdelay is the whole-run aggregate —
/// seal/drain/install stalls included — so the baseline pins how much a
/// live reshard is allowed to cost.
void bm_kv_split(benchmark::State& state) {
  std::uint64_t seed = 1;
  std::uint64_t completed = 0, keys_moved = 0, bounces = 0;
  double ops_per_kdelay = 0.0;
  sim::Time op_p999 = 0;
  std::uint64_t iters = 0;
  for (auto _ : state) {
    ClusterConfig c = kv_config(Algorithm::kFastPaxos, 3, 0, /*shards=*/1,
                                /*clients=*/64, /*ops=*/8, kv::Mix::kA);
    c.seed = seed++;
    c.kv.dist = kv::KeyDist::kZipfian;
    c.kv.reconfig.push_back({/*at=*/40, reconfig::ChangeKind::kSplit, 0, 1});
    const RunReport r = run_cluster(c);
    if (!r.agreement || !r.termination || r.reconfig_migrations != 1) {
      state.SkipWithError("split run failed");
      break;
    }
    completed += r.kv_ops;
    ops_per_kdelay += r.kv_ops_per_kdelay;
    keys_moved += r.reconfig_keys_moved;
    bounces += r.reconfig_bounces;
    op_p999 += r.kv_op_p999;
    ++iters;
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(completed));
  if (iters > 0) {
    const double d = static_cast<double>(iters);
    state.counters["ops_per_kdelay"] = ops_per_kdelay / d;
    state.counters["keys_moved"] = static_cast<double>(keys_moved) / d;
    state.counters["bounces"] = static_cast<double>(bounces) / d;
    state.counters["op_p999"] = static_cast<double>(op_p999) / d;
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::printf("bench_kv: sharded replicated KV store throughput\n");
  shard_scaling_grid();
  engine_matrix();

  // Baseline-compared guards (scripts/bench.sh → BENCH_kv.json). The
  // s1_C/s8_C pair carries the scaling acceptance: ops_per_kdelay must grow
  // ≥3x from one shard to eight on the read-heavy mix.
  benchmark::RegisterBenchmark("kv/FastPaxos_s1_C", bm_kv,
                               Algorithm::kFastPaxos, 3, 0, 1, 64, 8,
                               kv::Mix::kC, false)
      ->Unit(benchmark::kMillisecond)
      ->Iterations(kGuardSeeds);
  benchmark::RegisterBenchmark("kv/FastPaxos_s8_C", bm_kv,
                               Algorithm::kFastPaxos, 3, 0, 8, 64, 8,
                               kv::Mix::kC, false)
      ->Unit(benchmark::kMillisecond)
      ->Iterations(kGuardSeeds);
  benchmark::RegisterBenchmark("kv/FastPaxos_s4_A", bm_kv,
                               Algorithm::kFastPaxos, 3, 0, 4, 64, 8,
                               kv::Mix::kA, false)
      ->Unit(benchmark::kMillisecond)
      ->Iterations(kGuardSeeds);
  benchmark::RegisterBenchmark("kv/PMP_s2_A", bm_kv,
                               Algorithm::kProtectedMemoryPaxos, 2, 3, 2, 8, 4,
                               kv::Mix::kA, false)
      ->Unit(benchmark::kMillisecond)
      ->Iterations(kGuardSeeds);
  benchmark::RegisterBenchmark("kv/FastRobust_s1_A", bm_kv,
                               Algorithm::kFastRobust, 3, 3, 1, 2, 3,
                               kv::Mix::kA, false)
      ->Unit(benchmark::kMillisecond)
      ->Iterations(kGuardSeeds);
  // Signed-vs-unsigned pair: identical workload to kv/FastPaxos_s4_A, but
  // every command carries a client HMAC and every replica apply verifies
  // it. The baseline pins the verification cost on the apply path (one
  // sign per op + one verify per replica apply — expected small).
  benchmark::RegisterBenchmark("kv/FastPaxos_s4_A_signed", bm_kv,
                               Algorithm::kFastPaxos, 3, 0, 4, 64, 8,
                               kv::Mix::kA, true)
      ->Unit(benchmark::kMillisecond)
      ->Iterations(kGuardSeeds);
  // During-migration row: a live 1→2 split (src/reconfig/) mid-workload.
  // Compare against kv/FastPaxos_s1_C for what the reshard costs while it
  // runs; bench_reconfig carries the full plan matrix.
  benchmark::RegisterBenchmark("kv/FastPaxos_split_1to2_A", bm_kv_split)
      ->Unit(benchmark::kMillisecond)
      ->Iterations(kGuardSeeds);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
