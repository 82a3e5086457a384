// Experiment F12 — cross-shard transactions (src/txn/): 2PC commit latency
// and abort rate as a function of contention, transaction size and shard
// spread.
//
// Three measurements:
//  * contention sweep: a YCSB+T-style bank-transfer mix where the account
//    pair is drawn zipfian(θ). The no-wait conflict rule never blocks, so
//    rising θ shows up as a rising abort rate — never as lock-wait latency
//    or a stuck run. Σ balances stays 0 and no locks leak at every point.
//  * transaction-size sweep: 2-, 3- and 4-account transfers at fixed θ.
//    Each extra account adds one prepare + one decision record, so commit
//    latency grows linearly and the conflict footprint superlinearly.
//  * cross-shard vs single-shard control: the same transfer mix with every
//    account on one shard (2PC over one log) vs spread over three. The gap
//    is the price of crossing shards; the single-shard row is the control
//    proving the overhead is coordination, not the record codec.
//
// Wall-clock guard rows (google-benchmark → BENCH_txn.json, compared by
// scripts/bench.sh / CI): abort_rate + txn commit p50/p999 + ops_per_kdelay
// attached as counters. The theta0/95/99 trio pins abort_rate rising with
// contention; the pure/plain pair pins overhead — every record of an
// uncontended transfer is an ordinary logged command, so an all-transfer
// run's ops_per_kdelay must stay within 15% of the txn-free control (the
// mixed rows can't carry that check: a closed-loop mix is bound by
// whichever client drew the most multi-hop transfer slots).

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

ClusterConfig txn_config(std::size_t shards, std::size_t clients,
                         std::size_t ops, double fraction, double theta,
                         std::size_t txn_accounts = 2,
                         std::size_t accounts = 256) {
  ClusterConfig c;
  c.algo = Algorithm::kFastPaxos;
  c.n = 3;
  c.m = 0;
  c.kv.enabled = true;
  c.kv.shards = shards;
  c.kv.clients = clients;
  c.kv.ops_per_client = ops;
  c.kv.mix = kv::Mix::kA;
  c.kv.dist = kv::KeyDist::kUniform;
  c.kv.keys = 256;
  // Same bounded pipeline as bench_kv: one group absorbs window × batch
  // in-flight commands, so prepare/decision records queue like any write.
  c.kv.window = 4;
  c.kv.batch = 4;
  c.kv.txn_fraction = fraction;
  c.kv.txn_accounts = txn_accounts;
  c.kv.accounts = accounts;
  c.kv.txn_zipf_theta = theta;
  c.horizon = 400000;
  return c;
}

double abort_rate(const RunReport& r) {
  return r.kv_txns == 0 ? 0.0
                        : static_cast<double>(r.kv_txn_aborts) /
                              static_cast<double>(r.kv_txns);
}

void contention_sweep() {
  std::printf("\n== F12: abort rate vs account contention (zipfian θ, "
              "3 shards,\n 32 clients x 8 ops, 40%% transfer mix, 256 "
              "accounts) ==\n");
  Table t({"theta", "txns", "commits", "aborts", "abort%", "conflicts",
           "commit p50", "commit p999", "ops/kdelay"});
  for (const double theta : {0.0, 0.5, 0.8, 0.95, 0.99}) {
    const RunReport r = run_cluster(txn_config(3, 32, 8, 0.4, theta));
    if (!r.all_ok()) {
      std::printf("  !! run failed: %s\n", r.summary().c_str());
      continue;
    }
    char th[16], ab[16], rate[32];
    std::snprintf(th, sizeof(th), "%.2f", theta);
    std::snprintf(ab, sizeof(ab), "%.1f", 100.0 * abort_rate(r));
    std::snprintf(rate, sizeof(rate), "%.0f", r.kv_ops_per_kdelay);
    t.row({th, std::to_string(r.kv_txns), std::to_string(r.kv_txn_commits),
           std::to_string(r.kv_txn_aborts), ab,
           std::to_string(r.kv_txn_conflicts),
           std::to_string(r.kv_txn_commit_p50),
           std::to_string(r.kv_txn_commit_p999), rate});
  }
  t.print();
  std::printf("(the no-wait rule turns contention into immediate aborts —\n"
              " abort%% climbs with θ while Σ balances stays 0 and no locks "
              "leak)\n");
}

void size_sweep() {
  std::printf("\n== F12b: transaction size (accounts touched per transfer, "
              "θ=0.8) ==\n");
  Table t({"accounts/txn", "txns", "commits", "abort%", "commit p50",
           "commit p999", "ops/kdelay"});
  for (const std::size_t k :
       {std::size_t{2}, std::size_t{3}, std::size_t{4}}) {
    const RunReport r = run_cluster(txn_config(3, 32, 8, 0.4, 0.8, k));
    if (!r.all_ok()) {
      std::printf("  !! run failed: %s\n", r.summary().c_str());
      continue;
    }
    char ab[16], rate[32];
    std::snprintf(ab, sizeof(ab), "%.1f", 100.0 * abort_rate(r));
    std::snprintf(rate, sizeof(rate), "%.0f", r.kv_ops_per_kdelay);
    t.row({std::to_string(k), std::to_string(r.kv_txns),
           std::to_string(r.kv_txn_commits), ab,
           std::to_string(r.kv_txn_commit_p50),
           std::to_string(r.kv_txn_commit_p999), rate});
  }
  t.print();
  std::printf("(each extra account is one more prepare + decision on the\n"
              " critical path: latency grows linearly, conflicts faster)\n");
}

void shard_spread_control() {
  std::printf("\n== F12c: cross-shard vs single-shard control (same transfer "
              "mix) ==\n");
  Table t({"shards", "theta", "txns", "abort%", "commit p50", "commit p999",
           "ops/kdelay"});
  for (const std::size_t shards : {std::size_t{1}, std::size_t{3}}) {
    for (const double theta : {0.0, 0.95}) {
      const RunReport r = run_cluster(txn_config(shards, 32, 8, 0.4, theta));
      if (!r.all_ok()) {
        std::printf("  !! run failed: %s\n", r.summary().c_str());
        continue;
      }
      char th[16], ab[16], rate[32];
      std::snprintf(th, sizeof(th), "%.2f", theta);
      std::snprintf(ab, sizeof(ab), "%.1f", 100.0 * abort_rate(r));
      std::snprintf(rate, sizeof(rate), "%.0f", r.kv_ops_per_kdelay);
      t.row({std::to_string(shards), th, std::to_string(r.kv_txns), ab,
             std::to_string(r.kv_txn_commit_p50),
             std::to_string(r.kv_txn_commit_p999), rate});
    }
  }
  t.print();
  std::printf("(with one shard both phases ride a single log — the s3 rows\n"
              " price the extra cross-log coordination, nothing else)\n");
}

void bm_txn(benchmark::State& state, std::size_t shards, double fraction,
            double theta, std::size_t txn_accounts) {
  std::uint64_t seed = 1;
  std::uint64_t completed = 0, txns = 0, aborts = 0;
  double ops_per_kdelay = 0.0;
  sim::Time commit_p50 = 0, commit_p999 = 0;
  std::uint64_t iters = 0;
  for (auto _ : state) {
    ClusterConfig c = txn_config(shards, 32, 8, fraction, theta, txn_accounts);
    c.seed = seed++;
    const RunReport r = run_cluster(c);
    if (!r.all_ok()) {
      state.SkipWithError("txn run failed");
      break;  // SkipWithError does not exit the range-for by itself
    }
    completed += r.kv_ops;
    txns += r.kv_txns;
    aborts += r.kv_txn_aborts;
    ops_per_kdelay += r.kv_ops_per_kdelay;
    commit_p50 += r.kv_txn_commit_p50;
    commit_p999 += r.kv_txn_commit_p999;
    ++iters;
    benchmark::DoNotOptimize(r);
  }
  // items/sec == completed client ops (transfer records included) per
  // wall-clock second.
  state.SetItemsProcessed(static_cast<std::int64_t>(completed));
  if (iters > 0) {
    const double d = static_cast<double>(iters);
    state.counters["ops_per_kdelay"] = ops_per_kdelay / d;
    state.counters["txns"] = static_cast<double>(txns) / d;
    state.counters["abort_rate"] =
        txns == 0 ? 0.0 : static_cast<double>(aborts) / static_cast<double>(txns);
    state.counters["txn_p50"] = static_cast<double>(commit_p50) / d;
    state.counters["txn_p999"] = static_cast<double>(commit_p999) / d;
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::printf("bench_txn: cross-shard 2PC transactions over the sharded KV\n");
  contention_sweep();
  size_sweep();
  shard_spread_control();

  // Baseline-compared guards (scripts/bench.sh → BENCH_txn.json). The
  // theta0/theta95/theta99 trio carries the contention acceptance:
  // abort_rate must rise with θ. The theta0/plain pair carries the overhead
  // acceptance: ops_per_kdelay within 15% of the txn-free control.
  benchmark::RegisterBenchmark("txn/FastPaxos_s3_theta0", bm_txn, 3, 0.4, 0.0,
                               2)
      ->Unit(benchmark::kMillisecond)
      ->Iterations(kGuardSeeds);
  benchmark::RegisterBenchmark("txn/FastPaxos_s3_theta95", bm_txn, 3, 0.4,
                               0.95, 2)
      ->Unit(benchmark::kMillisecond)
      ->Iterations(kGuardSeeds);
  benchmark::RegisterBenchmark("txn/FastPaxos_s3_theta99", bm_txn, 3, 0.4,
                               0.99, 2)
      ->Unit(benchmark::kMillisecond)
      ->Iterations(kGuardSeeds);
  // Four-account transfers: double the records per transaction.
  benchmark::RegisterBenchmark("txn/FastPaxos_s3_size4", bm_txn, 3, 0.4, 0.8,
                               4)
      ->Unit(benchmark::kMillisecond)
      ->Iterations(kGuardSeeds);
  // Single-shard control: 2PC over one replicated log.
  benchmark::RegisterBenchmark("txn/FastPaxos_s1_control", bm_txn, 1, 0.4,
                               0.0, 2)
      ->Unit(benchmark::kMillisecond)
      ->Iterations(kGuardSeeds);
  // The overhead acceptance pair: every slot a transfer vs no transfers at
  // all, same fleet/shards/pipeline. Both rows count one op per logged
  // command (reads included), so their ops_per_kdelay must agree within
  // 15% — the 2PC machinery adds records, not per-record cost.
  benchmark::RegisterBenchmark("txn/FastPaxos_s3_pure", bm_txn, 3, 1.0, 0.0,
                               2)
      ->Unit(benchmark::kMillisecond)
      ->Iterations(kGuardSeeds);
  benchmark::RegisterBenchmark("txn/FastPaxos_s3_plain", bm_txn, 3, 0.0, 0.0,
                               2)
      ->Unit(benchmark::kMillisecond)
      ->Iterations(kGuardSeeds);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
