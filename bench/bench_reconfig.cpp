// Experiment F11 — dynamic reconfiguration under load (the tentpole
// measurement for src/reconfig/): what a consensus-decided reshard costs
// while a closed-loop client fleet keeps hammering the store.
//
// Two measurements:
//  * plan matrix: aggregate ops per 1000 sim-time units, op-latency tail,
//    keys migrated and WrongEpoch bounces for each reconfiguration shape —
//    a 1→2 split, the 4→8 doubling (four splits back to back), a 2→1
//    merge, and a split with the drain source's leader crashing mid-flight.
//    The static no-plan run of the same fleet is the control row.
//  * wall-clock guard rows (google-benchmark → BENCH_reconfig.json,
//    compared by scripts/bench_compare.py): the split/double/merge runs
//    with ops_per_kdelay + migration counters attached, so the checked-in
//    JSON evidences that live resharding keeps the store serving.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>
#include <vector>

#include "src/harness/cluster.hpp"
#include "src/harness/table.hpp"

using namespace mnm;
using namespace mnm::harness;

namespace {

/// Every guard row runs seeds 1..kGuardSeeds: its counters are means over
/// the same runs on every machine, however fast the wall clock goes.
constexpr benchmark::IterationCount kGuardSeeds = 16;

using reconfig::ChangeKind;

/// One reconfiguration scenario: a plan plus the shard count it starts at.
struct Plan {
  const char* label;
  std::size_t shards;
  std::vector<ReconfigAction> actions;
  ProcessId crash = 0;      // 0 = no fault
  sim::Time crash_at = 0;
};

ClusterConfig plan_config(const Plan& plan) {
  ClusterConfig c;
  c.algo = Algorithm::kFastPaxos;
  c.n = 3;
  c.m = 0;
  c.kv.enabled = true;
  c.kv.shards = plan.shards;
  c.kv.clients = 64;
  c.kv.ops_per_client = 8;
  c.kv.mix = kv::Mix::kA;
  c.kv.dist = kv::KeyDist::kZipfian;
  c.kv.keys = 256;
  c.kv.window = 4;
  c.kv.batch = 4;
  c.kv.reconfig = plan.actions;
  if (plan.crash != 0) {
    c.kv.retry_timeout = 24;
    c.faults.process_crashes[plan.crash] = plan.crash_at;
  }
  c.horizon = 400000;
  return c;
}

std::vector<Plan> plan_matrix() {
  std::vector<Plan> plans;
  plans.push_back({"static s1 (control)", 1, {}});
  plans.push_back({"split 1->2", 1, {{40, ChangeKind::kSplit, 0, 1}}});
  plans.push_back({"double 4->8",
                   4,
                   {{40, ChangeKind::kSplit, 0, 4},
                    {80, ChangeKind::kSplit, 1, 5},
                    {120, ChangeKind::kSplit, 2, 6},
                    {160, ChangeKind::kSplit, 3, 7}}});
  plans.push_back({"merge 2->1", 2, {{40, ChangeKind::kMerge, 1, 0}}});
  plans.push_back({"split + src-leader crash",
                   1,
                   {{40, ChangeKind::kSplit, 0, 1}},
                   /*crash=*/1,
                   /*crash_at=*/46});
  return plans;
}

void plan_table() {
  std::printf("\n== F11: resharding under load (Fast Paxos, n=3, 64 clients "
              "x 8 ops, mix A, zipfian) ==\n");
  Table t({"plan", "ops", "ops/kdelay", "op p50", "op p999", "epoch",
           "keys moved", "bounces", "flips at"});
  for (const Plan& plan : plan_matrix()) {
    const RunReport r = run_cluster(plan_config(plan));
    if (!r.all_ok()) {
      std::printf("  !! %s failed: %s\n", plan.label, r.summary().c_str());
      continue;
    }
    char rate[32];
    std::snprintf(rate, sizeof(rate), "%.0f", r.kv_ops_per_kdelay);
    std::string flips;
    for (const sim::Time f : r.reconfig_flip_times) {
      if (!flips.empty()) flips += ',';
      flips += std::to_string(f);
    }
    t.row({plan.label, std::to_string(r.kv_ops), rate,
           std::to_string(r.kv_op_p50), std::to_string(r.kv_op_p999),
           std::to_string(r.reconfig_epoch),
           std::to_string(r.reconfig_keys_moved),
           std::to_string(r.reconfig_bounces), flips.empty() ? "-" : flips});
  }
  t.print();
  std::printf("(each flip is one consensus-decided ConfigChange; between the\n"
              " seal and the install, ops on moving buckets bounce with\n"
              " WrongEpoch and re-route — the p999 column carries that stall)\n");
}

void bm_plan(benchmark::State& state, const Plan& plan) {
  std::uint64_t seed = 1;
  std::uint64_t completed = 0, keys_moved = 0, bounces = 0;
  double ops_per_kdelay = 0.0;
  sim::Time op_p999 = 0;
  std::uint64_t iters = 0;
  for (auto _ : state) {
    ClusterConfig c = plan_config(plan);
    c.seed = seed++;
    const RunReport r = run_cluster(c);
    if (!r.agreement || !r.termination ||
        r.reconfig_migrations != plan.actions.size()) {
      state.SkipWithError("reconfig run failed");
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
  std::printf("bench_reconfig: live resharding under load\n");
  plan_table();

  // Baseline-compared guards (scripts/bench.sh → BENCH_reconfig.json). The
  // static control row shares the fleet with split_1to2, so the pair pins
  // the allowed throughput cost of a live reshard.
  const std::vector<Plan> plans = plan_matrix();
  for (const Plan& plan : plans) {
    if (plan.crash != 0) continue;  // fault runs stay table-only: the crash
                                    // dominates the counters, not the reshard
    std::string name = "reconfig/";
    name += plan.label[0] == 's' && plan.actions.empty() ? "static_s1"
            : plan.actions.size() == 4                   ? "double_4to8"
            : plan.actions[0].kind == ChangeKind::kMerge ? "merge_2to1"
                                                         : "split_1to2";
    benchmark::RegisterBenchmark(name.c_str(), bm_plan, plan)
        ->Unit(benchmark::kMillisecond)
        ->Iterations(kGuardSeeds);
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
