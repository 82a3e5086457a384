// Experiment F11 — crash-and-rejoin recovery: snapshot cadence, log
// compaction and peer catch-up (the robustness tentpole for smr::Log).
//
// Three measurements:
//  * cadence sweep: snapshots taken/installed, slots truncated, catch-up
//    bytes and the rejoiner's convergence delay as functions of
//    smr.snapshot_interval under a fixed crash/rejoin schedule. The rejoin
//    lands mid-run: one answered round installs a peer's snapshot plus the
//    suffix above it, and the rejoiner then applies the live decisions. A
//    sparser cadence ships an older snapshot with a longer suffix, so the
//    bytes barely move with the knob.
//  * rejoin-time sweep: the bytes are one snapshot of the state the group
//    had applied by the rejoin, so they grow with the rejoin time, and the
//    convergence delay is the rest of the run; a post-drain rejoin
//    converges instantly off one snapshot plus a bounded suffix.
//  * wall-clock guard rows (google-benchmark → BENCH_recovery.json,
//    compared by scripts/bench.sh): whole-cluster crash-and-rejoin runs
//    with the machine-independent throughput counter (cmds/ops per kdelay)
//    bench_compare.py keys on, plus the recovery counters attached so the
//    JSON itself evidences that rejoins really happened (snaps_installed,
//    truncated, catchup_bytes > 0) and what they cost (converge_delay).

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

ClusterConfig smr_rejoin_config(std::size_t interval, sim::Time crash_at,
                                sim::Time rejoin_at) {
  ClusterConfig c;
  c.algo = Algorithm::kFastPaxos;
  c.n = 3;
  c.m = 0;
  c.smr.enabled = true;
  // Enough backlog that the cluster is still committing when the rejoiner
  // returns — a mid-run rejoin exercises live catch-up (snapshot install +
  // suffix replay while survivors keep deciding), not a post-drain replay.
  c.smr.commands = 512;
  c.smr.batch = 2;
  c.smr.window = 4;
  c.smr.snapshot_interval = interval;
  // Crash-and-rejoin a FOLLOWER: the leader keeps committing throughout, so
  // the rejoiner catches up against a moving target and the run's
  // throughput stays comparable to the no-fault row. (A rejoining lowest-id
  // process instead reclaims leadership with an empty queue, which ends the
  // harness's leader-drain workload early — a different scenario, pinned by
  // the cluster tests.)
  if (crash_at != sim::kTimeInfinity) {
    c.faults.process_crashes[3] = crash_at;
    c.faults.process_rejoins[3] = rejoin_at;
  }
  return c;
}

/// Virtual time at which the last correct replica applied its final slot —
/// the run's drain time, taken across survivors and the rejoiner alike.
sim::Time drain_time(const RunReport& r) {
  sim::Time last = 0;
  for (const auto& row : r.processes) {
    if (!row.byzantine && row.decided) last = std::max(last, row.decided_at);
  }
  return last;
}

/// Rejoiner's catch-up cost in virtual time: last apply of the new
/// incarnation minus the rejoin instant (0 when it rejoined after the
/// workload drained and converged instantly off one snapshot).
sim::Time converge_delay(const RunReport& r, ProcessId p) {
  for (const auto& row : r.processes) {
    if (row.id != p || row.rejoined_at == sim::kTimeInfinity) continue;
    return row.decided_at > row.rejoined_at ? row.decided_at - row.rejoined_at
                                            : 0;
  }
  return 0;
}

void cadence_sweep() {
  std::printf("\n== F11: recovery cost vs snapshot cadence (Fast Paxos n=3, "
              "512 cmds, crash p3@6, rejoin mid-run @60) ==\n");
  Table t({"interval", "snaps taken", "installed", "slots truncated",
           "catchup bytes", "converge delay", "agreement"});
  for (const std::size_t interval :
       {std::size_t{2}, std::size_t{4}, std::size_t{8}, std::size_t{16}}) {
    const RunReport r = run_cluster(smr_rejoin_config(interval, 6, 60));
    if (!r.all_ok()) {
      std::printf("  !! run failed: %s\n", r.summary().c_str());
      continue;
    }
    t.row({std::to_string(interval), std::to_string(r.snapshots_taken),
           std::to_string(r.snapshots_installed),
           std::to_string(r.slots_truncated), std::to_string(r.catchup_bytes),
           std::to_string(converge_delay(r, 3)),
           r.agreement ? "yes" : "NO"});
  }
  t.print();
  std::printf("(one answered round installs a snapshot plus the suffix\n"
              " above it, then the rejoiner applies the live decisions: a\n"
              " sparser cadence ships an older snapshot and a longer suffix,\n"
              " about the same bytes; every row converges — the rejoiner's\n"
              " log equals the survivors' wherever the boundary fell)\n");
}

void rejoin_time_sweep() {
  std::printf("\n== F11b: catch-up cost vs rejoin time (interval 4, "
              "crash p3@6) ==\n");
  Table t({"rejoin at", "installed", "slots truncated", "catchup bytes",
           "converge delay", "agreement"});
  for (const sim::Time rejoin_at :
       {sim::Time{30}, sim::Time{60}, sim::Time{120}, sim::Time{400}}) {
    const RunReport r = run_cluster(smr_rejoin_config(4, 6, rejoin_at));
    if (!r.all_ok()) {
      std::printf("  !! run failed: %s\n", r.summary().c_str());
      continue;
    }
    t.row({std::to_string(rejoin_at), std::to_string(r.snapshots_installed),
           std::to_string(r.slots_truncated), std::to_string(r.catchup_bytes),
           std::to_string(converge_delay(r, 3)),
           r.agreement ? "yes" : "NO"});
  }
  t.print();
  std::printf("(the bytes are one snapshot of what the group applied by\n"
              " the rejoin, so an early rejoin is the cheapest; the converge\n"
              " delay is the rest of the run, and a post-drain rejoin\n"
              " converges instantly off one snapshot plus a bounded replay,\n"
              " never per-slot consensus re-runs)\n");
}

void bm_smr_recovery(benchmark::State& state, std::size_t interval,
                     sim::Time crash_at, sim::Time rejoin_at) {
  std::uint64_t seed = 1;
  std::uint64_t committed = 0, installed = 0, truncated = 0, bytes = 0;
  sim::Time converge_sum = 0;
  double kdelay_sum = 0.0;
  std::uint64_t iters = 0;
  for (auto _ : state) {
    ClusterConfig c = smr_rejoin_config(interval, crash_at, rejoin_at);
    c.seed = seed++;
    const RunReport r = run_cluster(c);
    if (!r.agreement || !r.termination) {
      state.SkipWithError(r.agreement ? "run did not terminate"
                                      : "agreement violated");
      break;  // SkipWithError does not exit the range-for by itself
    }
    committed += r.commands_applied;
    installed += r.snapshots_installed;
    truncated += r.slots_truncated;
    bytes += r.catchup_bytes;
    converge_sum += converge_delay(r, 3);
    const sim::Time drained = drain_time(r);
    if (drained > 0) {
      kdelay_sum += 1000.0 * static_cast<double>(r.commands_applied) /
                    static_cast<double>(drained);
    }
    ++iters;
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(committed));
  if (iters > 0) {
    const double d = static_cast<double>(iters);
    // The machine-independent throughput bench_compare.py guards: a recovery
    // path that stalls the survivors' pipeline shows up here.
    state.counters["cmds_per_kdelay"] = kdelay_sum / d;
    // Evidence counters: rejoins really happened, and what they cost.
    state.counters["snaps_installed"] = static_cast<double>(installed) / d;
    state.counters["slots_truncated"] = static_cast<double>(truncated) / d;
    state.counters["catchup_bytes"] = static_cast<double>(bytes) / d;
    state.counters["converge_delay"] = static_cast<double>(converge_sum) / d;
  }
}

void bm_kv_recovery(benchmark::State& state, std::size_t interval) {
  std::uint64_t seed = 1;
  std::uint64_t completed = 0, installed = 0, bytes = 0;
  double kdelay_sum = 0.0;
  std::uint64_t iters = 0;
  for (auto _ : state) {
    ClusterConfig c;
    c.algo = Algorithm::kFastPaxos;
    c.n = 3;
    c.m = 0;
    c.seed = seed++;
    c.kv.enabled = true;
    c.kv.shards = 2;
    c.kv.clients = 6;
    c.kv.ops_per_client = 8;
    c.kv.batch = 1;
    c.kv.window = 2;
    c.kv.retry_timeout = 24;
    c.kv.snapshot_interval = interval;
    c.faults.process_crashes[1] = 7;
    c.faults.process_rejoins[1] = 600;
    const RunReport r = run_cluster(c);
    if (!r.agreement || !r.termination) {
      state.SkipWithError(r.agreement ? "kv run did not terminate"
                                      : "kv agreement violated");
      break;
    }
    completed += r.kv_ops;
    installed += r.snapshots_installed;
    bytes += r.catchup_bytes;
    kdelay_sum += r.kv_ops_per_kdelay;
    ++iters;
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(completed));
  if (iters > 0) {
    const double d = static_cast<double>(iters);
    state.counters["ops_per_kdelay"] = kdelay_sum / d;
    state.counters["snaps_installed"] = static_cast<double>(installed) / d;
    state.counters["catchup_bytes"] = static_cast<double>(bytes) / d;
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::printf("bench_recovery: crash-and-rejoin snapshots, compaction and "
              "peer catch-up\n");
  cadence_sweep();
  rejoin_time_sweep();

  // Baseline-compared guards (scripts/bench.sh → BENCH_recovery.json).
  // The compact_noRejoin/i4_rejoin pair isolates recovery cost: identical
  // workload and cadence, with and without a crash-and-rejoin in the run.
  benchmark::RegisterBenchmark("recovery/FastPaxos_compact_noRejoin",
                               bm_smr_recovery, 4, sim::kTimeInfinity,
                               sim::kTimeInfinity)
      ->Unit(benchmark::kMillisecond)
      ->Iterations(kGuardSeeds);
  benchmark::RegisterBenchmark("recovery/FastPaxos_i4_rejoin",
                               bm_smr_recovery, 4, sim::Time{6},
                               sim::Time{60})
      ->Unit(benchmark::kMillisecond)
      ->Iterations(kGuardSeeds);
  benchmark::RegisterBenchmark("recovery/FastPaxos_i16_rejoin",
                               bm_smr_recovery, 16, sim::Time{6},
                               sim::Time{60})
      ->Unit(benchmark::kMillisecond)
      ->Iterations(kGuardSeeds);
  benchmark::RegisterBenchmark("recovery/KvFastPaxos_i4_rejoin",
                               bm_kv_recovery, 4)
      ->Unit(benchmark::kMillisecond)
      ->Iterations(kGuardSeeds);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
