// Property sweeps (TEST_P): agreement / validity / termination over the
// cross-product of algorithms × cluster sizes × fault vectors × seeds.
// Every run is deterministic given its seed; a failure prints the exact
// configuration to reproduce it.

#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "src/harness/cluster.hpp"
#include "src/sim/rng.hpp"

namespace mnm::harness {
namespace {

// ---------------------------------------------------------------------------
// Sweep 1: common-case correctness, all algorithms × sizes × seeds.
// ---------------------------------------------------------------------------

using CommonParam = std::tuple<Algorithm, int /*n*/, int /*m*/, int /*seed*/>;

class CommonSweep : public ::testing::TestWithParam<CommonParam> {};

TEST_P(CommonSweep, SafeAndLive) {
  const auto [algo, n, m, seed] = GetParam();
  ClusterConfig c;
  c.algo = algo;
  c.n = static_cast<std::size_t>(n);
  c.m = static_cast<std::size_t>(m);
  c.seed = static_cast<std::uint64_t>(seed);
  const RunReport r = run_cluster(c);
  EXPECT_TRUE(r.agreement) << algorithm_name(algo) << " " << r.summary();
  EXPECT_TRUE(r.validity) << algorithm_name(algo) << " " << r.summary();
  EXPECT_TRUE(r.termination) << algorithm_name(algo) << " " << r.summary();
}

std::string common_name(const ::testing::TestParamInfo<CommonParam>& info) {
  const auto [algo, n, m, seed] = info.param;
  std::ostringstream os;
  switch (algo) {
    case Algorithm::kPaxos: os << "Paxos"; break;
    case Algorithm::kFastPaxos: os << "FastPaxos"; break;
    case Algorithm::kDiskPaxos: os << "DiskPaxos"; break;
    case Algorithm::kProtectedMemoryPaxos: os << "PMP"; break;
    case Algorithm::kAlignedPaxos: os << "Aligned"; break;
    case Algorithm::kRobustBackup: os << "RobustBackup"; break;
    case Algorithm::kFastRobust: os << "FastRobust"; break;
  }
  os << "_n" << n << "_m" << m << "_s" << seed;
  return os.str();
}

INSTANTIATE_TEST_SUITE_P(
    MessageAlgos, CommonSweep,
    ::testing::Combine(::testing::Values(Algorithm::kPaxos, Algorithm::kFastPaxos),
                       ::testing::Values(3, 5, 7), ::testing::Values(0),
                       ::testing::Values(1, 2)),
    common_name);

INSTANTIATE_TEST_SUITE_P(
    MemoryAlgos, CommonSweep,
    ::testing::Combine(::testing::Values(Algorithm::kDiskPaxos,
                                         Algorithm::kProtectedMemoryPaxos),
                       ::testing::Values(2, 3), ::testing::Values(3, 5),
                       ::testing::Values(1, 2)),
    common_name);

INSTANTIATE_TEST_SUITE_P(
    CombinedAlgos, CommonSweep,
    ::testing::Combine(::testing::Values(Algorithm::kAlignedPaxos),
                       ::testing::Values(2, 3), ::testing::Values(3),
                       ::testing::Values(1, 2, 3)),
    common_name);

INSTANTIATE_TEST_SUITE_P(
    ByzantineAlgos, CommonSweep,
    ::testing::Combine(::testing::Values(Algorithm::kRobustBackup,
                                         Algorithm::kFastRobust),
                       ::testing::Values(3), ::testing::Values(3, 5),
                       ::testing::Values(1, 2)),
    common_name);

// ---------------------------------------------------------------------------
// Sweep 2: randomized crash schedules (crash count within each algorithm's
// bound, times drawn from the seed).
// ---------------------------------------------------------------------------

using CrashParam = std::tuple<Algorithm, int /*seed*/>;

class CrashSweep : public ::testing::TestWithParam<CrashParam> {};

TEST_P(CrashSweep, SafeAndLiveUnderCrashes) {
  const auto [algo, seed] = GetParam();
  sim::Rng rng(static_cast<std::uint64_t>(seed) * 7919 + 13);

  ClusterConfig c;
  c.algo = algo;
  c.seed = static_cast<std::uint64_t>(seed);
  // Shape: n and the crash budget depend on the resilience class.
  std::size_t max_proc_crashes = 0;
  switch (algo) {
    case Algorithm::kPaxos:
    case Algorithm::kFastPaxos:
      c.n = 5;
      c.m = 0;
      max_proc_crashes = 2;  // minority
      break;
    case Algorithm::kDiskPaxos:
    case Algorithm::kProtectedMemoryPaxos:
      c.n = 3;
      c.m = 5;
      max_proc_crashes = 2;  // all but one
      break;
    case Algorithm::kAlignedPaxos:
      c.n = 3;
      c.m = 3;
      max_proc_crashes = 1;
      break;
    case Algorithm::kRobustBackup:
    case Algorithm::kFastRobust:
      c.n = 5;
      c.m = 5;
      max_proc_crashes = 2;  // n ≥ 2f+1
      break;
  }
  // Crash a random subset of processes at random times. Never crash every
  // process; for message-passing algorithms keep a majority alive.
  const std::size_t crashes = rng.below(max_proc_crashes + 1);
  std::set<ProcessId> victims;
  while (victims.size() < crashes) {
    victims.insert(static_cast<ProcessId>(rng.range(1, c.n)));
  }
  for (ProcessId v : victims) {
    c.faults.process_crashes[v] = rng.below(200);
  }
  // For memory-replicated algorithms, also crash a memory minority.
  if (c.m >= 3 && rng.chance(0.5)) {
    const std::size_t mem_crashes = rng.below((c.m - 1) / 2 + 1);
    std::set<MemoryId> mem_victims;
    while (mem_victims.size() < mem_crashes) {
      mem_victims.insert(static_cast<MemoryId>(rng.range(1, c.m)));
    }
    for (MemoryId v : mem_victims) c.faults.memory_crashes[v] = rng.below(200);
  }
  c.horizon = 200000;

  const RunReport r = run_cluster(c);
  EXPECT_TRUE(r.agreement) << algorithm_name(algo) << " seed=" << seed << " "
                           << r.summary();
  EXPECT_TRUE(r.validity) << algorithm_name(algo) << " seed=" << seed << " "
                          << r.summary();
  EXPECT_TRUE(r.termination) << algorithm_name(algo) << " seed=" << seed << " "
                             << r.summary();
}

/// The algorithm's part of a sweep's test name.
const char* algo_tag(Algorithm algo) {
  switch (algo) {
    case Algorithm::kPaxos: return "Paxos";
    case Algorithm::kFastPaxos: return "FastPaxos";
    case Algorithm::kDiskPaxos: return "DiskPaxos";
    case Algorithm::kProtectedMemoryPaxos: return "PMP";
    case Algorithm::kAlignedPaxos: return "Aligned";
    case Algorithm::kRobustBackup: return "RobustBackup";
    case Algorithm::kFastRobust: return "FastRobust";
  }
  return "?";
}

std::string crash_name(const ::testing::TestParamInfo<CrashParam>& info) {
  const auto [algo, seed] = info.param;
  return std::string(algo_tag(algo)) + "_s" + std::to_string(seed);
}

INSTANTIATE_TEST_SUITE_P(
    Crashes, CrashSweep,
    ::testing::Combine(::testing::Values(Algorithm::kPaxos, Algorithm::kFastPaxos,
                                         Algorithm::kDiskPaxos,
                                         Algorithm::kProtectedMemoryPaxos,
                                         Algorithm::kAlignedPaxos),
                       ::testing::Range(1, 9)),
    crash_name);

INSTANTIATE_TEST_SUITE_P(
    ByzantineCrashes, CrashSweep,
    ::testing::Combine(::testing::Values(Algorithm::kFastRobust),
                       ::testing::Range(1, 5)),
    crash_name);

// ---------------------------------------------------------------------------
// Sweep 3: Byzantine strategies × which process is faulty.
// ---------------------------------------------------------------------------

using ByzParam = std::tuple<ByzantineStrategy, int /*faulty pid*/, int /*seed*/>;

class ByzSweep : public ::testing::TestWithParam<ByzParam> {};

TEST_P(ByzSweep, FastRobustSafeAndLive) {
  const auto [strategy, pid, seed] = GetParam();
  ClusterConfig c;
  c.algo = Algorithm::kFastRobust;
  c.n = 3;
  c.m = 3;
  c.seed = static_cast<std::uint64_t>(seed);
  c.faults.byzantine[static_cast<ProcessId>(pid)] = strategy;
  const RunReport r = run_cluster(c);
  EXPECT_TRUE(r.agreement) << r.summary();
  EXPECT_TRUE(r.termination) << r.summary();
}

std::string byz_name(const ::testing::TestParamInfo<ByzParam>& info) {
  const auto [strategy, pid, seed] = info.param;
  std::ostringstream os;
  switch (strategy) {
    case ByzantineStrategy::kSilent: os << "Silent"; break;
    case ByzantineStrategy::kNebEquivocate: os << "NebEquiv"; break;
    case ByzantineStrategy::kCqLeaderEquivocate: os << "CqEquiv"; break;
    case ByzantineStrategy::kGarbage: os << "Garbage"; break;
    case ByzantineStrategy::kForgeClientCommands: os << "ForgeClient"; break;
  }
  os << "_p" << pid << "_s" << seed;
  return os.str();
}

INSTANTIATE_TEST_SUITE_P(
    Strategies, ByzSweep,
    ::testing::Combine(::testing::Values(ByzantineStrategy::kSilent,
                                         ByzantineStrategy::kNebEquivocate,
                                         ByzantineStrategy::kGarbage),
                       ::testing::Values(1, 2, 3), ::testing::Values(1, 2)),
    byz_name);

INSTANTIATE_TEST_SUITE_P(
    LeaderEquivocation, ByzSweep,
    ::testing::Combine(::testing::Values(ByzantineStrategy::kCqLeaderEquivocate),
                       ::testing::Values(1), ::testing::Values(1, 2, 3)),
    byz_name);

// ---------------------------------------------------------------------------
// Sweep 4: partial synchrony — GST onset × algorithm.
// ---------------------------------------------------------------------------

using GstParam = std::tuple<Algorithm, int /*gst*/, int /*pre delay*/>;

class GstSweep : public ::testing::TestWithParam<GstParam> {};

TEST_P(GstSweep, SafetyAlwaysLivenessAfterGst) {
  const auto [algo, gst, pre] = GetParam();
  ClusterConfig c;
  c.algo = algo;
  c.n = 3;
  c.m = (algo == Algorithm::kPaxos || algo == Algorithm::kFastPaxos) ? 0 : 3;
  c.gst = static_cast<sim::Time>(gst);
  c.pre_gst_delay = static_cast<sim::Time>(pre);
  c.horizon = 300000;
  const RunReport r = run_cluster(c);
  EXPECT_TRUE(r.agreement) << algorithm_name(algo) << " " << r.summary();
  EXPECT_TRUE(r.validity) << algorithm_name(algo) << " " << r.summary();
  EXPECT_TRUE(r.termination) << algorithm_name(algo) << " " << r.summary();
}

std::string gst_name(const ::testing::TestParamInfo<GstParam>& info) {
  const auto [algo, gst, pre] = info.param;
  std::ostringstream os;
  switch (algo) {
    case Algorithm::kPaxos: os << "Paxos"; break;
    case Algorithm::kFastPaxos: os << "FastPaxos"; break;
    case Algorithm::kProtectedMemoryPaxos: os << "PMP"; break;
    case Algorithm::kFastRobust: os << "FastRobust"; break;
    default: os << "Algo"; break;
  }
  os << "_gst" << gst << "_pre" << pre;
  return os.str();
}

INSTANTIATE_TEST_SUITE_P(
    Gst, GstSweep,
    ::testing::Combine(::testing::Values(Algorithm::kPaxos,
                                         Algorithm::kProtectedMemoryPaxos,
                                         Algorithm::kFastRobust),
                       ::testing::Values(100, 500), ::testing::Values(10, 60)),
    gst_name);

// ---------------------------------------------------------------------------
// Sweep 5: replicated logs under crashes with compaction. A snapshot every
// 4 applies retires slots every few applies, so the seed's crashes land
// around retiring instances, hub subs and fan-out stragglers parked on
// crashed memories; each correct replica must still agree, stay valid,
// terminate, and end holding at most window + 2 × interval instances.
// ---------------------------------------------------------------------------

using RetireParam = std::tuple<Algorithm, int /*seed*/>;

class SmrRetireSweep : public ::testing::TestWithParam<RetireParam> {};

TEST_P(SmrRetireSweep, SafeLiveAndBoundedUnderCrashes) {
  constexpr std::size_t kWindow = 4;
  constexpr Slot kInterval = 4;
  const auto [algo, seed] = GetParam();
  sim::Rng rng(static_cast<std::uint64_t>(seed) * 6007 + 29);

  ClusterConfig c;
  c.algo = algo;
  c.seed = static_cast<std::uint64_t>(seed);
  c.smr.enabled = true;
  c.smr.commands = 100;
  c.smr.batch = 2;
  c.smr.window = kWindow;
  c.smr.snapshot_interval = kInterval;
  c.horizon = 200000;
  // Sweep 2's crash budgets, but at least one crash of each kind, and all
  // inside the run's first 40 delays (a fault-free run takes 26 to 100).
  std::size_t max_proc_crashes = 0;
  switch (algo) {
    case Algorithm::kDiskPaxos:
    case Algorithm::kProtectedMemoryPaxos:
      c.n = 3;
      c.m = 5;
      max_proc_crashes = 2;  // all but one
      break;
    case Algorithm::kAlignedPaxos:
      c.n = 3;
      c.m = 3;
      max_proc_crashes = 1;
      break;
    default:  // Paxos, Fast Paxos: a minority
      c.n = 5;
      c.m = 0;
      max_proc_crashes = 2;
      break;
  }
  const std::size_t crashes = 1 + rng.below(max_proc_crashes);
  std::set<ProcessId> victims;
  while (victims.size() < crashes) {
    victims.insert(static_cast<ProcessId>(rng.range(1, c.n)));
  }
  for (ProcessId v : victims) c.faults.process_crashes[v] = rng.below(40);
  if (c.m >= 3) {
    const std::size_t mem_crashes = 1 + rng.below((c.m - 1) / 2);
    std::set<MemoryId> mem_victims;
    while (mem_victims.size() < mem_crashes) {
      mem_victims.insert(static_cast<MemoryId>(rng.range(1, c.m)));
    }
    for (MemoryId v : mem_victims) c.faults.memory_crashes[v] = rng.below(40);
  }

  const RunReport r = run_cluster(c);
  const std::string where =
      std::string(algorithm_name(algo)) + " seed=" + std::to_string(seed);
  EXPECT_TRUE(r.agreement) << where << " " << r.summary();
  EXPECT_TRUE(r.validity) << where << " " << r.summary();
  EXPECT_TRUE(r.termination) << where << " " << r.summary();
  EXPECT_GT(r.snapshots_taken, 0u) << where << " " << r.summary();
  EXPECT_LE(r.slot_state_held, kWindow + 2 * kInterval) << where;
}

INSTANTIATE_TEST_SUITE_P(
    Compaction, SmrRetireSweep,
    ::testing::Combine(::testing::Values(Algorithm::kPaxos, Algorithm::kFastPaxos,
                                         Algorithm::kDiskPaxos,
                                         Algorithm::kProtectedMemoryPaxos,
                                         Algorithm::kAlignedPaxos),
                       ::testing::Range(1, 9)),
    crash_name);

// ---------------------------------------------------------------------------
// Sweep 6: crash-and-rejoin. One replica crashes at 10 + 3·seed and rejoins
// 20 + 7·seed later, while its group is still deciding: in SMR (512
// commands, batch 2, window 4, a snapshot every 8 applies) and in a 2-shard
// KV (8 clients × 96 ops, a snapshot every 16 applies), under Paxos and
// Fast Paxos, with p1 (whom Ω trusts again the moment it rejoins), p2 or p3
// as the victim. Every correct replica, the rejoiner included, must agree,
// stay valid, terminate and end with the same log or store.
// ---------------------------------------------------------------------------

using RejoinParam =
    std::tuple<Algorithm, bool /*kv*/, int /*victim*/, int /*seed*/>;

class RejoinSweep : public ::testing::TestWithParam<RejoinParam> {};

TEST_P(RejoinSweep, RejoinerConvergesWhileTheGroupDecides) {
  const auto [algo, kv, victim, seed] = GetParam();
  ClusterConfig c;
  c.algo = algo;
  c.n = 3;
  c.m = 0;
  c.seed = static_cast<std::uint64_t>(seed);
  if (kv) {
    c.kv.enabled = true;
    c.kv.shards = 2;
    c.kv.clients = 8;
    c.kv.ops_per_client = 96;
    c.kv.snapshot_interval = 16;
  } else {
    c.smr.enabled = true;
    c.smr.commands = 512;
    c.smr.batch = 2;
    c.smr.window = 4;
    c.smr.snapshot_interval = 8;
  }
  const sim::Time crash_at = 10 + 3 * static_cast<sim::Time>(seed);
  const auto p = static_cast<ProcessId>(victim);
  c.faults.process_crashes[p] = crash_at;
  c.faults.process_rejoins[p] = crash_at + 20 + 7 * static_cast<sim::Time>(seed);

  const RunReport r = run_cluster(c);
  const std::string where = std::string(algorithm_name(algo)) +
                            (kv ? " kv" : " smr") + " p" +
                            std::to_string(victim) +
                            " seed=" + std::to_string(seed) + " " + r.summary();
  EXPECT_TRUE(r.agreement) << where;
  EXPECT_TRUE(r.validity) << where;
  EXPECT_TRUE(r.termination) << where;
  EXPECT_GT(r.catchup_bytes, 0u) << where;  // the rejoiner caught up
  if (kv) {
    EXPECT_EQ(r.kv_ops, c.kv.clients * c.kv.ops_per_client) << where;
  } else {
    for (const ProcessReport& row : r.processes) {
      EXPECT_EQ(row.log, r.processes[0].log) << where << " p" << row.id;
    }
  }
}

std::string rejoin_name(const ::testing::TestParamInfo<RejoinParam>& info) {
  const auto [algo, kv, victim, seed] = info.param;
  std::ostringstream os;
  os << (algo == Algorithm::kPaxos ? "Paxos" : "FastPaxos")
     << (kv ? "_Kv" : "_Smr") << "_p" << victim << "_s" << seed;
  return os.str();
}

INSTANTIATE_TEST_SUITE_P(
    Rejoin, RejoinSweep,
    ::testing::Combine(::testing::Values(Algorithm::kPaxos,
                                         Algorithm::kFastPaxos),
                       ::testing::Bool(), ::testing::Range(1, 4),
                       ::testing::Range(1, 9)),
    rejoin_name);

// ---------------------------------------------------------------------------
// Sweep 7: the reconfiguration drain. A KV group (32 clients × 8 ops over
// 128 keys, window = batch = 4, retry deadline 24) splits 0→1, splits
// 0→1 and 0→2, or merges 1→0 at t = 40, while the drain source's group
// runs fault-free, loses p1 or p2 at 30 (before the seal), 41 or 45
// (around it), or — Paxos and Fast Paxos, with a snapshot every 8 applies —
// loses p1 at 30 and gets it back at 55. The Migrator drains from the
// replica Ω trusts, which waits for its own machine to apply the seal, so
// every planned migration must finish with every op done exactly once.
// ---------------------------------------------------------------------------

/// One reconfiguration plan of the sweep, over `shards` initial groups.
struct DrainPlan {
  const char* name;
  std::size_t shards;
  std::vector<ReconfigAction> actions;
};
const DrainPlan kDrainPlans[] = {
    {"Split", 1, {{40, reconfig::ChangeKind::kSplit, 0, 1}}},
    {"DoubleSplit",
     1,
     {{40, reconfig::ChangeKind::kSplit, 0, 1},
      {40, reconfig::ChangeKind::kSplit, 0, 2}}},
    {"Merge", 2, {{40, reconfig::ChangeKind::kMerge, 1, 0}}},
};

/// One fault of the sweep: `victim` crashes at `crash_at` (victim 0: no
/// crash) and, if `rejoin_at` is set, rejoins then.
struct DrainFault {
  const char* name;
  ProcessId victim;
  sim::Time crash_at;
  sim::Time rejoin_at;
};
constexpr DrainFault kDrainFaults[] = {
    {"NoCrash", 0, 0, 0},  {"P1At30", 1, 30, 0},
    {"P1At41", 1, 41, 0},  {"P1At45", 1, 45, 0},
    {"P2At30", 2, 30, 0},  {"P2At41", 2, 41, 0},
    {"P2At45", 2, 45, 0},  {"P1At30Rejoin55", 1, 30, 55},
};

using DrainParam = std::tuple<Algorithm, int /*plan*/, int /*fault*/,
                              int /*seed*/>;

std::vector<DrainParam> drain_params() {
  std::vector<DrainParam> out;
  for (Algorithm algo : {Algorithm::kPaxos, Algorithm::kFastPaxos,
                         Algorithm::kDiskPaxos,
                         Algorithm::kProtectedMemoryPaxos,
                         Algorithm::kAlignedPaxos}) {
    const bool rejoins =
        algo == Algorithm::kPaxos || algo == Algorithm::kFastPaxos;
    for (int plan = 0; plan < std::ssize(kDrainPlans); ++plan) {
      for (int fault = 0; fault < std::ssize(kDrainFaults); ++fault) {
        if (kDrainFaults[fault].rejoin_at > 0 && !rejoins) continue;
        for (int seed = 1; seed <= 2; ++seed) {
          out.emplace_back(algo, plan, fault, seed);
        }
      }
    }
  }
  return out;
}

class DrainSweep : public ::testing::TestWithParam<DrainParam> {};

TEST_P(DrainSweep, EveryPlannedMigrationFinishes) {
  const auto [algo, plan_index, fault_index, seed] = GetParam();
  const DrainPlan& plan = kDrainPlans[plan_index];
  const DrainFault& fault = kDrainFaults[fault_index];
  ClusterConfig c;
  c.algo = algo;
  c.n = 3;
  c.m = algo == Algorithm::kPaxos || algo == Algorithm::kFastPaxos ? 0 : 3;
  c.seed = static_cast<std::uint64_t>(seed);
  c.kv.enabled = true;
  c.kv.shards = plan.shards;
  c.kv.clients = 32;
  c.kv.ops_per_client = 8;
  c.kv.keys = 128;
  c.kv.window = 4;
  c.kv.batch = 4;
  c.kv.retry_timeout = 24;
  c.kv.reconfig = plan.actions;
  if (fault.victim != 0) c.faults.process_crashes[fault.victim] = fault.crash_at;
  if (fault.rejoin_at > 0) {
    c.faults.process_rejoins[fault.victim] = fault.rejoin_at;
    c.kv.snapshot_interval = 8;
  }

  const RunReport r = run_cluster(c);
  EXPECT_TRUE(r.all_ok()) << r.summary();
  EXPECT_EQ(r.reconfig_migrations, plan.actions.size()) << r.summary();
  EXPECT_EQ(r.reconfig_epoch, plan.actions.size()) << r.summary();
  EXPECT_EQ(r.kv_ops, c.kv.clients * c.kv.ops_per_client) << r.summary();
}

std::string drain_name(const ::testing::TestParamInfo<DrainParam>& info) {
  const auto [algo, plan, fault, seed] = info.param;
  return std::string(algo_tag(algo)) + "_" + kDrainPlans[plan].name + "_" +
         kDrainFaults[fault].name + "_s" + std::to_string(seed);
}

INSTANTIATE_TEST_SUITE_P(Reconfig, DrainSweep,
                         ::testing::ValuesIn(drain_params()), drain_name);

}  // namespace
}  // namespace mnm::harness
