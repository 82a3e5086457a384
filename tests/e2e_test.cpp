// End-to-end tests: every algorithm through the harness, common case first,
// then the paper's headline claims as assertions:
//   - delay counts (2-deciding / 4-delay baselines),
//   - resilience bounds (n ≥ fP+1 / 2fP+1, m ≥ 2fM+1, combined majority),
//   - Byzantine behaviour (silent / equivocating / garbage),
//   - partial synchrony (decisions after GST).

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/harness/cluster.hpp"
#include "src/sim/time.hpp"

namespace mnm::harness {
namespace {

ClusterConfig base(Algorithm algo, std::size_t n, std::size_t m) {
  ClusterConfig c;
  c.algo = algo;
  c.n = n;
  c.m = m;
  return c;
}

// ---------- Common case: correctness + the paper's delay numbers ----------

TEST(CommonCase, PaxosDecidesInFourDelays) {
  const RunReport r = run_cluster(base(Algorithm::kPaxos, 3, 0));
  EXPECT_TRUE(r.all_ok()) << r.summary();
  EXPECT_EQ(r.first_decision_delay, 4u) << r.summary();
}

TEST(CommonCase, FastPaxosDecidesInTwoDelays) {
  const RunReport r = run_cluster(base(Algorithm::kFastPaxos, 3, 0));
  EXPECT_TRUE(r.all_ok()) << r.summary();
  EXPECT_EQ(r.first_decision_delay, 2u) << r.summary();
}

TEST(CommonCase, DiskPaxosDecidesInFourDelays) {
  // §1: "Disk Paxos ... takes at least four delays" — write + verifying read,
  // however many memories (Theorem 6.1: static permissions cannot do 2).
  for (std::size_t m : {3u, 5u, 7u}) {
    const RunReport r = run_cluster(base(Algorithm::kDiskPaxos, 2, m));
    EXPECT_TRUE(r.all_ok()) << r.summary();
    EXPECT_EQ(r.first_decision_delay, 4u) << "m=" << m;
  }
}

TEST(CommonCase, ProtectedMemoryPaxosIsTwoDeciding) {
  // Theorem 5.1: 2-deciding with n ≥ fP+1, m ≥ 2fM+1, at every size.
  for (std::size_t n : {2u, 3u, 5u}) {
    for (std::size_t m : {3u, 5u, 7u}) {
      const RunReport r =
          run_cluster(base(Algorithm::kProtectedMemoryPaxos, n, m));
      EXPECT_TRUE(r.all_ok()) << r.summary();
      EXPECT_EQ(r.first_decision_delay, 2u) << "n=" << n << " m=" << m;
    }
  }
}

TEST(CommonCase, FastRobustIsTwoDeciding) {
  // Theorem 4.9 / Lemma B.6: the leader decides after one replicated write,
  // at every n.
  for (std::size_t n : {3u, 5u, 7u, 9u}) {
    const RunReport r = run_cluster(base(Algorithm::kFastRobust, n, 3));
    EXPECT_TRUE(r.all_ok()) << r.summary();
    EXPECT_EQ(r.first_decision_delay, 2u) << "n=" << n;
    // And the leader's decision came via the fast path.
    EXPECT_TRUE(r.processes[0].fast_path) << "n=" << n;
  }
}

TEST(CommonCase, RobustBackupDecides) {
  const RunReport r = run_cluster(base(Algorithm::kRobustBackup, 3, 3));
  EXPECT_TRUE(r.all_ok()) << r.summary();
  // The slow path costs at least one non-equivocating broadcast round trip
  // (≥ 6 delays, §4 footnote 2).
  EXPECT_GE(r.first_decision_delay, 6u) << r.summary();
}

TEST(CommonCase, AlignedPaxosDecides) {
  const RunReport r = run_cluster(base(Algorithm::kAlignedPaxos, 3, 3));
  EXPECT_TRUE(r.all_ok()) << r.summary();
}

TEST(CommonCase, VerbsBackendMatchesMemBackendOnDelays) {
  // The verbs backend runs the same schedule as mem::Memory, so every cost
  // counter matches too. The seven fault-free shapes are
  // Determinism.SingleShotCostsPinned's, so their verbs costs are pinned
  // through it. Crashing p1 at t=0 makes the permission-changing algorithms
  // revoke its access, so their permission counts are non-zero.
  std::vector<ClusterConfig> configs = {
      base(Algorithm::kPaxos, 3, 0),
      base(Algorithm::kFastPaxos, 3, 0),
      base(Algorithm::kDiskPaxos, 2, 3),
      base(Algorithm::kProtectedMemoryPaxos, 2, 3),
      base(Algorithm::kAlignedPaxos, 3, 3),
      base(Algorithm::kRobustBackup, 3, 3),
      base(Algorithm::kFastRobust, 3, 3),
  };
  for (Algorithm a : {Algorithm::kProtectedMemoryPaxos,
                      Algorithm::kAlignedPaxos, Algorithm::kFastRobust}) {
    ClusterConfig c = base(a, 3, 3);
    c.faults.process_crashes[1] = 0;
    configs.push_back(c);
  }
  for (ClusterConfig c : configs) {
    const RunReport plain = run_cluster(c);
    c.verbs_backend = true;
    const RunReport rdma = run_cluster(c);
    const std::string name = algorithm_name(c.algo);
    EXPECT_TRUE(rdma.all_ok()) << rdma.summary();
    EXPECT_EQ(plain.first_decision_delay, rdma.first_decision_delay) << name;
    EXPECT_EQ(plain.messages_sent, rdma.messages_sent) << name;
    EXPECT_EQ(plain.mem_reads, rdma.mem_reads) << name;
    EXPECT_EQ(plain.mem_read_batches, rdma.mem_read_batches) << name;
    EXPECT_EQ(plain.mem_writes, rdma.mem_writes) << name;
    EXPECT_EQ(plain.permission_changes, rdma.permission_changes) << name;
    EXPECT_EQ(plain.signatures, rdma.signatures) << name;
    EXPECT_EQ(plain.verifications, rdma.verifications) << name;
    if (!c.faults.process_crashes.empty()) {
      EXPECT_GT(plain.permission_changes, 0u) << name;
    }
  }
}

TEST(CommonCase, FastRobustOnVerbsBackend) {
  ClusterConfig c = base(Algorithm::kFastRobust, 3, 3);
  c.verbs_backend = true;
  const RunReport r = run_cluster(c);
  EXPECT_TRUE(r.all_ok()) << r.summary();
  EXPECT_EQ(r.first_decision_delay, 2u) << r.summary();
}

// ---------- Crash resilience at the paper's bounds ----------

TEST(CrashResilience, PmpSurvivesAllButOneProcess) {
  // n ≥ fP + 1: crash every process but pn right away; pn must decide.
  for (std::size_t n : {2u, 3u, 5u}) {
    ClusterConfig c = base(Algorithm::kProtectedMemoryPaxos, n, 3);
    for (ProcessId p = 1; p < n; ++p) c.faults.process_crashes[p] = 0;
    const RunReport r = run_cluster(c);
    EXPECT_TRUE(r.all_ok()) << r.summary();
    EXPECT_TRUE(r.processes[n - 1].decided) << "n=" << n;
  }
}

TEST(CrashResilience, PmpSurvivesLeaderCrashMidRun) {
  // Determinism.FailoverCostsPinned pins p1 dying right after starting (at
  // 1). Crashed at 0, p1 never writes and p2 runs both phases: 8 delays.
  // Crashed at 10, the first decision is p1's own 2-delay one. Crashed at 1
  // with p2 following at 30, p1's write issued at 0 lands but p1 never
  // resumes from it, so the first decision is p2's, at 9.
  struct Row {
    std::map<ProcessId, sim::Time> crashes;
    sim::Time first_decision;
  };
  const std::vector<Row> rows = {
      {{{1, 0}}, 8}, {{{1, 10}}, 2}, {{{1, 1}, {2, 30}}, 9}};
  for (const Row& row : rows) {
    ClusterConfig c = base(Algorithm::kProtectedMemoryPaxos, 3, 3);
    c.faults.process_crashes = row.crashes;
    const RunReport r = run_cluster(c);
    EXPECT_TRUE(r.all_ok()) << r.summary();
    EXPECT_EQ(r.first_decision_delay, row.first_decision) << r.summary();
  }
}

TEST(CrashResilience, PmpSurvivesMinorityMemoryCrashes) {
  ClusterConfig c = base(Algorithm::kProtectedMemoryPaxos, 2, 5);
  c.faults.memory_crashes[1] = 0;
  c.faults.memory_crashes[4] = 0;
  const RunReport r = run_cluster(c);
  EXPECT_TRUE(r.all_ok()) << r.summary();
  EXPECT_EQ(r.first_decision_delay, 2u);  // fast path unaffected
}

TEST(CrashResilience, DiskPaxosSurvivesAllButOneProcess) {
  ClusterConfig c = base(Algorithm::kDiskPaxos, 3, 3);
  c.faults.process_crashes[1] = 0;
  c.faults.process_crashes[3] = 0;
  const RunReport r = run_cluster(c);
  EXPECT_TRUE(r.all_ok()) << r.summary();
}

TEST(CrashResilience, PaxosSurvivesMinorityCrash) {
  for (const std::map<ProcessId, sim::Time>& crashes :
       {std::map<ProcessId, sim::Time>{{1, 0}, {5, 3}},
        std::map<ProcessId, sim::Time>{{4, 0}, {5, 0}}}) {
    ClusterConfig c = base(Algorithm::kPaxos, 5, 0);
    c.faults.process_crashes = crashes;
    const RunReport r = run_cluster(c);
    EXPECT_TRUE(r.all_ok()) << r.summary();
  }
}

TEST(CrashResilience, PaxosBlocksWithoutProcessMajority) {
  // Messages alone need n ≥ 2fP+1: with 3 of 5 processes down nobody
  // decides, and nobody decides wrongly. PMP, above, decides with one
  // process left — the resilience gap shared memory closes (§1).
  ClusterConfig c = base(Algorithm::kPaxos, 5, 0);
  c.horizon = 4000;
  for (ProcessId p : {3u, 4u, 5u}) c.faults.process_crashes[p] = 0;
  const RunReport r = run_cluster(c);
  EXPECT_TRUE(r.agreement) << r.summary();
  EXPECT_FALSE(r.termination) << r.summary();
}

TEST(CrashResilience, AlignedPaxosSurvivesCombinedMinority) {
  // §5.2: any majority of processes+memories suffices. n=3, m=3, 6 agents;
  // crash 1 process + 1 memory (2 < majority needed to block).
  ClusterConfig c = base(Algorithm::kAlignedPaxos, 3, 3);
  c.faults.process_crashes[1] = 0;
  c.faults.memory_crashes[2] = 0;
  const RunReport r = run_cluster(c);
  EXPECT_TRUE(r.all_ok()) << r.summary();
}

TEST(CrashResilience, AlignedPaxosSurvivesMemoryMajorityIfProcessesAlive) {
  // The headline §5.2 case: MORE than half the memories die (2 of 3), yet
  // processes+memories still form a majority (3+1=4 of 6). PMP would be
  // stuck; Aligned Paxos decides.
  ClusterConfig c = base(Algorithm::kAlignedPaxos, 3, 3);
  c.faults.memory_crashes[1] = 0;
  c.faults.memory_crashes[3] = 0;
  const RunReport r = run_cluster(c);
  EXPECT_TRUE(r.all_ok()) << r.summary();
}

TEST(CrashResilience, PmpBlocksWithoutMemoryMajority) {
  // Negative control for the previous test: PMP cannot terminate when a
  // majority of memories is down (safety holds; termination does not).
  ClusterConfig c = base(Algorithm::kProtectedMemoryPaxos, 3, 3);
  c.faults.memory_crashes[1] = 0;
  c.faults.memory_crashes[3] = 0;
  c.horizon = 3000;
  const RunReport r = run_cluster(c);
  EXPECT_TRUE(r.agreement);
  EXPECT_FALSE(r.termination);
}

TEST(CrashResilience, AlignedPaxosDecidesIffCombinedMajorityAlive) {
  // §5.2 over n = m = 3, six agents: Aligned Paxos decides iff at least 4
  // agents are alive, whichever kind they are; PMP iff at most 1 memory is
  // down, however many processes live. The highest process ids crash, so a
  // leader remains. No cell ever disagrees.
  for (std::size_t dead_p = 0; dead_p <= 2; ++dead_p) {
    for (std::size_t dead_m = 0; dead_m <= 3; ++dead_m) {
      for (Algorithm a :
           {Algorithm::kAlignedPaxos, Algorithm::kProtectedMemoryPaxos}) {
        ClusterConfig c = base(a, 3, 3);
        c.horizon = 20000;
        for (ProcessId p = 3; p > 3 - dead_p; --p) {
          c.faults.process_crashes[p] = 0;
        }
        for (MemoryId i = 1; i <= dead_m; ++i) c.faults.memory_crashes[i] = 0;
        const RunReport r = run_cluster(c);
        const bool decides = a == Algorithm::kAlignedPaxos
                                 ? 6 - dead_p - dead_m >= 4
                                 : dead_m <= 1;
        const std::string cell = std::string(algorithm_name(a)) +
                                 " dead_p=" + std::to_string(dead_p) +
                                 " dead_m=" + std::to_string(dead_m);
        EXPECT_TRUE(r.agreement) << cell;
        EXPECT_EQ(r.termination, decides) << cell;
      }
    }
  }
}

TEST(CrashResilience, MemoryCrashesUpToTheBound) {
  // m ≥ 2fM+1 (Thms 4.4, 4.9, 5.1): with up to fM = ⌊(m−1)/2⌋ memories
  // crashed from the start the common-case delay holds (the fan-out waits
  // for a majority only); past the bound the run blocks, and agreement
  // still holds.
  struct Sweep {
    Algorithm algo;
    std::size_t n, m;
    sim::Time delay;
  };
  for (const Sweep& s : {Sweep{Algorithm::kProtectedMemoryPaxos, 2, 3, 2},
                         Sweep{Algorithm::kProtectedMemoryPaxos, 2, 5, 2},
                         Sweep{Algorithm::kDiskPaxos, 2, 3, 4},
                         Sweep{Algorithm::kFastRobust, 3, 3, 2}}) {
    for (std::size_t dead = 0; dead <= s.m; ++dead) {
      ClusterConfig c = base(s.algo, s.n, s.m);
      c.horizon = 8000;
      for (MemoryId i = 1; i <= dead; ++i) c.faults.memory_crashes[i] = 0;
      const RunReport r = run_cluster(c);
      const bool within = dead <= (s.m - 1) / 2;
      const std::string cell = std::string(algorithm_name(s.algo)) +
                               " m=" + std::to_string(s.m) +
                               " dead=" + std::to_string(dead);
      EXPECT_TRUE(r.agreement) << cell;
      EXPECT_EQ(r.termination, within) << cell;
      EXPECT_EQ(r.first_decision_delay,
                within ? s.delay : sim::kTimeInfinity)
          << cell;
    }
  }
  // A memory crashing mid-run, during the fast path, costs nothing either:
  // PMP (n = 2, m = 3) losing memory 2, and Fast & Robust (n = 3, m = 5)
  // losing memories 1 and 3 two delays apart.
  for (sim::Time at : {sim::Time{1}, sim::Time{3}, sim::Time{7}}) {
    ClusterConfig c = base(Algorithm::kProtectedMemoryPaxos, 2, 3);
    c.faults.memory_crashes[2] = at;
    const RunReport r = run_cluster(c);
    EXPECT_TRUE(r.all_ok()) << r.summary();
    EXPECT_EQ(r.first_decision_delay, 2u) << "PMP, memory 2 at " << at;
  }
  for (sim::Time at : {sim::Time{1}, sim::Time{5}}) {
    ClusterConfig c = base(Algorithm::kFastRobust, 3, 5);
    c.faults.memory_crashes[1] = at;
    c.faults.memory_crashes[3] = at + 2;
    const RunReport r = run_cluster(c);
    EXPECT_TRUE(r.all_ok()) << r.summary();
    EXPECT_EQ(r.first_decision_delay, 2u) << "Fast & Robust, memory 1 at " << at;
  }
}

// ---------- Byzantine failures at n = 2f+1 ----------

TEST(Byzantine, FastRobustToleratesSilentFollower) {
  ClusterConfig c = base(Algorithm::kFastRobust, 3, 3);
  c.faults.byzantine[3] = ByzantineStrategy::kSilent;
  const RunReport r = run_cluster(c);
  EXPECT_TRUE(r.agreement) << r.summary();
  EXPECT_TRUE(r.termination) << r.summary();
}

TEST(Byzantine, FastRobustToleratesSilentLeader) {
  // Leader never proposes: followers time out, panic, and the backup decides.
  ClusterConfig c = base(Algorithm::kFastRobust, 3, 3);
  c.faults.byzantine[1] = ByzantineStrategy::kSilent;
  const RunReport r = run_cluster(c);
  EXPECT_TRUE(r.agreement) << r.summary();
  EXPECT_TRUE(r.termination) << r.summary();
}

TEST(Byzantine, FastRobustToleratesEquivocatingLeader) {
  // The leader plants different signed values on different memories — the
  // attack dynamic permissions + unanimity are designed to catch.
  ClusterConfig c = base(Algorithm::kFastRobust, 3, 3);
  c.faults.byzantine[1] = ByzantineStrategy::kCqLeaderEquivocate;
  const RunReport r = run_cluster(c);
  EXPECT_TRUE(r.agreement) << r.summary();
  EXPECT_TRUE(r.termination) << r.summary();
}

TEST(Byzantine, RobustBackupToleratesNebEquivocator) {
  ClusterConfig c = base(Algorithm::kRobustBackup, 3, 3);
  c.faults.byzantine[2] = ByzantineStrategy::kNebEquivocate;
  const RunReport r = run_cluster(c);
  EXPECT_TRUE(r.agreement) << r.summary();
  EXPECT_TRUE(r.termination) << r.summary();
}

TEST(Byzantine, RobustBackupToleratesGarbageWriter) {
  ClusterConfig c = base(Algorithm::kRobustBackup, 3, 3);
  c.faults.byzantine[3] = ByzantineStrategy::kGarbage;
  const RunReport r = run_cluster(c);
  EXPECT_TRUE(r.agreement) << r.summary();
  EXPECT_TRUE(r.termination) << r.summary();
}

TEST(Byzantine, TwoFPlusOneProcessesTolerateFFaulty) {
  // Table 1, this paper's row: n = 2fP+1 suffices. The f highest ids are
  // faulty, one strategy at a time (p1 stays correct, so the fast path
  // runs; the faulty-leader runs are FastRobustFailover's).
  const auto holds = [](Algorithm a, std::size_t f, ByzantineStrategy s) {
    ClusterConfig c = base(a, 2 * f + 1, 3);
    for (ProcessId p = f + 2; p <= 2 * f + 1; ++p) c.faults.byzantine[p] = s;
    const RunReport r = run_cluster(c);
    EXPECT_TRUE(r.agreement) << algorithm_name(a) << " f=" << f << ": "
                             << r.summary();
    EXPECT_TRUE(r.termination) << algorithm_name(a) << " f=" << f << ": "
                               << r.summary();
  };
  for (ByzantineStrategy s :
       {ByzantineStrategy::kSilent, ByzantineStrategy::kGarbage,
        ByzantineStrategy::kNebEquivocate}) {
    for (std::size_t f : {1u, 2u, 3u}) holds(Algorithm::kFastRobust, f, s);
  }
  for (std::size_t f : {1u, 2u}) {
    holds(Algorithm::kRobustBackup, f, ByzantineStrategy::kSilent);
  }
}

TEST(Byzantine, FastRobustWithFiveProcessesTwoByzantine) {
  // n = 5 = 2f+1 with f = 2.
  ClusterConfig c = base(Algorithm::kFastRobust, 5, 3);
  c.faults.byzantine[4] = ByzantineStrategy::kSilent;
  c.faults.byzantine[5] = ByzantineStrategy::kGarbage;
  const RunReport r = run_cluster(c);
  EXPECT_TRUE(r.agreement) << r.summary();
  EXPECT_TRUE(r.termination) << r.summary();
}

// ---------- Partial synchrony ----------

TEST(PartialSynchrony, FastRobustSafeBeforeGstLiveAfter) {
  // Slow network until GST: the fast path may abort, but agreement holds and
  // everyone decides after GST.
  ClusterConfig c = base(Algorithm::kFastRobust, 3, 3);
  c.gst = 400;
  c.pre_gst_delay = 50;
  c.horizon = 120000;
  const RunReport r = run_cluster(c);
  EXPECT_TRUE(r.agreement) << r.summary();
  EXPECT_TRUE(r.termination) << r.summary();
}

TEST(PartialSynchrony, PaxosWithLateGst) {
  ClusterConfig c = base(Algorithm::kPaxos, 3, 0);
  c.gst = 300;
  c.pre_gst_delay = 40;
  const RunReport r = run_cluster(c);
  EXPECT_TRUE(r.all_ok()) << r.summary();
  EXPECT_GE(r.first_decision_delay, 300u);  // no decision before GST here
}

// ---------- Fault-plan validation ----------

TEST(FaultPlan, UnknownProcessOrMemoryIdsAreRejected) {
  // Every id in a fault plan must name a process (1..n) or memory (1..m) of
  // the run; anything else is a configuration error, never an out-of-range
  // index or a fault that silently never happens.
  const auto rejects = [](const std::function<void(FaultPlan&)>& edit) {
    ClusterConfig c = base(Algorithm::kFastRobust, 3, 3);
    edit(c.faults);
    EXPECT_THROW(run_cluster(c), std::invalid_argument);
  };
  rejects([](FaultPlan& f) { f.process_crashes[0] = 3; });
  rejects([](FaultPlan& f) { f.process_crashes[4] = 3; });
  rejects([](FaultPlan& f) { f.byzantine[4] = ByzantineStrategy::kGarbage; });
  rejects([](FaultPlan& f) { f.memory_crashes[4] = 3; });
  rejects([](FaultPlan& f) { f.memory_crashes[0] = 3; });
}

// ---------- Identical inputs / validity shapes ----------

TEST(Validity, IdenticalInputsDecideThatValue) {
  for (Algorithm a : {Algorithm::kPaxos, Algorithm::kProtectedMemoryPaxos,
                      Algorithm::kFastRobust}) {
    ClusterConfig c = base(a, 3, 3);
    c.identical_inputs = true;
    const RunReport r = run_cluster(c);
    EXPECT_TRUE(r.all_ok()) << algorithm_name(a) << ": " << r.summary();
    ASSERT_TRUE(r.decided_value.has_value());
    EXPECT_EQ(*r.decided_value, "value-all");
  }
}

}  // namespace
}  // namespace mnm::harness
