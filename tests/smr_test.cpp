// smr::Log / smr::Replica: pipelined replication invariants.
//
// Unit level: the Log's in-order apply over a scripted engine that decides
// slots out of order (the engine API makes the Log testable without any
// network). Cluster level (through harness SMR mode): pipelined logs under
// leader crash mid-window converge, ≥64 slots flow over a single shared
// transport per replica, batching packs commands, Byzantine plans apply to
// multi-slot runs, and the report carries commit-latency percentiles.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/core/engine.hpp"
#include "src/core/omega.hpp"
#include "src/harness/cluster.hpp"
#include "src/sim/executor.hpp"
#include "src/smr/replica.hpp"
#include "src/util/serde.hpp"

namespace mnm {
namespace {

using harness::Algorithm;
using harness::ClusterConfig;
using harness::RunReport;
using util::to_bytes;
using util::to_string;

/// Test double: decisions are injected by the test, in any order.
struct ScriptedEngine : core::ConsensusEngine {
  explicit ScriptedEngine(sim::Executor& exec) : ConsensusEngine(exec) {}

  ProcessId self() const override { return 1; }
  std::size_t process_count() const override { return 1; }
  void start() override {}
  void open_slot(Slot s) override { note_slot(s); }
  sim::Task<core::Decision> propose(Slot, Bytes) override {
    throw std::logic_error("scripted engine: propose not scripted");
  }

  void inject(Slot s, const std::vector<Bytes>& commands, sim::Time at) {
    push_decision(s, core::Decision{smr::encode_batch(commands), false, at});
  }
  void inject_raw(Slot s, Bytes value) {
    push_decision(s, core::Decision{std::move(value), false, 0});
  }
};

/// Test double for leader mode: every proposal decides its own value
/// `delay` after it is made. The decision streams before propose returns,
/// or — with `late_return` — one time unit after, so the Log applies the
/// slot before it learns that it won.
struct InstantEngine : core::ConsensusEngine {
  InstantEngine(sim::Executor& exec, sim::Time delay, bool late_return)
      : ConsensusEngine(exec), delay_(delay), late_return_(late_return) {}

  ProcessId self() const override { return 1; }
  std::size_t process_count() const override { return 1; }
  void start() override {}
  void open_slot(Slot s) override { note_slot(s); }
  sim::Task<core::Decision> propose(Slot s, Bytes value) override {
    note_slot(s);
    co_await exec_->sleep(delay_);
    const core::Decision d{std::move(value), true, exec_->now()};
    push_decision(s, d);
    if (late_return_) co_await exec_->sleep(1);
    co_return d;
  }

 private:
  sim::Time delay_;
  bool late_return_;
};

struct RecordingSm : smr::StateMachine {
  std::vector<std::pair<Slot, std::string>> applied;
  void apply(Slot slot, util::ByteView command) override {
    applied.emplace_back(slot, to_string(command));
  }
};

TEST(SmrLog, OutOfOrderDecisionsApplyInSlotOrder) {
  sim::Executor exec;
  // Ω trusts someone else: the pump stays passive, decisions are scripted.
  core::Omega omega = core::Omega::fixed(exec, 2);
  ScriptedEngine engine(exec);
  RecordingSm sm;
  smr::Log log(exec, engine, omega, sm, smr::LogConfig{});
  log.start();

  engine.inject(2, {to_bytes("c2")}, 10);
  engine.inject(0, {to_bytes("c0a"), to_bytes("c0b")}, 11);
  exec.run_until([&] { return log.applied_len() == 2; }, 1000);
  // Slot 1 is missing: 2 stays stashed after 0 applies... 0 applies alone.
  EXPECT_EQ(log.applied_len(), 1u);
  ASSERT_EQ(sm.applied.size(), 2u);
  EXPECT_EQ(sm.applied[0], (std::pair<Slot, std::string>{0, "c0a"}));
  EXPECT_EQ(sm.applied[1], (std::pair<Slot, std::string>{0, "c0b"}));

  engine.inject(1, {to_bytes("c1")}, 12);
  exec.run_until([&] { return log.applied_len() == 3; }, 1000);
  EXPECT_EQ(log.applied_len(), 3u);
  ASSERT_EQ(sm.applied.size(), 4u);
  EXPECT_EQ(sm.applied[2], (std::pair<Slot, std::string>{1, "c1"}));
  EXPECT_EQ(sm.applied[3], (std::pair<Slot, std::string>{2, "c2"}));
  // The fold followed the decisions: every command once, slot 0's time.
  EXPECT_EQ(log.stats().commands, 4u);
  EXPECT_EQ(log.stats().noop_slots, 0u);
  EXPECT_EQ(log.stats().first_decided_at, 11u);
}

TEST(SmrLog, EmptyAndGarbageBatchesApplyAsNoops) {
  sim::Executor exec;
  core::Omega omega = core::Omega::fixed(exec, 2);
  ScriptedEngine engine(exec);
  RecordingSm sm;
  smr::Log log(exec, engine, omega, sm, smr::LogConfig{});
  log.start();

  engine.inject(0, {}, 1);  // explicit no-op filler
  // A Byzantine proposer can win a slot with bytes that are not a batch.
  engine.inject_raw(1, to_bytes("\xde\xad"));
  exec.run_until([&] { return log.applied_len() == 2; }, 1000);
  EXPECT_EQ(log.applied_len(), 2u);
  EXPECT_TRUE(sm.applied.empty());
  EXPECT_EQ(log.stats().noop_slots, 2u);
  EXPECT_EQ(log.stats().commands, 0u);
}

TEST(SmrLog, ProposerRecordsStayWithinTheWindow) {
  // A leader over an engine that decides at once: the proposer keeps one
  // record per open slot, never more than the window, and none once idle.
  // A follower applying the same number of slots keeps none at all.
  constexpr Slot kSlots = 1024;
  constexpr std::size_t kWindow = 4;
  sim::Executor exec;
  core::Omega omega = core::Omega::fixed(exec, 1);
  InstantEngine engine(exec, /*delay=*/2, /*late_return=*/false);
  RecordingSm sm;
  smr::LogConfig lc;
  lc.window = kWindow;
  smr::Log leader(exec, engine, omega, sm, lc);
  leader.start();
  for (Slot s = 0; s < kSlots; ++s) {
    leader.enqueue(smr::encode_batch({to_bytes("c" + std::to_string(s))}));
  }

  core::Omega elsewhere = core::Omega::fixed(exec, 2);
  ScriptedEngine passive(exec);
  RecordingSm follower_sm;
  smr::Log follower(exec, passive, elsewhere, follower_sm, lc);
  follower.start();
  for (Slot s = 0; s < kSlots; ++s) {
    passive.inject(s, {to_bytes("f" + std::to_string(s))}, s + 1);
  }

  std::size_t most_held = 0;
  std::size_t follower_held = 0;
  exec.run_until(
      [&] {
        most_held = std::max(most_held, leader.launches_held());
        follower_held = std::max(follower_held, follower.launches_held());
        return leader.quiescent() && follower.applied_len() == kSlots;
      },
      1'000'000);
  ASSERT_EQ(leader.applied_len(), kSlots);
  ASSERT_EQ(follower.applied_len(), kSlots);
  EXPECT_GT(most_held, 0u);
  EXPECT_LE(most_held, kWindow);
  EXPECT_EQ(leader.launches_held(), 0u);
  EXPECT_EQ(follower_held, 0u);
  // Every slot was launched, won and folded exactly once.
  const smr::SlotStats& st = leader.stats();
  EXPECT_EQ(st.commands, kSlots);
  EXPECT_EQ(st.won_latencies.size(), kSlots);
  EXPECT_EQ(st.queue_waits.size(), kSlots);
  EXPECT_EQ(st.occupancy_limit, kSlots * kWindow);
  EXPECT_EQ(st.fast_slots, kSlots);
  EXPECT_TRUE(follower.stats().won_latencies.empty());
  EXPECT_EQ(follower.stats().occupancy_limit, 0u);
}

TEST(SmrLog, WonSampleFoldsOnceWhicheverOfApplyAndWinComesFirst) {
  // The won sample folds at apply when propose returned first, and when
  // propose returns after the slot applied it folds then — once either way,
  // with the same enqueue → decide latency.
  const auto run = [](bool late_return) {
    sim::Executor exec;
    core::Omega omega = core::Omega::fixed(exec, 1);
    InstantEngine engine(exec, /*delay=*/3, late_return);
    RecordingSm sm;
    smr::LogConfig lc;
    lc.window = 2;
    smr::Log log(exec, engine, omega, sm, lc);
    log.start();
    for (int i = 0; i < 16; ++i) {
      log.enqueue(smr::encode_batch({to_bytes("c" + std::to_string(i))}));
    }
    exec.run_until([&] { return log.quiescent(); }, 1'000'000);
    exec.run();  // let late proposals return
    EXPECT_EQ(log.applied_len(), 16u);
    return log.stats();
  };
  const smr::SlotStats early = run(false);
  const smr::SlotStats late = run(true);
  EXPECT_EQ(early.won_latencies.size(), 16u);
  EXPECT_EQ(late.won_latencies.size(), 16u);
  EXPECT_EQ(early, late);
}

TEST(SmrBatchCodec, RoundTrip) {
  const std::vector<Bytes> cmds = {to_bytes("a"), to_bytes("bb"), Bytes{}};
  const auto decoded = smr::decode_batch(smr::encode_batch(cmds));
  EXPECT_EQ(decoded, cmds);
  EXPECT_TRUE(smr::decode_batch(to_bytes("garbage")).empty());
  EXPECT_TRUE(smr::decode_batch(smr::encode_batch({})).empty());
}

// ---------------------------------------------------------------------------
// Cluster-level SMR invariants (harness SMR mode).
// ---------------------------------------------------------------------------

ClusterConfig smr_config(Algorithm algo, std::size_t n, std::size_t m,
                         std::size_t commands, std::size_t batch,
                         std::size_t window) {
  ClusterConfig c;
  c.algo = algo;
  c.n = n;
  c.m = m;
  c.smr.enabled = true;
  c.smr.commands = commands;
  c.smr.batch = batch;
  c.smr.window = window;
  return c;
}

TEST(SmrCluster, LeaderCrashMidWindowLogsConverge) {
  ClusterConfig c = smr_config(Algorithm::kFastPaxos, 3, 0, 24, 2, 4);
  c.faults.process_crashes[1] = 6;  // several slots in flight at the crash
  const RunReport r = harness::run_cluster(c);
  EXPECT_TRUE(r.all_ok()) << r.summary();
  // Survivors hold identical logs and committed the new leader's workload.
  EXPECT_EQ(r.processes[1].log, r.processes[2].log);
  EXPECT_GE(r.slots_applied, 12u) << r.summary();
  // The crashed ex-leader's applied prefix is a prefix of the survivors'.
  const auto& dead = r.processes[0].log;
  const auto& live = r.processes[1].log;
  ASSERT_LE(dead.size(), live.size());
  EXPECT_TRUE(std::equal(dead.begin(), dead.end(), live.begin()))
      << "crashed replica's log diverged from the survivors' prefix";
}

TEST(SmrCluster, SixtyFourSlotsOverOneTransportPerReplica) {
  const RunReport r =
      harness::run_cluster(smr_config(Algorithm::kFastPaxos, 3, 0, 64, 1, 16));
  EXPECT_TRUE(r.all_ok()) << r.summary();
  EXPECT_EQ(r.slots_applied, 64u);
  EXPECT_EQ(r.commands_applied, 64u);
  EXPECT_GT(r.fast_slots, 0u);
}

TEST(SmrCluster, BatchingPacksManyCommandsPerSlot) {
  const RunReport r =
      harness::run_cluster(smr_config(Algorithm::kFastPaxos, 3, 0, 32, 8, 4));
  EXPECT_TRUE(r.all_ok()) << r.summary();
  EXPECT_EQ(r.slots_applied, 4u);  // 32 commands / 8 per batch
  EXPECT_EQ(r.commands_applied, 32u);
}

TEST(SmrCluster, DeepWindowBeatsSerialOnVirtualTime) {
  const RunReport serial =
      harness::run_cluster(smr_config(Algorithm::kFastPaxos, 3, 0, 32, 1, 1));
  const RunReport piped =
      harness::run_cluster(smr_config(Algorithm::kFastPaxos, 3, 0, 32, 1, 8));
  ASSERT_TRUE(serial.all_ok() && piped.all_ok());
  // Same #slots, strictly earlier completion with the window open.
  EXPECT_EQ(serial.slots_applied, piped.slots_applied);
  EXPECT_LT(piped.processes[0].decided_at, serial.processes[0].decided_at);
}

TEST(SmrCluster, MemoryEnginesReplicateLogs) {
  for (const Algorithm algo :
       {Algorithm::kDiskPaxos, Algorithm::kProtectedMemoryPaxos,
        Algorithm::kAlignedPaxos, Algorithm::kRobustBackup}) {
    // Disk Paxos and PMP need n ≥ fP+1; Aligned and Robust Backup more.
    const bool f_plus_1 = algo == Algorithm::kDiskPaxos ||
                          algo == Algorithm::kProtectedMemoryPaxos;
    const std::size_t n = f_plus_1 ? 2 : 3;
    const RunReport r = harness::run_cluster(smr_config(algo, n, 3, 8, 2, 4));
    EXPECT_TRUE(r.all_ok()) << harness::algorithm_name(algo) << ": "
                            << r.summary();
    EXPECT_EQ(r.slots_applied, 4u) << harness::algorithm_name(algo);
  }
}

TEST(SmrCluster, FastRobustAllProposeCommitsFastPath) {
  const RunReport r =
      harness::run_cluster(smr_config(Algorithm::kFastRobust, 3, 3, 4, 2, 2));
  EXPECT_TRUE(r.all_ok()) << r.summary();
  EXPECT_EQ(r.slots_applied, 2u);
  EXPECT_EQ(r.fast_slots, 2u) << "honest synchronous run must stay fast";
}

TEST(SmrCluster, FastRobustByzantineLeaderCannotForkTheLog) {
  ClusterConfig c = smr_config(Algorithm::kFastRobust, 3, 3, 4, 2, 2);
  c.faults.byzantine[1] = harness::ByzantineStrategy::kCqLeaderEquivocate;
  const RunReport r = harness::run_cluster(c);
  EXPECT_TRUE(r.agreement) << r.summary();
  EXPECT_TRUE(r.termination) << r.summary();
  EXPECT_EQ(r.processes[1].log, r.processes[2].log);
}

TEST(SmrCluster, ReportCarriesCommitPercentiles) {
  const RunReport r =
      harness::run_cluster(smr_config(Algorithm::kFastPaxos, 3, 0, 32, 2, 4));
  ASSERT_TRUE(r.all_ok()) << r.summary();
  EXPECT_GT(r.commit_p50, 0u);
  EXPECT_GE(r.commit_p99, r.commit_p50);
  EXPECT_GT(r.events_per_slot, 0.0);
}

TEST(SmrCluster, ReportCarriesQueueWaitAndOccupancy) {
  // A narrow window over a big workload: commands must wait behind the
  // window (queue-wait > 0), and launches must see a busy window.
  const RunReport r =
      harness::run_cluster(smr_config(Algorithm::kFastPaxos, 3, 0, 64, 2, 2));
  ASSERT_TRUE(r.all_ok()) << r.summary();
  EXPECT_GT(r.queue_wait_p99, 0u) << r.summary();
  EXPECT_GE(r.queue_wait_p99, r.queue_wait_p50);
  EXPECT_GT(r.occupancy_limit, 0u);
  EXPECT_GT(r.window_occupancy, 0.0);
  EXPECT_LE(r.window_occupancy, 1.0 + 1e-9) << r.summary();
}

// ---------------------------------------------------------------------------
// Config validation edges (the documented clamp rules).
// ---------------------------------------------------------------------------

TEST(SmrCluster, ZeroWindowAndBatchAreClampedNotStuck) {
  // window=0 used to stall the pump silently and batch=0 grew the open
  // batch without bound; both now clamp to 1 and the run completes.
  ClusterConfig c = smr_config(Algorithm::kFastPaxos, 3, 0, 8, 0, 0);
  const RunReport r = harness::run_cluster(c);
  EXPECT_TRUE(r.all_ok()) << r.summary();
  // Leader-driven mode commits the leader's workload (one command per slot
  // at the clamped batch of 1).
  EXPECT_EQ(r.commands_applied, 8u) << r.summary();
  EXPECT_EQ(r.slots_applied, 8u) << r.summary();
}

TEST(SmrCluster, WindowWiderThanSlotTargetIsHarmless) {
  // all_propose with fixed_slots < window: the window is simply never
  // filled; every slot still commits on every correct replica.
  const RunReport r =
      harness::run_cluster(smr_config(Algorithm::kFastRobust, 3, 3, 4, 2, 64));
  EXPECT_TRUE(r.all_ok()) << r.summary();
  // fixed_slots = 4 commands / batch 2 = 2 slots, each won by one replica's
  // candidate batch.
  EXPECT_EQ(r.slots_applied, 2u) << r.summary();
  EXPECT_EQ(r.commands_applied, 4u) << r.summary();
}

// ---------------------------------------------------------------------------
// Auto-tuning (smr::Tuner through the harness).
// ---------------------------------------------------------------------------

TEST(SmrCluster, AutoTuneGrowsCapacityUnderBacklogWithinBounds) {
  // Start from the worst fixed config (serial, single-command slots) with a
  // large backlog: the controller must detect saturation and grow, and the
  // run must finish markedly faster than the fixed w1/b1 run.
  ClusterConfig fixed = smr_config(Algorithm::kFastPaxos, 3, 0, 128, 1, 1);
  ClusterConfig tuned = fixed;
  tuned.smr.auto_tune = true;
  tuned.smr.max_window = 16;
  tuned.smr.max_batch = 8;
  const RunReport rf = harness::run_cluster(fixed);
  const RunReport rt = harness::run_cluster(tuned);
  ASSERT_TRUE(rf.all_ok()) << rf.summary();
  ASSERT_TRUE(rt.all_ok()) << rt.summary();
  EXPECT_EQ(rt.commands_applied, 128u) << rt.summary();
  EXPECT_GT(rt.tuner_epochs, 0u) << rt.summary();
  EXPECT_FALSE(rt.tuner_trajectory.empty());
  EXPECT_GT(rt.tuner_window * rt.tuner_batch, 1u)
      << "backlog must have grown capacity: " << rt.summary();
  EXPECT_LE(rt.tuner_window, tuned.smr.max_window);
  EXPECT_LE(rt.tuner_batch, tuned.smr.max_batch);
  ASSERT_GT(rt.slots_applied, 0u);
  EXPECT_LT(rt.slots_applied, rf.slots_applied)
      << "merged batches must commit the workload in fewer slots";
}

TEST(SmrCluster, AutoTuneIsForcedOffUnderAllPropose) {
  // Byzantine engines need lockstep queues; the tuner must not engage even
  // when asked for, and the run must stay correct.
  ClusterConfig c = smr_config(Algorithm::kFastRobust, 3, 3, 4, 2, 2);
  c.smr.auto_tune = true;
  const RunReport r = harness::run_cluster(c);
  EXPECT_TRUE(r.all_ok()) << r.summary();
  EXPECT_EQ(r.tuner_epochs, 0u);
  EXPECT_TRUE(r.tuner_trajectory.empty()) << r.tuner_trajectory;
}

// ---------------------------------------------------------------------------
// Recovery: snapshots, log compaction, crash-and-rejoin catch-up.
// ---------------------------------------------------------------------------

/// RecordingSm plus the snapshot/restore pair compaction requires (a machine
/// that returns an empty snapshot opts out of compaction entirely).
struct SnapshotSm : smr::StateMachine {
  std::vector<std::string> applied;
  void apply(Slot, util::ByteView command) override {
    applied.push_back(to_string(command));
  }
  Bytes snapshot() const override {
    util::Writer w(16);
    w.u32(static_cast<std::uint32_t>(applied.size()));
    for (const std::string& c : applied) w.str(c);
    return std::move(w).take();
  }
  bool restore(util::ByteView raw) override {
    try {
      util::Reader r(raw);
      const std::uint32_t count = r.u32();
      std::vector<std::string> out;
      out.reserve(std::min<std::size_t>(count, r.remaining() / 4));
      for (std::uint32_t i = 0; i < count; ++i) out.push_back(r.str());
      r.expect_end();
      applied = std::move(out);
      return true;
    } catch (const util::SerdeError&) {
      return false;
    }
  }
};

TEST(SmrLogRecovery, SnapshotCadenceCompactsWithoutLosingAccounting) {
  sim::Executor exec;
  core::Omega omega = core::Omega::fixed(exec, 2);
  ScriptedEngine engine(exec);
  SnapshotSm sm;
  smr::LogConfig lc;
  lc.snapshot_interval = 4;
  smr::Log log(exec, engine, omega, sm, lc);
  log.start();

  for (Slot s = 0; s < 10; ++s) {
    engine.inject(s, {to_bytes("c" + std::to_string(s))}, s + 1);
  }
  exec.run_until([&] { return log.applied_len() == 10; }, 1000);
  ASSERT_EQ(log.applied_len(), 10u);
  ASSERT_EQ(sm.applied.size(), 10u);

  // Two snapshot boundaries passed (slots 4 and 8): the applied prefix below
  // the last snapshot is gone, but every slot folded at apply — totals and
  // slot 0's decision time stay exact.
  EXPECT_GE(log.snapshots_taken(), 2u);
  EXPECT_EQ(log.slots_truncated(), 8u);
  EXPECT_EQ(log.stats().commands, 10u);
  EXPECT_EQ(log.stats().noop_slots, 0u);
  EXPECT_EQ(log.stats().first_decided_at, 1u);
}

TEST(SmrLogRecovery, CompactionIsInvisibleToReplicaStats) {
  // The same leader-driven run with and without compaction: the whole fold
  // — counts, occupancy, slot 0's time and every latency sample — must be
  // identical.
  const auto run = [](Slot interval) {
    sim::Executor exec;
    core::Omega omega = core::Omega::fixed(exec, 1);
    InstantEngine engine(exec, /*delay=*/2, /*late_return=*/false);
    SnapshotSm sm;
    smr::LogConfig lc;
    lc.window = 3;
    lc.snapshot_interval = interval;
    smr::Log log(exec, engine, omega, sm, lc);
    log.start();
    for (int i = 0; i < 13; ++i) {
      log.enqueue(smr::encode_batch({to_bytes("x" + std::to_string(i)),
                                     to_bytes("y" + std::to_string(i))}));
    }
    exec.run_until([&] { return log.quiescent(); }, 1000);
    EXPECT_EQ(log.applied_len(), 13u);
    EXPECT_EQ(log.slots_truncated(), interval == 0 ? 0u : 10u);
    return log.stats();
  };
  const smr::SlotStats plain = run(0);
  const smr::SlotStats compacted = run(5);
  EXPECT_EQ(plain.commands, 26u);
  EXPECT_EQ(plain.won_latencies.size(), 13u);
  EXPECT_EQ(plain.first_decided_at, 2u);
  EXPECT_EQ(plain, compacted);
}

TEST(SmrCluster, FirstDecisionDelaySurvivesCompaction) {
  // Slot 0's decision time folds at apply, so compacting it away no longer
  // turns the report's first decision delay into infinity.
  ClusterConfig smr = smr_config(Algorithm::kFastPaxos, 3, 0, 64, 2, 4);
  const RunReport smr_plain = harness::run_cluster(smr);
  smr.smr.snapshot_interval = 4;
  const RunReport smr_compacted = harness::run_cluster(smr);
  ASSERT_TRUE(smr_compacted.all_ok()) << smr_compacted.summary();
  EXPECT_GT(smr_compacted.slots_truncated, 0u) << smr_compacted.summary();
  EXPECT_EQ(smr_plain.first_decision_delay, 2u) << smr_plain.summary();
  EXPECT_EQ(smr_compacted.first_decision_delay,
            smr_plain.first_decision_delay);
  EXPECT_EQ(smr_compacted.first_correct_decision_delay,
            smr_plain.first_correct_decision_delay);

  ClusterConfig kv;
  kv.algo = Algorithm::kFastPaxos;
  kv.n = 3;
  kv.m = 0;
  kv.kv.enabled = true;
  kv.kv.shards = 2;
  kv.kv.clients = 8;
  kv.kv.ops_per_client = 64;
  const RunReport kv_plain = harness::run_cluster(kv);
  kv.kv.snapshot_interval = 64;
  const RunReport kv_compacted = harness::run_cluster(kv);
  ASSERT_TRUE(kv_compacted.all_ok()) << kv_compacted.summary();
  EXPECT_GT(kv_compacted.slots_truncated, 0u) << kv_compacted.summary();
  EXPECT_EQ(kv_plain.first_decision_delay, 2u) << kv_plain.summary();
  EXPECT_EQ(kv_compacted.first_decision_delay, kv_plain.first_decision_delay);
  EXPECT_EQ(kv_compacted.first_correct_decision_delay,
            kv_plain.first_correct_decision_delay);
}

TEST(SmrCluster, LeaderCrashAndRejoinCatchesUpAndConverges) {
  // p1 crashes mid-window, the cluster moves on under p2, and p1 rejoins
  // much later with wiped state: it must install a peer snapshot, replay the
  // retained suffix, and end bit-identical to the survivors — after which
  // it is the lowest-id correct process and takes leadership back.
  ClusterConfig c = smr_config(Algorithm::kFastPaxos, 3, 0, 24, 2, 4);
  c.smr.snapshot_interval = 4;
  c.faults.process_crashes[1] = 6;
  c.faults.process_rejoins[1] = 400;
  const RunReport r = harness::run_cluster(c);
  EXPECT_TRUE(r.all_ok()) << r.summary();
  EXPECT_EQ(r.processes[0].rejoined_at, 400u);
  // Full convergence — the rejoined replica too, not just the survivors.
  EXPECT_EQ(r.processes[0].log, r.processes[1].log);
  EXPECT_EQ(r.processes[1].log, r.processes[2].log);
  EXPECT_FALSE(r.processes[0].log.empty());
  EXPECT_GT(r.snapshots_taken, 0u) << r.summary();
  EXPECT_GE(r.snapshots_installed, 1u) << r.summary();
  EXPECT_GT(r.slots_truncated, 0u) << r.summary();
  EXPECT_GT(r.catchup_bytes, 0u) << r.summary();
}

TEST(SmrCluster, TwoReplicasRejoinFromDifferentSnapshotSlots) {
  // Two crashes at different depths of the same run: each rejoiner catches
  // up from whatever snapshot its serving peer holds at that moment — two
  // different base slots — and both must still converge.
  ClusterConfig c = smr_config(Algorithm::kFastPaxos, 5, 0, 20, 2, 4);
  c.smr.snapshot_interval = 4;
  c.faults.process_crashes[1] = 6;
  c.faults.process_rejoins[1] = 300;
  c.faults.process_crashes[2] = 40;
  c.faults.process_rejoins[2] = 700;
  const RunReport r = harness::run_cluster(c);
  EXPECT_TRUE(r.all_ok()) << r.summary();
  for (ProcessId p = 2; p <= 5; ++p) {
    EXPECT_EQ(r.processes[0].log, r.processes[p - 1].log) << "p" << p;
  }
  EXPECT_GE(r.snapshots_installed, 2u) << r.summary();
  EXPECT_GT(r.slots_truncated, 0u) << r.summary();
}

// Retirement (ConsensusEngine::retire_below): with a snapshot cadence the
// crash engines free each slot a snapshot behind, so every correct replica
// ends holding at most window + 2 × interval instances and hub subs, however
// long the run. Without a cadence nothing retires: one per slot, as ever.
class SmrRetire : public ::testing::TestWithParam<Algorithm> {};

TEST_P(SmrRetire, LongRunHoldsWindowPlusTwoIntervals) {
  constexpr std::size_t kSlots = 4096;
  constexpr std::size_t kWindow = 4;
  constexpr Slot kInterval = 64;
  const Algorithm algo = GetParam();
  const bool memory = algo != Algorithm::kPaxos && algo != Algorithm::kFastPaxos;
  const std::size_t n = algo == Algorithm::kDiskPaxos ||
                                algo == Algorithm::kProtectedMemoryPaxos
                            ? 2
                            : 3;
  for (const Slot interval : {kInterval, Slot{0}}) {
    ClusterConfig c = smr_config(algo, n, memory ? 3 : 0, kSlots, 1, kWindow);
    c.smr.snapshot_interval = interval;
    const RunReport r = harness::run_cluster(c);
    ASSERT_TRUE(r.all_ok()) << r.summary();
    ASSERT_EQ(r.slots_applied, kSlots) << r.summary();
    if (interval > 0) {
      EXPECT_LE(r.slot_state_held, kWindow + 2 * kInterval);
    } else {
      EXPECT_EQ(r.slot_state_held, kSlots);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    HubEngines, SmrRetire,
    ::testing::Values(Algorithm::kPaxos, Algorithm::kFastPaxos,
                      Algorithm::kDiskPaxos, Algorithm::kProtectedMemoryPaxos,
                      Algorithm::kAlignedPaxos),
    [](const ::testing::TestParamInfo<Algorithm>& info) -> std::string {
      switch (info.param) {
        case Algorithm::kPaxos: return "Paxos";
        case Algorithm::kFastPaxos: return "FastPaxos";
        case Algorithm::kDiskPaxos: return "DiskPaxos";
        case Algorithm::kProtectedMemoryPaxos: return "PMP";
        default: return "Aligned";
      }
    });

TEST(SmrCluster, RejoinerRetiresWhatItsSnapshotCovers) {
  // p1 crashes early and rejoins while p2 still drives: the rejoiner hears
  // the live slots, installs a peer snapshot, and retires everything below
  // it, so it ends as bounded as the survivors.
  constexpr std::size_t kWindow = 4;
  constexpr Slot kInterval = 64;
  ClusterConfig c =
      smr_config(Algorithm::kFastPaxos, 3, 0, 2048, 1, kWindow);
  c.smr.snapshot_interval = kInterval;
  c.faults.process_crashes[1] = 200;
  c.faults.process_rejoins[1] = 600;
  const RunReport r = harness::run_cluster(c);
  ASSERT_TRUE(r.all_ok()) << r.summary();
  EXPECT_GE(r.snapshots_installed, 1u) << r.summary();
  EXPECT_EQ(r.processes[0].log, r.processes[1].log);
  EXPECT_GT(r.slots_applied, 2 * kInterval) << r.summary();
  EXPECT_LE(r.slot_state_held, kWindow + 2 * kInterval);
}

TEST(SmrCluster, RejoinConfigIsValidated) {
  ClusterConfig c = smr_config(Algorithm::kFastPaxos, 3, 0, 8, 2, 4);
  c.faults.process_crashes[1] = 6;
  c.faults.process_rejoins[1] = 100;
  // No snapshot cadence: peers would have nothing to serve.
  EXPECT_THROW(harness::run_cluster(c), std::invalid_argument);
  c.smr.snapshot_interval = 4;

  ClusterConfig before_crash = c;
  before_crash.faults.process_rejoins[1] = 4;  // rejoin precedes the crash
  EXPECT_THROW(harness::run_cluster(before_crash), std::invalid_argument);

  ClusterConfig no_crash = c;
  no_crash.faults.process_crashes.clear();
  EXPECT_THROW(harness::run_cluster(no_crash), std::invalid_argument);

  ClusterConfig memory_engine = c;
  memory_engine.algo = Algorithm::kDiskPaxos;
  memory_engine.m = 3;
  EXPECT_THROW(harness::run_cluster(memory_engine), std::invalid_argument);

  // KV mode rejoins through the same path and validates the same way, on
  // its own snapshot knob.
  ClusterConfig kv = c;
  kv.smr.enabled = false;
  kv.kv.enabled = true;
  kv.kv.snapshot_interval = 0;
  EXPECT_THROW(harness::run_cluster(kv), std::invalid_argument);
  kv.kv.snapshot_interval = 4;
  EXPECT_NO_THROW(harness::run_cluster(kv));

  ClusterConfig kv_memory_engine = kv;
  kv_memory_engine.algo = Algorithm::kProtectedMemoryPaxos;
  kv_memory_engine.m = 3;
  EXPECT_THROW(harness::run_cluster(kv_memory_engine), std::invalid_argument);
}

TEST(SmrFaultPlan, CrashedByHorizonAccountsForRejoins) {
  harness::FaultPlan plan;
  plan.process_crashes[1] = 10;
  plan.process_crashes[2] = 20;
  EXPECT_EQ(plan.crashed_by_horizon(), 2u);
  // p1 comes back: only p2 is still down at the horizon.
  plan.process_rejoins[1] = 50;
  EXPECT_EQ(plan.crashed_by_horizon(), 1u);
  plan.process_rejoins[2] = 90;
  EXPECT_EQ(plan.crashed_by_horizon(), 0u);
}

}  // namespace
}  // namespace mnm
