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
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "src/core/engine.hpp"
#include "src/core/omega.hpp"
#include "src/core/transport_mux.hpp"
#include "src/harness/cluster.hpp"
#include "src/kv/router.hpp"
#include "src/kv/state_machine.hpp"
#include "src/kv/workload.hpp"
#include "src/net/network.hpp"
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

/// Test double: decisions are injected by the test, in any order. With
/// `control` set, the log catches up over it.
struct ScriptedEngine : core::ConsensusEngine {
  explicit ScriptedEngine(sim::Executor& exec) : ConsensusEngine(exec) {}

  ProcessId self() const override { return 1; }
  void start() override {}
  void open_slot(Slot s) override { note_slot(s); }
  sim::Task<core::Decision> propose(Slot, Bytes) override {
    throw std::logic_error("scripted engine: propose not scripted");
  }
  core::Transport* control_transport() override { return control; }
  core::Transport* control = nullptr;

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

/// Test double for the loss path in leader mode: records every proposal,
/// and the first proposal of slot 0 decides `foreign` — standing in for an
/// older leader's value the protocol adopted — instead of its own value.
/// Every other proposal decides its own value two time units later.
struct AdoptingEngine : core::ConsensusEngine {
  explicit AdoptingEngine(sim::Executor& exec) : ConsensusEngine(exec) {}

  ProcessId self() const override { return 1; }
  void start() override {}
  void open_slot(Slot s) override { note_slot(s); }
  sim::Task<core::Decision> propose(Slot s, Bytes value) override {
    note_slot(s);
    const bool adopt = s == 0 && proposals.empty();
    proposals.emplace_back(s, value);
    co_await exec_->sleep(2);
    const core::Decision d{adopt ? foreign : std::move(value), false,
                           exec_->now()};
    push_decision(s, d);
    co_return d;
  }

  Bytes foreign = smr::encode_batch({to_bytes("old")});
  std::vector<std::pair<Slot, Bytes>> proposals;
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
    leader.enqueue_commands({to_bytes("c" + std::to_string(s))});
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
      log.enqueue_commands({to_bytes("c" + std::to_string(i))});
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

TEST(SmrLog, LostGroupRequeuesAtTheFrontWithIdenticalBytes) {
  // A leader's group loses slot 0 to an adopted foreign batch. It goes back
  // to the front of the queue, ahead of the group queued after it, and its
  // next proposal carries the same bytes.
  sim::Executor exec;
  core::Omega omega = core::Omega::fixed(exec, 1);
  AdoptingEngine engine(exec);
  RecordingSm sm;
  smr::LogConfig lc;
  lc.window = 1;
  smr::Log log(exec, engine, omega, sm, lc);
  log.start();
  log.enqueue_commands({to_bytes("a1"), to_bytes("a2")});
  log.enqueue_commands({to_bytes("b")});
  exec.run_until([&] { return log.quiescent(); }, 1000);

  const Bytes group = smr::encode_batch({to_bytes("a1"), to_bytes("a2")});
  const Bytes later = smr::encode_batch({to_bytes("b")});
  ASSERT_EQ(engine.proposals.size(), 3u);
  EXPECT_EQ(engine.proposals[0], (std::pair<Slot, Bytes>{0, group}));
  EXPECT_EQ(engine.proposals[1], (std::pair<Slot, Bytes>{1, group}));
  EXPECT_EQ(engine.proposals[2], (std::pair<Slot, Bytes>{2, later}));
  const std::vector<std::pair<Slot, std::string>> order = {
      {0, "old"}, {1, "a1"}, {1, "a2"}, {2, "b"}};
  EXPECT_EQ(sm.applied, order);
  EXPECT_EQ(log.applied_len(), 3u);
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
  // all_propose with less queued work than the window: the window is
  // simply never filled; every slot still commits on every correct replica.
  const RunReport r =
      harness::run_cluster(smr_config(Algorithm::kFastRobust, 3, 3, 4, 2, 64));
  EXPECT_TRUE(r.all_ok()) << r.summary();
  // 4 commands / batch 2 = 2 groups queued at each replica, so 2 slots,
  // each won by one replica's candidate batch.
  EXPECT_EQ(r.slots_applied, 2u) << r.summary();
  EXPECT_EQ(r.commands_applied, 4u) << r.summary();
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
      log.enqueue_commands({to_bytes("x" + std::to_string(i)),
                            to_bytes("y" + std::to_string(i))});
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

/// (time sent, first slot asked for) of one catch-up request.
using Rounds = std::vector<std::pair<sim::Time, Slot>>;

/// A control channel whose peers (p2 and p3) the test plays: it records
/// every catch-up request the log sends (any other frame fails the test),
/// and answer() delivers a response from p2 at a given time.
struct ScriptedPeers : core::Transport {
  explicit ScriptedPeers(sim::Executor& exec) : exec(&exec), in(exec) {}

  ProcessId self() const override { return 1; }
  std::size_t process_count() const override { return 3; }
  void send(ProcessId, util::Buffer payload) override {
    const auto req = smr::decode_catchup_request(payload);
    ASSERT_TRUE(req.has_value());
    requests.emplace_back(exec->now(), req->from);
  }
  sim::Channel<core::TMsg>& incoming() override { return in; }

  void answer(sim::Time at, smr::CatchupResponse resp) {
    exec->call_at(at, [this, bytes = smr::encode_catchup_response(resp)] {
      in.send(core::TMsg{2, bytes});
    });
  }
  /// One request per round: the log asks both peers at once.
  Rounds rounds() const {
    Rounds out;
    for (std::size_t i = 0; i < requests.size(); i += 2) {
      out.push_back(requests[i]);
    }
    return out;
  }

  sim::Executor* exec;
  sim::Channel<core::TMsg> in;
  Rounds requests;
};

/// A recovering follower log over ScriptedPeers (Ω trusts p2).
struct RecoveringLog {
  RecoveringLog()
      : omega(core::Omega::fixed(exec, 2)),
        engine(exec),
        peers(exec),
        log(exec, engine, omega, sm, config()) {
    engine.control = &peers;
    log.start();
  }
  static smr::LogConfig config() {
    smr::LogConfig lc;
    lc.snapshot_interval = 4;
    lc.recover = true;
    return lc;
  }

  sim::Executor exec;
  core::Omega omega;
  ScriptedEngine engine;
  ScriptedPeers peers;
  SnapshotSm sm;
  smr::Log log;
};

TEST(SmrLogRecovery, SilentPeersEndTheHoldAfterFourRounds) {
  // Nobody answers: each round runs to its kCatchupTimeout cap, and the
  // fourth silent round lifts the hold rather than holding proposals
  // forever.
  RecoveringLog r;
  r.exec.run(4 * smr::kCatchupTimeout - 1);
  EXPECT_TRUE(r.log.recovering());
  r.exec.run(4 * smr::kCatchupTimeout);
  EXPECT_FALSE(r.log.recovering());
  EXPECT_EQ(r.peers.rounds(), (Rounds{{0, 0}, {8, 0}, {16, 0}, {24, 0}}));
  r.exec.run();
  EXPECT_EQ(r.peers.rounds().size(), 4u);  // no stash, no gap watch round
}

TEST(SmrLogRecovery, IncompleteAnswerAsksAgainAtOnce) {
  // An answer capped at kMaxCatchupSlots, then one whose snapshot the
  // machine rejects: each starts the next round the moment it lands. The
  // level answer that follows lifts the hold.
  RecoveringLog r;
  smr::CatchupResponse capped;
  for (std::size_t i = 0; i < smr::kMaxCatchupSlots; ++i) {
    capped.payloads.push_back(
        smr::encode_batch({to_bytes("c" + std::to_string(i))}));
  }
  r.peers.answer(2, capped);
  smr::CatchupResponse forged;
  forged.snap_slot = 600;
  forged.snapshot = to_bytes("not a snapshot");
  r.peers.answer(4, forged);
  smr::CatchupResponse level;
  level.first_slot = smr::kMaxCatchupSlots;
  r.peers.answer(6, level);

  r.exec.run(5);
  EXPECT_TRUE(r.log.recovering());
  r.exec.run(6);
  EXPECT_FALSE(r.log.recovering());
  constexpr Slot kCap = smr::kMaxCatchupSlots;
  EXPECT_EQ(r.peers.rounds(), (Rounds{{0, 0}, {2, kCap}, {4, kCap}}));
  EXPECT_EQ(r.log.applied_len(), kCap);
  EXPECT_EQ(r.sm.applied.size(), kCap);
  EXPECT_EQ(r.log.catchup_rejected(), 1u);
}

TEST(SmrLogRecovery, HaltWakesAWaitingRound) {
  // halt() ends the driver's round at once instead of at its cap: after
  // the halt at 3 only the apply and control loops, parked on their
  // channels, are left.
  RecoveringLog r;
  r.exec.run(2);
  EXPECT_EQ(r.exec.live_roots(), 4u);  // apply, pump, control, catch-up
  r.exec.call_at(3, [&] { r.log.halt(); });
  r.exec.run(3);
  EXPECT_EQ(r.exec.live_roots(), 2u);
  EXPECT_EQ(r.peers.rounds(), (Rounds{{0, 0}}));
}

TEST(SmrLogRecovery, GapWatchAsksForAStalledGapAfterOneGrace) {
  // Past recovery, a decision stashed behind a missing slot gets one grace
  // period for the missing DECIDE; then the log asks for the gap, and
  // the answer applies both slots in order.
  constexpr sim::Time kInject = 10;
  RecoveringLog r;
  r.peers.answer(2, smr::CatchupResponse{});  // level: the hold lifts
  r.exec.call_at(kInject,
                 [&] { r.engine.inject(1, {to_bytes("c1")}, kInject); });
  smr::CatchupResponse gap;
  gap.payloads.push_back(smr::encode_batch({to_bytes("c0")}));
  r.peers.answer(kInject + smr::kCatchupTimeout + 1, gap);

  r.exec.run(kInject + smr::kCatchupTimeout - 1);
  EXPECT_FALSE(r.log.recovering());
  EXPECT_EQ(r.log.applied_len(), 0u);
  EXPECT_EQ(r.peers.rounds(), (Rounds{{0, 0}}));
  r.exec.run();
  EXPECT_EQ(r.peers.rounds(),
            (Rounds{{0, 0}, {kInject + smr::kCatchupTimeout, 0}}));
  EXPECT_EQ(r.log.applied_len(), 2u);
  EXPECT_EQ(r.sm.applied, (std::vector<std::string>{"c0", "c1"}));
}

TEST(SmrLogRecovery, GapFilledWithinTheGraceSendsNothing) {
  // The missing DECIDE lands one delay before the grace period ends: both
  // slots apply from their decisions and the log asks for nothing.
  constexpr sim::Time kInject = 10;
  RecoveringLog r;
  r.peers.answer(2, smr::CatchupResponse{});
  r.exec.call_at(kInject,
                 [&] { r.engine.inject(1, {to_bytes("c1")}, kInject); });
  r.exec.call_at(kInject + smr::kCatchupTimeout - 1, [&] {
    r.engine.inject(0, {to_bytes("c0")}, kInject + smr::kCatchupTimeout - 1);
  });
  r.exec.run();
  EXPECT_EQ(r.peers.rounds(), (Rounds{{0, 0}}));
  EXPECT_EQ(r.log.applied_len(), 2u);
  EXPECT_EQ(r.sm.applied, (std::vector<std::string>{"c0", "c1"}));
}

/// SnapshotSm with a drain hook: the "range" request exports every command
/// applied so far, "c0;c1;...", once anything has applied.
struct ExportingSm : SnapshotSm {
  Bytes export_range(util::ByteView request) const override {
    if (to_string(request) != "range" || applied.empty()) return {};
    std::string out;
    for (const std::string& c : applied) out += c + ";";
    return to_bytes(out);
  }
};

/// One fetch_range call's outcome.
struct Fetched {
  bool done = false;
  sim::Time at = 0;
  std::string bytes;
};

/// Fetch `request`, accepting only an export that holds "seal".
sim::Task<void> fetch_sealed(sim::Executor* exec, smr::Log* log,
                             std::string request, Fetched* out) {
  const Bytes got = co_await log->fetch_range(
      to_bytes(request), [](util::ByteView b) {
        return to_string(b).find("seal") != std::string::npos;
      });
  out->done = true;
  out->at = exec->now();
  out->bytes = to_string(got);
}

TEST(SmrLog, FetchRangeResolvesAtTheLocalApplyAndSendsNothing) {
  // The drain reads this replica's own machine: the fetch resolves at the
  // apply that makes the export usable (the earlier, rejected export does
  // not end it), sends nothing on the control channel, and resolves empty
  // when the log halts first.
  sim::Executor exec;
  core::Omega omega = core::Omega::fixed(exec, 2);
  ScriptedEngine engine(exec);
  ScriptedPeers peers(exec);
  engine.control = &peers;
  ExportingSm sm;
  smr::Log log(exec, engine, omega, sm, smr::LogConfig{});
  log.start();
  Fetched range, never;
  exec.spawn(fetch_sealed(&exec, &log, "range", &range));
  exec.spawn(fetch_sealed(&exec, &log, "other", &never));
  exec.call_at(5, [&] { engine.inject(0, {to_bytes("a")}, 5); });
  exec.call_at(9, [&] { engine.inject(1, {to_bytes("seal")}, 9); });
  exec.call_at(20, [&] { log.halt(); });

  exec.run(8);
  EXPECT_EQ(log.applied_len(), 1u);
  EXPECT_FALSE(range.done);
  exec.run(9);
  ASSERT_TRUE(range.done);
  EXPECT_EQ(range.at, 9u);
  EXPECT_EQ(range.bytes, "a;seal;");
  EXPECT_FALSE(never.done);
  exec.run();
  ASSERT_TRUE(never.done);
  EXPECT_EQ(never.at, 20u);
  EXPECT_EQ(never.bytes, "");
  EXPECT_TRUE(peers.requests.empty());
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
}

TEST(SmrCluster, LeaderCrashAndRejoinCatchesUpAndConverges) {
  // p1 crashes mid-window, the cluster moves on under p2, and p1 rejoins
  // much later with wiped state: it must install a peer snapshot, replay the
  // retained suffix, and end bit-identical to the survivors — after which
  // it is the lowest-id correct process and takes leadership back.
  // However long p1 stays down, the recovery costs the same: one snapshot
  // installed, 56 slots truncated and 1362 catch-up bytes.
  for (const sim::Time rejoin_at :
       {sim::Time{300}, sim::Time{400}, sim::Time{900}}) {
    ClusterConfig c = smr_config(Algorithm::kFastPaxos, 3, 0, 24, 2, 4);
    c.smr.snapshot_interval = 4;
    c.faults.process_crashes[1] = 6;
    c.faults.process_rejoins[1] = rejoin_at;
    const RunReport r = harness::run_cluster(c);
    EXPECT_TRUE(r.all_ok()) << r.summary();
    EXPECT_EQ(r.processes[0].rejoined_at, rejoin_at);
    // Full convergence — the rejoined replica too, not just the survivors.
    EXPECT_EQ(r.processes[0].log, r.processes[1].log);
    EXPECT_EQ(r.processes[1].log, r.processes[2].log);
    EXPECT_FALSE(r.processes[0].log.empty());
    EXPECT_GT(r.snapshots_taken, 0u) << r.summary();
    EXPECT_EQ(r.snapshots_installed, 1u) << r.summary();
    EXPECT_EQ(r.slots_truncated, 56u) << r.summary();
    EXPECT_EQ(r.catchup_bytes, 1362u) << r.summary();
  }
}

TEST(SmrCluster, TwoReplicasRejoinFromDifferentSnapshotSlots) {
  // Two crashes at different depths of the same run: each rejoiner catches
  // up from whatever snapshot its serving peer holds at that moment — two
  // different base slots — and both must still converge. Each run installs
  // two snapshots; the truncated slots and catch-up bytes grow with the
  // workload.
  struct Row {
    std::size_t commands;
    std::uint64_t truncated, catchup_bytes;
  };
  for (const Row& row : {Row{20, 112, 5985}, Row{24, 140, 7049}}) {
    ClusterConfig c =
        smr_config(Algorithm::kFastPaxos, 5, 0, row.commands, 2, 4);
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
    EXPECT_EQ(r.snapshots_installed, 2u) << r.summary();
    EXPECT_EQ(r.slots_truncated, row.truncated) << r.summary();
    EXPECT_EQ(r.catchup_bytes, row.catchup_bytes) << r.summary();
  }
}

TEST(SmrCluster, FollowerRejoinUnderLoadFetchesOneSnapshot) {
  // perf_guards_test's i4 rejoin row: p3 crashes at 6 and rejoins at 60
  // while p1 keeps deciding. The rejoiner installs one snapshot and connects
  // to the live decision stream, so its hold lifts after the answered round.
  // A rejoiner that waited for a round in which nothing applied would never
  // see one while decisions stream in, and would re-fetch a fresh snapshot
  // every round.
  ClusterConfig c = smr_config(Algorithm::kFastPaxos, 3, 0, 512, 2, 4);
  c.smr.snapshot_interval = 4;
  c.faults.process_crashes[3] = 6;
  c.faults.process_rejoins[3] = 60;
  const RunReport r = harness::run_cluster(c);
  ASSERT_TRUE(r.all_ok()) << r.summary();
  EXPECT_EQ(r.processes[0].log, r.processes[2].log);
  EXPECT_EQ(r.snapshots_installed, 1u) << r.summary();
  EXPECT_EQ(r.catchup_bytes, 6918u) << r.summary();
}

TEST(SmrCluster, RejoinedLeaderServesWithinEightDelays) {
  // Fast Paxos KV under load: p1 crashes at 100 and rejoins at 200, and Ω
  // trusts it at once. Its hold lifts when its peers' answers land, 2
  // delays after it asks, and its term's PREPARE and PROMISEs take the
  // rest: no op waits more than 8 delays.
  ClusterConfig c;
  c.algo = Algorithm::kFastPaxos;
  c.n = 3;
  c.m = 0;
  c.kv.enabled = true;
  c.kv.shards = 2;
  c.kv.clients = 8;
  c.kv.ops_per_client = 128;
  c.kv.window = 4;
  c.kv.batch = 4;
  c.kv.snapshot_interval = 16;
  c.faults.process_crashes[1] = 100;
  c.faults.process_rejoins[1] = 200;
  const RunReport r = harness::run_cluster(c);
  ASSERT_TRUE(r.all_ok()) << r.summary();
  EXPECT_EQ(r.kv_ops, 8u * 128u);
  EXPECT_EQ(r.snapshots_installed, 2u) << r.summary();
  EXPECT_LE(r.kv_op_p999, 8u) << r.summary();
  EXPECT_EQ(r.catchup_bytes, 8962u) << r.summary();
}

// Retirement (ConsensusEngine::retire_below): the crash engines free each
// slot a window behind the applied prefix, with or without a snapshot
// cadence, so every correct replica ends holding exactly a window of
// instances and hub subs, however long the run.
class SmrRetire : public ::testing::TestWithParam<Algorithm> {};

TEST_P(SmrRetire, LongRunHoldsOneWindow) {
  constexpr std::size_t kSlots = 4096;
  constexpr std::size_t kWindow = 4;
  const Algorithm algo = GetParam();
  const bool memory = algo != Algorithm::kPaxos && algo != Algorithm::kFastPaxos;
  const std::size_t n = algo == Algorithm::kDiskPaxos ||
                                algo == Algorithm::kProtectedMemoryPaxos
                            ? 2
                            : 3;
  for (const Slot interval : {Slot{64}, Slot{0}}) {
    ClusterConfig c = smr_config(algo, n, memory ? 3 : 0, kSlots, 1, kWindow);
    c.smr.snapshot_interval = interval;
    const RunReport r = harness::run_cluster(c);
    ASSERT_TRUE(r.all_ok()) << r.summary();
    ASSERT_EQ(r.slots_applied, kSlots) << r.summary();
    EXPECT_EQ(r.slot_state_held, kWindow) << "interval " << interval;
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
  // it, so it ends holding one window, as the survivors do.
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
  EXPECT_LE(r.slot_state_held, kWindow);
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

// Leader churn. A scripted Ω moves the leader p1 → p2 → p3 → p1 … every k
// delays for the first kChurn delays (the seed shifts the phase), then gives
// p2, p3 and p1 one long stable stretch each and settles on p1, so every
// replica's queue drains. The cluster is wired by hand, as in
// examples/kv_store.cpp, because the harness's Ω is lowest-alive. Under
// Fast Paxos every churn step ends a term and starts one; Paxos is the
// per-slot two-phase control. SMR and a 2-shard KV, seeds 1–8: agreement,
// validity, termination, and Σ applies == ops.
struct ChurnCluster {
  static constexpr std::size_t kN = 3;
  static constexpr sim::Time kChurn = 120;
  static constexpr sim::Time kStretch = 200;
  static constexpr std::size_t kCommands = 16;  // per SMR replica

  ChurnCluster(bool fast, bool kv, sim::Time k, std::uint64_t seed)
      : k(k),
        seed(seed),
        network(exec, kN),
        omega(exec, [this](sim::Time t) { return leader(t); }, true) {
    core::PaxosConfig pc;
    pc.leader_terms = fast;
    smr::ReplicaConfig rc;
    rc.batch = 2;
    rc.log.window = 4;
    for (ProcessId p : all_processes(kN)) {
      transports.push_back(
          std::make_unique<core::NetTransport>(exec, network, p, /*tag=*/100));
      if (kv) {
        muxes.push_back(
            std::make_unique<core::TransportMux>(exec, *transports.back()));
      }
    }
    const std::size_t groups = kv ? 2 : 1;
    for (std::size_t g = 0; g < groups; ++g) {
      for (ProcessId p : all_processes(kN)) {
        core::Transport& t =
            kv ? muxes[p - 1]->sub(static_cast<std::uint8_t>(g))
               : *transports[p - 1];
        engines.push_back(std::make_unique<core::PaxosEngine>(exec, t, omega, pc));
        if (kv) {
          machines.push_back(std::make_unique<kv::StateMachine>());
        } else {
          machines.push_back(std::make_unique<RecordingSm>());
        }
        replicas.push_back(std::make_unique<smr::Replica>(
            exec, *engines.back(), omega, *machines.back(), rc));
      }
    }
    // Every change of Ω's output is poked, as the harness does at faults.
    for (sim::Time t = 0; t <= kChurn + 2 * kStretch; ++t) {
      if (t == 0 || leader(t) != leader(t - 1)) {
        exec.call_at(t, [this] { omega.poke(); });
      }
    }
    if (kv) {
      std::vector<kv::ShardBackend> backends(groups);
      for (std::size_t i = 0; i < replicas.size(); ++i) {
        backends[i / kN].replicas.push_back(replicas[i].get());
        backends[i / kN].machines.push_back(
            static_cast<kv::StateMachine*>(machines[i].get()));
      }
      router = std::make_unique<kv::Router>(exec, omega, kv::ShardMap(groups),
                                            std::move(backends),
                                            kv::RouterConfig{});
      kv::WorkloadConfig wc;
      wc.clients = 6;
      wc.ops_per_client = 12;
      wc.keys = 32;
      wc.seed = seed;
      workload = std::make_unique<kv::Workload>(exec, *router, wc);
    }
    for (auto& m : muxes) m->start();
    for (auto& e : engines) e->start();
    for (auto& r : replicas) r->start();
  }

  ProcessId leader(sim::Time t) const {
    if (t < kChurn) return static_cast<ProcessId>(((t + seed) / k) % kN) + 1;
    const sim::Time stretch = (t - kChurn) / kStretch;
    return stretch < 2 ? static_cast<ProcessId>(stretch + 2) : kLeaderP1;
  }

  /// Every replica of every group applied the same number of slots.
  bool drained() const {
    for (std::size_t i = 0; i < replicas.size(); ++i) {
      if (replicas[i]->log().applied_len() !=
          replicas[i - i % kN]->log().applied_len()) {
        return false;
      }
    }
    return true;
  }

  sim::Time k;
  std::uint64_t seed;
  sim::Executor exec;
  net::Network network;
  core::Omega omega;
  std::vector<std::unique_ptr<core::NetTransport>> transports;
  std::vector<std::unique_ptr<core::TransportMux>> muxes;
  std::vector<std::unique_ptr<core::PaxosEngine>> engines;  // [group × p]
  std::vector<std::unique_ptr<smr::StateMachine>> machines;
  std::vector<std::unique_ptr<smr::Replica>> replicas;
  std::unique_ptr<kv::Router> router;
  std::unique_ptr<kv::Workload> workload;
};

class LeaderChurn
    : public ::testing::TestWithParam<std::tuple<bool, bool, sim::Time>> {};

TEST_P(LeaderChurn, AgreesAndAppliesEveryOpOnce) {
  const auto [fast, kv, k] = GetParam();
  constexpr sim::Time kHorizon = 20000;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    ChurnCluster c(fast, kv, k, seed);
    // Under Fast Paxos the churn must really move terms around.
    const auto prepares = [&] {
      std::uint64_t sum = 0;
      for (const auto& e : c.engines) {
        if (e->term() != nullptr) sum += e->term()->prepares_sent();
      }
      return sum;
    };
    if (kv) {
      c.workload->start();
      ASSERT_TRUE(c.exec.run_until([&] { return c.workload->done(); },
                                   kHorizon));
      ASSERT_TRUE(c.exec.run_until([&] { return c.drained(); }, kHorizon));
      std::uint64_t applied = 0;
      for (std::size_t i = 0; i < c.machines.size(); ++i) {
        const auto& sm = static_cast<const kv::StateMachine&>(*c.machines[i]);
        const auto& ref = static_cast<const kv::StateMachine&>(
            *c.machines[i - i % ChurnCluster::kN]);
        EXPECT_EQ(sm.store_hash(), ref.store_hash()) << "machine " << i;
        EXPECT_EQ(sm.malformed(), 0u);
        if (i % ChurnCluster::kN == 0) applied += sm.ops_applied();
      }
      EXPECT_EQ(applied, c.workload->stats().ops);
      EXPECT_EQ(c.workload->stats().ops, 6u * 12u);
      if (fast) {
      EXPECT_GE(prepares(), 2u);
    }
      continue;
    }
    std::vector<std::string> submitted;
    for (ProcessId p : all_processes(ChurnCluster::kN)) {
      for (std::size_t i = 0; i < ChurnCluster::kCommands; ++i) {
        submitted.push_back("p" + std::to_string(p) + "-" + std::to_string(i));
        c.replicas[p - 1]->submit(to_bytes(submitted.back()));
      }
      c.replicas[p - 1]->flush();
    }
    const auto log_of = [&](ProcessId p) {
      std::vector<std::string> out;
      for (const auto& [slot, cmd] :
           static_cast<const RecordingSm&>(*c.machines[p - 1]).applied) {
        out.push_back(cmd);
      }
      return out;
    };
    ASSERT_TRUE(c.exec.run_until(
        [&] {
          for (ProcessId p : all_processes(ChurnCluster::kN)) {
            if (log_of(p).size() < submitted.size()) return false;
          }
          return true;
        },
        kHorizon));
    c.exec.run(c.exec.now() + 100);
    const std::vector<std::string> log = log_of(1);
    EXPECT_EQ(log_of(2), log);
    EXPECT_EQ(log_of(3), log);
    std::vector<std::string> sorted = log;
    std::sort(sorted.begin(), sorted.end());
    std::sort(submitted.begin(), submitted.end());
    EXPECT_EQ(sorted, submitted);  // each command exactly once, none other
    if (fast) {
      EXPECT_GE(prepares(), 2u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Engines, LeaderChurn,
    ::testing::Combine(::testing::Bool(), ::testing::Bool(),
                       ::testing::Values(sim::Time{1}, sim::Time{3},
                                         sim::Time{8})),
    [](const ::testing::TestParamInfo<LeaderChurn::ParamType>& info) {
      return std::string(std::get<0>(info.param) ? "FastPaxos" : "Paxos") +
             (std::get<1>(info.param) ? "_Kv" : "_Smr") + "_k" +
             std::to_string(std::get<2>(info.param));
    });

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
