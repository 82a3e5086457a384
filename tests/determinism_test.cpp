// Fixed-seed determinism of whole-cluster runs.
//
// The event-loop refactor (pooled events, inline callbacks, opt-in cancel
// cells) must preserve the executor's (time, seq) ordering contract exactly:
// the same seed has to produce the same decisions, the same decision times,
// and the same operation counts, run after run. These tests pin that for
// every algorithm, including runs with faults.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/harness/cluster.hpp"

namespace mnm::harness {
namespace {

/// Run `cfg` twice: the reports must be equal field for field, every
/// per-process row included.
void expect_deterministic(ClusterConfig cfg, bool check_ok = true) {
  const RunReport a = run_cluster(cfg);
  const RunReport b = run_cluster(cfg);
  if (check_ok) {
    EXPECT_TRUE(a.all_ok()) << a.summary();
  }
  EXPECT_TRUE(a == b) << "run 1: " << a.summary()
                     << "\nrun 2: " << b.summary();
}

TEST(Determinism, FastPaxosSameSeedSameRun) {
  ClusterConfig c;
  c.algo = Algorithm::kFastPaxos;
  c.n = 3;
  c.m = 0;
  c.seed = 42;
  expect_deterministic(c);
}

TEST(Determinism, ProtectedMemoryPaxosSameSeedSameRun) {
  ClusterConfig c;
  c.algo = Algorithm::kProtectedMemoryPaxos;
  c.n = 2;
  c.m = 3;
  c.seed = 42;
  expect_deterministic(c);
}

TEST(Determinism, AlignedPaxosSameSeedSameRun) {
  ClusterConfig c;
  c.algo = Algorithm::kAlignedPaxos;
  c.n = 3;
  c.m = 3;
  c.seed = 42;
  expect_deterministic(c);
}

TEST(Determinism, FastRobustSameSeedSameRun) {
  ClusterConfig c;
  c.algo = Algorithm::kFastRobust;
  c.n = 3;
  c.m = 3;
  c.seed = 42;
  expect_deterministic(c);
}

TEST(Determinism, FastRobustWithByzantineLeaderSameSeedSameRun) {
  ClusterConfig c;
  c.algo = Algorithm::kFastRobust;
  c.n = 3;
  c.m = 3;
  c.seed = 7;
  c.faults.byzantine[1] = ByzantineStrategy::kCqLeaderEquivocate;
  // This attack config trips the harness's (strict) validity accounting in
  // the seed too; what this test pins is reproducibility under faults.
  expect_deterministic(c, /*check_ok=*/false);
}

TEST(Determinism, SingleShotCostsPinned) {
  // The paper's per-instance costs at the seven default single-shot shapes
  // (seed 1): first decision delay, messages, memory reads and writes,
  // permission changes and signatures, then every process's decision time.
  // Executor events are not pinned: how many bookkeeping events an engine
  // spends around the protocol (slot demux, discovery, decision watchers)
  // is not a protocol cost.
  struct Pin {
    Algorithm algo;
    std::size_t n, m;
    sim::Time delay;
    std::uint64_t msgs, reads, writes, perms, sigs;
    std::vector<sim::Time> decided_at;
  };
  const std::vector<Pin> pins = {
      {Algorithm::kPaxos, 3, 0, 4, 14, 0, 0, 0, 0, {4, 5, 5}},
      {Algorithm::kFastPaxos, 3, 0, 2, 8, 0, 0, 0, 0, {2, 3, 3}},
      {Algorithm::kDiskPaxos, 2, 3, 4, 1, 6, 3, 0, 0, {4, 5}},
      {Algorithm::kProtectedMemoryPaxos, 2, 3, 2, 1, 0, 3, 0, 0, {2, 3}},
      {Algorithm::kAlignedPaxos, 3, 3, 8, 14, 9, 6, 3, 0, {8, 9, 9}},
      {Algorithm::kRobustBackup, 3, 3, 58, 0, 405, 108, 0, 54, {58, 72, 72}},
      {Algorithm::kFastRobust, 3, 3, 2, 0, 90, 21, 0, 7, {2, 10, 10}},
  };
  for (const Pin& pin : pins) {
    ClusterConfig c;
    c.algo = pin.algo;
    c.n = pin.n;
    c.m = pin.m;
    c.seed = 1;
    const RunReport r = run_cluster(c);
    const char* name = algorithm_name(pin.algo);
    ASSERT_TRUE(r.all_ok()) << name << ": " << r.summary();
    EXPECT_EQ(r.decided_value, "value-1") << name;
    EXPECT_EQ(r.first_decision_delay, pin.delay) << name;
    EXPECT_EQ(r.messages_sent, pin.msgs) << name;
    EXPECT_EQ(r.mem_reads, pin.reads) << name;
    EXPECT_EQ(r.mem_writes, pin.writes) << name;
    EXPECT_EQ(r.permission_changes, pin.perms) << name;
    EXPECT_EQ(r.signatures, pin.sigs) << name;
    ASSERT_EQ(r.processes.size(), pin.n) << name;
    for (std::size_t i = 0; i < pin.n; ++i) {
      EXPECT_EQ(r.processes[i].decided_at, pin.decided_at[i])
          << name << " p" << i + 1;
    }
  }
}

TEST(Determinism, FailoverCostsPinned) {
  // The crash protocols' costs when p1 (or a memory) fails (seed 1, n = 3,
  // m = 3 for the memory protocols): these shapes reach phase-1 adoption
  // and retries, which the fault-free shapes above never do. Pins the
  // decided value, first decision delay, messages, memory reads, writes and
  // permission changes, executor events, and every process's decision time
  // (0 for a process that crashed undecided). A write p1 issued before its
  // crash still lands, but p1 never resumes from it: PMP's p1 at 1 and Disk
  // Paxos's p1 at 3 decide nothing, and the first decision is p2's.
  enum class Fault { kP1At1, kP1At3LateGst, kMemory1At0 };
  struct Pin {
    Algorithm algo;
    Fault fault;
    const char* value;
    sim::Time delay;
    std::uint64_t msgs, reads, writes, perms, events;
    std::vector<sim::Time> decided_at;
  };
  const std::vector<Pin> pins = {
      {Algorithm::kPaxos, Fault::kP1At1, "value-2", 5, 17, 0, 0, 0, 58,
       {0, 5, 6}},
      // Fast Paxos: p2 takes over with one term PREPARE, whose frames the
      // slot hub hands to the term inline (58 events as a per-slot round).
      {Algorithm::kFastPaxos, Fault::kP1At1, "value-1", 5, 17, 0, 0, 0, 55,
       {0, 5, 6}},
      {Algorithm::kDiskPaxos, Fault::kP1At1, "value-1", 9, 2, 18, 9, 0, 66,
       {0, 9, 10}},
      {Algorithm::kProtectedMemoryPaxos, Fault::kP1At1, "value-1", 9, 2, 9, 9,
       3, 66, {0, 9, 10}},
      {Algorithm::kAlignedPaxos, Fault::kP1At1, "value-2", 9, 17, 9, 6, 6, 99,
       {0, 9, 10}},
      {Algorithm::kPaxos, Fault::kP1At3LateGst, "value-2", 23, 17, 0, 0, 0, 58,
       {0, 23, 24}},
      {Algorithm::kFastPaxos, Fault::kP1At3LateGst, "value-1", 23, 17, 0, 0, 0,
       55, {0, 23, 24}},
      {Algorithm::kDiskPaxos, Fault::kP1At3LateGst, "value-1", 11, 2, 27, 9, 0,
       72, {0, 11, 16}},
      {Algorithm::kProtectedMemoryPaxos, Fault::kP1At3LateGst, "value-1", 2, 4,
       9, 9, 3, 70, {2, 7, 7}},
      {Algorithm::kAlignedPaxos, Fault::kP1At3LateGst, "value-2", 23, 17, 9, 9,
       6, 105, {0, 23, 24}},
      {Algorithm::kDiskPaxos, Fault::kMemory1At0, "value-1", 4, 2, 6, 2, 0, 41,
       {4, 5, 5}},
      {Algorithm::kProtectedMemoryPaxos, Fault::kMemory1At0, "value-1", 2, 2, 0,
       2, 0, 37, {2, 3, 3}},
      {Algorithm::kAlignedPaxos, Fault::kMemory1At0, "value-1", 8, 14, 6, 4, 2,
       85, {8, 9, 9}},
  };
  for (const Pin& pin : pins) {
    ClusterConfig c;
    c.algo = pin.algo;
    c.n = 3;
    c.m = (pin.algo == Algorithm::kPaxos || pin.algo == Algorithm::kFastPaxos)
              ? 0
              : 3;
    c.seed = 1;
    switch (pin.fault) {
      case Fault::kP1At1:
        c.faults.process_crashes[1] = 1;
        break;
      case Fault::kP1At3LateGst:
        c.faults.process_crashes[1] = 3;
        c.gst = 20;
        c.pre_gst_delay = 5;
        break;
      case Fault::kMemory1At0:
        c.faults.memory_crashes[1] = 0;
        break;
    }
    const RunReport r = run_cluster(c);
    const std::string name = std::string(algorithm_name(pin.algo)) + " fault " +
                             std::to_string(static_cast<int>(pin.fault));
    ASSERT_TRUE(r.all_ok()) << name << ": " << r.summary();
    EXPECT_EQ(r.decided_value, pin.value) << name;
    EXPECT_EQ(r.first_decision_delay, pin.delay) << name;
    EXPECT_EQ(r.messages_sent, pin.msgs) << name;
    EXPECT_EQ(r.mem_reads, pin.reads) << name;
    EXPECT_EQ(r.mem_writes, pin.writes) << name;
    EXPECT_EQ(r.permission_changes, pin.perms) << name;
    EXPECT_EQ(r.events, pin.events) << name;
    ASSERT_EQ(r.processes.size(), pin.decided_at.size()) << name;
    for (std::size_t i = 0; i < pin.decided_at.size(); ++i) {
      EXPECT_EQ(r.processes[i].decided_at, pin.decided_at[i])
          << name << " p" << i + 1;
    }
  }
}

TEST(Determinism, FailoverKeepsTheTwoDelayCommonCase) {
  // KV, 1 shard, 8 clients × 64 ops, window = batch = 4, seed 1. With p1
  // crashed at 0, Fast Paxos's p2 runs phase 1 once — a 2-delay PREPARE /
  // PROMISE before the first window — and every slot after it in 2 delays
  // (op p50 4 and 2000 ops/kdelay with a phase 1 per slot). 512 ops over
  // 130 delays is 3938 ops/kdelay, against 4000 with p1 alive. Paxos, the
  // per-slot two-phase control, stays at 4 delays either way.
  struct Pin {
    Algorithm algo;
    bool p1_crashed;
    sim::Time op_p50;
    double ops_per_kdelay;
    std::uint64_t msgs, events;
  };
  const std::vector<Pin> pins = {
      {Algorithm::kFastPaxos, false, 2, 4000.0, 1024, 4889},
      {Algorithm::kFastPaxos, true, 2, 512000.0 / 130, 901, 3878},
      {Algorithm::kPaxos, true, 4, 2000.0, 1536, 5401},
  };
  for (const Pin& pin : pins) {
    ClusterConfig c;
    c.algo = pin.algo;
    c.n = 3;
    c.m = 0;
    c.seed = 1;
    c.kv.enabled = true;
    c.kv.shards = 1;
    c.kv.clients = 8;
    c.kv.ops_per_client = 64;
    c.kv.window = 4;
    c.kv.batch = 4;
    if (pin.p1_crashed) c.faults.process_crashes[1] = 0;
    const RunReport r = run_cluster(c);
    const std::string name = std::string(algorithm_name(pin.algo)) +
                             (pin.p1_crashed ? " p1 crashed at 0" : "");
    ASSERT_TRUE(r.all_ok()) << name << ": " << r.summary();
    EXPECT_EQ(r.kv_ops, 512u) << name;
    EXPECT_EQ(r.kv_op_p50, pin.op_p50) << name;
    EXPECT_DOUBLE_EQ(r.kv_ops_per_kdelay, pin.ops_per_kdelay) << name;
    EXPECT_EQ(r.messages_sent, pin.msgs) << name;
    EXPECT_EQ(r.events, pin.events) << name;
  }
}

TEST(Determinism, PaxosWithCrashSameSeedSameRun) {
  ClusterConfig c;
  c.algo = Algorithm::kPaxos;
  c.n = 3;
  c.m = 0;
  c.seed = 11;
  c.faults.process_crashes[2] = 5;
  expect_deterministic(c);
}

// --- SMR mode: the pipelined log is deterministic too. ---

TEST(Determinism, SmrFastPaxosPipelineSameSeedSameRun) {
  ClusterConfig c;
  c.algo = Algorithm::kFastPaxos;
  c.n = 3;
  c.m = 0;
  c.seed = 42;
  c.smr.enabled = true;
  c.smr.commands = 24;
  c.smr.batch = 2;
  c.smr.window = 4;
  expect_deterministic(c);
}

TEST(Determinism, SmrLeaderCrashMidWindowSameSeedSameRun) {
  ClusterConfig c;
  c.algo = Algorithm::kFastPaxos;
  c.n = 3;
  c.m = 0;
  c.seed = 7;
  c.smr.enabled = true;
  c.smr.commands = 24;
  c.smr.batch = 2;
  c.smr.window = 4;
  c.faults.process_crashes[1] = 6;
  expect_deterministic(c);
}

TEST(Determinism, SmrFastRobustWithByzantineLeaderSameSeedSameRun) {
  ClusterConfig c;
  c.algo = Algorithm::kFastRobust;
  c.n = 3;
  c.m = 3;
  c.seed = 9;
  c.smr.enabled = true;
  c.smr.commands = 4;
  c.smr.batch = 2;
  c.smr.window = 2;
  c.faults.byzantine[1] = ByzantineStrategy::kCqLeaderEquivocate;
  // As in the single-shot Byzantine pin: what matters is reproducibility.
  expect_deterministic(c, /*check_ok=*/false);
}

TEST(Determinism, SmrFastRobustBackupPathSameSeedSameRun) {
  // Backup-heavy schedule (Byzantine CQ leader + impatient followers): every
  // slot runs the t-send path, so this fingerprint — which includes the
  // suffix-decode counters — pins that the decode optimization changes cost
  // accounting deterministically and leaves the (time, seq) schedule alone.
  ClusterConfig c;
  c.algo = Algorithm::kFastRobust;
  c.n = 3;
  c.m = 3;
  c.seed = 13;
  c.cq_timeout = 10;
  c.smr.enabled = true;
  c.smr.commands = 6;
  c.smr.batch = 2;
  c.smr.window = 2;
  c.faults.byzantine[1] = ByzantineStrategy::kCqLeaderEquivocate;
  const RunReport a = run_cluster(c);
  EXPECT_GT(a.tsend_deliveries, 0u) << a.summary();
  EXPECT_GT(a.history_entries_skipped, 0u) << a.summary();
  expect_deterministic(c, /*check_ok=*/false);
}

TEST(Determinism, SmrMemoryEnginesSameSeedSameRun) {
  // The memory engines in SMR mode — Disk Paxos, Protected Memory Paxos and
  // Aligned Paxos — create each slot's regions on demand and talk over one
  // NetTransport per process. Their memory and message traffic must replay
  // on the same schedule; the absolute event and message counts pin that
  // schedule itself.
  struct Pin {
    Algorithm algo;
    std::uint64_t events, msgs;
  };
  for (const Pin& pin : {Pin{Algorithm::kDiskPaxos, 192, 12},
                         Pin{Algorithm::kProtectedMemoryPaxos, 125, 6},
                         Pin{Algorithm::kAlignedPaxos, 446, 84}}) {
    const Algorithm algo = pin.algo;
    ClusterConfig c;
    c.algo = algo;
    c.n = algo == Algorithm::kProtectedMemoryPaxos ? 2 : 3;
    c.m = 3;
    c.seed = 42;
    c.smr.enabled = true;
    c.smr.commands = 12;
    c.smr.batch = 2;
    c.smr.window = 4;
    const RunReport a = run_cluster(c);
    EXPECT_EQ(a.slots_applied, 6u) << algorithm_name(algo) << ": "
                                   << a.summary();
    EXPECT_GT(a.mem_writes, 0u) << algorithm_name(algo);
    EXPECT_EQ(a.events, pin.events) << algorithm_name(algo);
    EXPECT_EQ(a.messages_sent, pin.msgs) << algorithm_name(algo);
    expect_deterministic(c);
  }
}

// --- Crash-and-rejoin: the whole recovery trajectory is deterministic. ---

TEST(Determinism, SmrCrashAndRejoinSameSeedSameRun) {
  // A rejoining replica replays the entire recovery pipeline — snapshot
  // election, catch-up request/response, log truncation — on the simulated
  // schedule. The fingerprint pins the recovery counters and the rejoin
  // timestamps, so a drifting catch-up (different snapshot slot, different
  // fetched byte count) cannot hide behind an eventually-equal log.
  ClusterConfig c;
  c.algo = Algorithm::kFastPaxos;
  c.n = 3;
  c.m = 0;
  c.seed = 7;
  c.smr.enabled = true;
  c.smr.commands = 24;
  c.smr.batch = 2;
  c.smr.window = 4;
  c.smr.snapshot_interval = 4;
  c.faults.process_crashes[1] = 6;
  c.faults.process_rejoins[1] = 400;
  const RunReport a = run_cluster(c);
  EXPECT_GT(a.snapshots_installed, 0u) << a.summary();
  EXPECT_GT(a.slots_truncated, 0u) << a.summary();
  EXPECT_GT(a.catchup_bytes, 0u) << a.summary();
  // Absolute pins: the rejoin rebuild is shared with KV mode, and sharing
  // it must not move this schedule — event count, traffic, every replica's
  // last apply time and the catch-up bytes the rejoiner fetched. p2 leads
  // from t = 6 under one term, and the rejoined p1 establishes its own at
  // its snapshot install (806 events, 284 messages and last applies at
  // 22/23 when every slot ran its own phase 1).
  EXPECT_EQ(a.events, 656u) << a.summary();
  EXPECT_EQ(a.messages_sent, 212u) << a.summary();
  ASSERT_EQ(a.processes.size(), 3u);
  EXPECT_EQ(a.processes[0].decided_at, 0u);
  EXPECT_EQ(a.processes[1].decided_at, 16u);
  EXPECT_EQ(a.processes[2].decided_at, 17u);
  EXPECT_EQ(a.catchup_bytes, 1362u) << a.summary();
  expect_deterministic(c);
}

TEST(Determinism, KvCrashAndRejoinRetryStormSameSeedSameRun) {
  // Rejoin under the adversarial KV schedule: client retries racing the
  // restart, session dedup across the snapshot boundary, shard routers
  // rebinding to the new incarnation. All of it must replay byte-for-byte.
  ClusterConfig c;
  c.algo = Algorithm::kFastPaxos;
  c.n = 3;
  c.m = 0;
  c.seed = 7;
  c.kv.enabled = true;
  c.kv.shards = 2;
  c.kv.clients = 6;
  c.kv.ops_per_client = 8;
  c.kv.batch = 1;
  c.kv.window = 2;
  c.kv.retry_timeout = 24;
  c.kv.snapshot_interval = 4;
  c.faults.process_crashes[1] = 7;
  c.faults.process_rejoins[1] = 600;
  const RunReport a = run_cluster(c);
  EXPECT_GT(a.snapshots_installed, 0u) << a.summary();
  EXPECT_GT(a.catchup_bytes, 0u) << a.summary();
  // Absolute pins, as in the SMR rejoin test: both shards' rebuild runs the
  // same rejoin path, and the schedule must not move. p2 leads each shard
  // under one term and the rejoined p1 takes a term of its own (2144
  // events, 620 messages and last applies at 55/56 with a phase 1 per
  // slot); the store hash and catch-up bytes are unchanged.
  EXPECT_EQ(a.events, 1670u) << a.summary();
  EXPECT_EQ(a.messages_sent, 426u) << a.summary();
  ASSERT_EQ(a.processes.size(), 3u);
  EXPECT_EQ(a.processes[0].decided_at, 0u);
  EXPECT_EQ(a.processes[1].decided_at, 35u);
  EXPECT_EQ(a.processes[2].decided_at, 36u);
  EXPECT_EQ(a.kv_store_hash, 11380451022688408098ull) << a.summary();
  EXPECT_EQ(a.catchup_bytes, 2322u) << a.summary();
  expect_deterministic(c);
}

TEST(Determinism, KvRejoinAcrossSplitSameSeedSameRun) {
  // p3 crashes before a live split and rejoins long after it: its rebuild
  // covers both data groups *and* the config group, whose fresh
  // TableMachine must catch up the table history. The whole trajectory —
  // config-group rejoin included — must replay byte-for-byte.
  ClusterConfig c;
  c.algo = Algorithm::kFastPaxos;
  c.n = 3;
  c.m = 0;
  c.kv.enabled = true;
  c.kv.shards = 1;
  c.kv.clients = 6;
  c.kv.ops_per_client = 16;
  c.kv.dist = kv::KeyDist::kZipfian;
  c.kv.retry_timeout = 24;
  c.kv.snapshot_interval = 4;
  c.kv.reconfig.push_back({40, reconfig::ChangeKind::kSplit, 0, 1});
  c.faults.process_crashes[3] = 20;
  c.faults.process_rejoins[3] = 900;
  const RunReport a = run_cluster(c);
  EXPECT_EQ(a.reconfig_epoch, 1u) << a.summary();
  EXPECT_GT(a.snapshots_installed, 0u) << a.summary();
  ASSERT_EQ(a.processes.size(), 3u);
  EXPECT_EQ(a.processes[2].rejoined_at, 900u);
  EXPECT_NE(a.processes[2].decision.find("|cfg:"), std::string::npos)
      << a.processes[2].decision;
  EXPECT_EQ(a.events, 1356u) << a.summary();
  EXPECT_EQ(a.messages_sent, 284u) << a.summary();
  EXPECT_EQ(a.kv_store_hash, 2818580490853794863ull) << a.summary();
  expect_deterministic(c);
}

TEST(Determinism, KvSignedCommandsSameSeedSameRun) {
  // Client-signed commands: every session signs, every replica verifies
  // before the session lookup. HMAC keys derive from the seeded keystore,
  // so the whole signed run — wires, verification counts, store hashes —
  // must replay byte-for-byte. A Byzantine forger is in the mix so the
  // kv_forged counter (part of the fingerprint) is exercised too.
  ClusterConfig c;
  c.algo = Algorithm::kFastRobust;
  c.n = 3;
  c.m = 3;
  c.seed = 13;
  c.kv.enabled = true;
  c.kv.shards = 1;
  c.kv.clients = 2;
  c.kv.ops_per_client = 3;
  c.kv.sign_commands = true;
  c.faults.byzantine[1] = ByzantineStrategy::kForgeClientCommands;
  c.horizon = 200000;
  const RunReport a = run_cluster(c);
  EXPECT_EQ(a.kv_forged, 2u) << a.summary();
  expect_deterministic(c);
}

TEST(Determinism, KvSplitDuringZipfianSameSeedSameRun) {
  // Live resharding mid-workload: the config group decides a split while
  // zipfian clients hammer the source shard, the Migrator seals, drains and
  // installs, and in-flight ops bounce with WrongEpoch and re-route. The
  // whole interleaving — flip times, keys moved, every bounce — must replay
  // byte-for-byte from the same seed.
  ClusterConfig c;
  c.algo = Algorithm::kFastPaxos;
  c.n = 3;
  c.m = 0;
  c.seed = 11;
  c.kv.enabled = true;
  c.kv.shards = 1;
  c.kv.clients = 8;
  c.kv.ops_per_client = 24;
  c.kv.dist = kv::KeyDist::kZipfian;
  c.kv.reconfig.push_back({40, reconfig::ChangeKind::kSplit, 0, 1});
  const RunReport a = run_cluster(c);
  EXPECT_EQ(a.reconfig_epoch, 1u) << a.summary();
  EXPECT_GT(a.reconfig_keys_moved, 0u) << a.summary();
  EXPECT_GT(a.reconfig_bounces, 0u) << a.summary();
  expect_deterministic(c);
}

TEST(Determinism, SmrFixedConfigSameSeedSameRun) {
  // Window and batch are constants the caller sets per group: the same
  // seed reproduces the same pipelined run.
  ClusterConfig c;
  c.algo = Algorithm::kFastPaxos;
  c.n = 3;
  c.m = 0;
  c.seed = 42;
  c.smr.enabled = true;
  c.smr.commands = 24;
  c.smr.batch = 2;
  c.smr.window = 4;
  const RunReport a = run_cluster(c);
  EXPECT_TRUE(a.all_ok()) << a.summary();
  expect_deterministic(c);
}

// --- KV mode: the sharded store inherits the determinism invariant. ---

TEST(Determinism, KvShardedZipfianSameSeedSameRun) {
  ClusterConfig c;
  c.algo = Algorithm::kFastPaxos;
  c.n = 3;
  c.m = 0;
  c.seed = 42;
  c.kv.enabled = true;
  c.kv.shards = 4;
  c.kv.clients = 8;
  c.kv.ops_per_client = 12;
  c.kv.mix = kv::Mix::kA;
  c.kv.dist = kv::KeyDist::kZipfian;
  const RunReport a = run_cluster(c);
  EXPECT_EQ(a.kv_shard_ops.size(), 4u) << a.summary();
  EXPECT_GT(a.kv_store_hash, 0u);
  expect_deterministic(c);
}

TEST(Determinism, KvRetryStormLeaderCrashSameSeedSameRun) {
  // The adversarial schedule: duplicates from client retries AND a leader
  // hand-off. The fingerprint pins that retry timing, dedup decisions and
  // reply delivery are all on the deterministic (time, seq) schedule.
  ClusterConfig c;
  c.algo = Algorithm::kFastPaxos;
  c.n = 3;
  c.m = 0;
  c.seed = 7;
  c.kv.enabled = true;
  c.kv.shards = 2;
  c.kv.clients = 6;
  c.kv.ops_per_client = 8;
  c.kv.batch = 1;
  c.kv.window = 2;
  c.kv.retry_timeout = 3;
  c.faults.process_crashes[1] = 9;
  const RunReport a = run_cluster(c);
  EXPECT_GT(a.kv_duplicates, 0u) << a.summary();
  expect_deterministic(c);
}

TEST(Determinism, KvAdaptiveRetrySameSeedSameRun) {
  // Latency-derived retry deadlines over serial, single-command slots: the
  // deadlines follow sim-time observations only, so the whole closed loop
  // must fingerprint identically run to run.
  ClusterConfig c;
  c.algo = Algorithm::kFastPaxos;
  c.n = 3;
  c.m = 0;
  c.seed = 21;
  c.kv.enabled = true;
  c.kv.shards = 2;
  c.kv.clients = 16;
  c.kv.ops_per_client = 12;
  c.kv.batch = 1;
  c.kv.window = 1;
  c.kv.adaptive_retry = true;
  const RunReport a = run_cluster(c);
  EXPECT_TRUE(a.all_ok()) << a.summary();
  expect_deterministic(c);
}

TEST(Determinism, KvFastRobustShardSameSeedSameRun) {
  ClusterConfig c;
  c.algo = Algorithm::kFastRobust;
  c.n = 3;
  c.m = 3;
  c.seed = 9;
  c.kv.enabled = true;
  c.kv.shards = 1;
  c.kv.clients = 2;
  c.kv.ops_per_client = 3;
  // Absolute pins, not only run-to-run: which wakeups the register pollers
  // get is a cost decision and must not move the fault-free schedule —
  // every decision time, count and hash below.
  const RunReport a = run_cluster(c);
  ASSERT_EQ(a.processes.size(), 3u);
  EXPECT_EQ(a.processes[0].decided_at, 6u);
  EXPECT_EQ(a.processes[1].decided_at, 14u);
  EXPECT_EQ(a.processes[2].decided_at, 14u);
  EXPECT_EQ(a.mem_writes, 63u);
  EXPECT_EQ(a.signatures, 21u);
  EXPECT_EQ(a.verifications, 156u);
  // Nobody panics, so no backup runs: no t-send at all, and every op is
  // answered at its slot's Cheap Quorum decision.
  EXPECT_EQ(a.tsend_deliveries, 0u);
  EXPECT_EQ(a.kv_op_p50, 2u);
  // The store hash folds the section-tagged state encoding (kv/range.hpp).
  EXPECT_EQ(a.kv_store_hash, 2391112299806611646ull);
  expect_deterministic(c);
}

// --- Transactions: the 2PC mix and its crash recovery replay too. ---

TEST(Determinism, KvTxnZipfianContentionSameSeedSameRun) {
  // The transactional YCSB+T mix under account contention: prepares racing
  // across shards, no-wait conflicts deciding aborts, per-key decision
  // records releasing locks. The fingerprint folds the commit/abort split,
  // the conflict count and the lock-table state (via kv_hash), so a drifted
  // 2PC interleaving cannot hide behind equal op counts.
  ClusterConfig c;
  c.algo = Algorithm::kFastPaxos;
  c.n = 3;
  c.m = 0;
  c.seed = 17;
  c.kv.enabled = true;
  c.kv.shards = 3;
  c.kv.clients = 8;
  c.kv.ops_per_client = 16;
  c.kv.txn_fraction = 0.4;
  c.kv.accounts = 8;
  c.kv.txn_zipf_theta = 0.95;
  const RunReport a = run_cluster(c);
  EXPECT_GT(a.kv_txns, 0u) << a.summary();
  EXPECT_GT(a.kv_txn_aborts, 0u) << a.summary();
  expect_deterministic(c);
}

TEST(Determinism, KvTxnCoordinatorCrashRecoverySameSeedSameRun) {
  // Coordinator crash mid-prepare: client 1's first transfer stops after
  // one completed prepare (one lock held through the pause), then the
  // presumed-abort replay re-drives the stream under the original seqs.
  // The whole crash + recovery trajectory must replay byte-for-byte.
  ClusterConfig c;
  c.algo = Algorithm::kFastPaxos;
  c.n = 3;
  c.m = 0;
  c.seed = 19;
  c.kv.enabled = true;
  c.kv.shards = 2;
  c.kv.clients = 6;
  c.kv.ops_per_client = 12;
  c.kv.txn_fraction = 0.5;
  c.kv.txn_crash_client = 1;
  c.kv.txn_crash_txn = 1;
  c.kv.txn_crash_records = 1;
  c.kv.txn_crash_pause = 200;
  const RunReport a = run_cluster(c);
  EXPECT_EQ(a.kv_txn_recoveries, 1u) << a.summary();
  EXPECT_EQ(a.kv_locks_held, 0u) << a.summary();
  expect_deterministic(c);
}

TEST(Determinism, PlainKvFingerprintUnchangedByTxnPlumbing) {
  // txn_fraction = 0 must behave exactly as if the transaction subsystem
  // did not exist: no txn rng draws, no txn counters, no lock fold in the
  // store hash — and the run fingerprints equal.
  ClusterConfig c;
  c.algo = Algorithm::kFastPaxos;
  c.n = 3;
  c.m = 0;
  c.seed = 42;
  c.kv.enabled = true;
  c.kv.shards = 4;
  c.kv.clients = 8;
  c.kv.ops_per_client = 12;
  const RunReport a = run_cluster(c);
  EXPECT_EQ(a.kv_txns, 0u);
  EXPECT_EQ(a.kv_txn_balance, 0);
  EXPECT_EQ(a.kv_locks_held, 0u);
  expect_deterministic(c);
}

/// Different seeds may legitimately differ, but every seed must be
/// internally reproducible — a sweep catches order-dependent state leaking
/// between runs (e.g. a pool whose reuse pattern changed scheduling).
TEST(Determinism, SeedSweepIsReproducible) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    ClusterConfig c;
    c.algo = Algorithm::kFastPaxos;
    c.n = 3;
    c.m = 0;
    c.seed = seed;
    const RunReport a = run_cluster(c);
    const RunReport b = run_cluster(c);
    EXPECT_TRUE(a == b) << "seed " << seed;
  }
}

}  // namespace
}  // namespace mnm::harness
