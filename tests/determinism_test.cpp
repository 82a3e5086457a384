// Fixed-seed determinism of whole-cluster runs.
//
// The event-loop refactor (pooled events, inline callbacks, opt-in cancel
// cells) must preserve the executor's (time, seq) ordering contract exactly:
// the same seed has to produce the same decisions, the same decision times,
// and the same operation counts, run after run. These tests pin that for
// every algorithm, including runs with faults.

#include <gtest/gtest.h>

#include <vector>

#include "src/harness/cluster.hpp"

namespace mnm::harness {
namespace {

/// Everything observable a run produces, flattened for equality checks.
struct Fingerprint {
  std::vector<ProcessId> ids;
  std::vector<bool> decided;
  std::vector<std::string> decisions;
  std::vector<sim::Time> decided_at;
  std::optional<std::string> value;
  sim::Time first_delay = 0;
  std::uint64_t msgs = 0, reads = 0, writes = 0, perms = 0, sigs = 0, verifs = 0;
  // SMR mode: applied logs (in `decisions`, joined) plus the multi-slot
  // metrics, so a reordered pipeline cannot hide behind equal counts.
  Slot slots = 0;
  std::uint64_t cmds = 0;
  sim::Time p50 = 0, p99 = 0, p999 = 0;
  // Queue-wait percentiles and the integer occupancy sums: a pipeline whose
  // proposal scheduling drifted cannot hide behind equal commit times.
  sim::Time qw50 = 0, qw99 = 0;
  std::uint64_t occ_slots = 0, occ_limit = 0;
  // Auto-tuning: the per-epoch adaptation trajectory itself (window/batch
  // decisions and the epoch count), byte-for-byte. Empty when tuning is
  // off, so fixed-config fingerprints are unchanged by the tuner's
  // existence.
  std::uint64_t tuner_epochs = 0;
  std::string tuner_trajectory;
  // KV mode: per-shard effective op counts, the combined store/session
  // hash, client-visible latency percentiles, and the retry/dedup counters
  // — a sharded run whose partitioning, dedup decisions or reply timing
  // drifted cannot fingerprint equal.
  std::uint64_t kv_ops = 0, kv_retries = 0, kv_dups = 0, kv_forged = 0,
                kv_hash = 0;
  std::vector<std::uint64_t> kv_shard_ops;
  sim::Time kv_p50 = 0, kv_p99 = 0, kv_p999 = 0;
  // Reconfiguration: the decided epoch history and the migration traffic it
  // carried — the exact simulated times the routing table flipped, the
  // pairs each INSTALL moved, every WrongEpoch bounce a client absorbed. A
  // resharding run whose seal/drain/install interleaving drifted cannot
  // fingerprint equal. All zero/empty for static (no-plan) runs.
  std::uint64_t rc_epoch = 0, rc_migrations = 0, rc_keys_moved = 0,
                rc_proposals = 0, rc_bounces = 0;
  std::vector<sim::Time> rc_flips;
  // Recovery: snapshot cadence, compaction and catch-up accounting, plus the
  // rejoin timestamps — a crash-and-rejoin run whose recovery trajectory
  // (when snapshots were cut, how many slots were truncated, how many bytes
  // the rejoiner fetched) drifted cannot fingerprint equal.
  std::uint64_t snaps_taken = 0, snaps_installed = 0, truncated = 0,
                catchup_bytes = 0;
  std::vector<sim::Time> rejoined_at;
  // Transactions: commit/abort/conflict/recovery counts, the conserved
  // balance sum, residual locks (the lock-table *contents* fold into
  // kv_hash), and committed-transfer latency percentiles — a transactional
  // run whose 2PC interleaving, no-wait conflict outcomes or crash-recovery
  // replay drifted cannot fingerprint equal. All zero for plain runs.
  std::uint64_t txns = 0, txn_commits = 0, txn_aborts = 0, txn_conflicts = 0,
                txn_recoveries = 0, txn_locks = 0;
  std::int64_t txn_balance = 0;
  sim::Time txn_p50 = 0, txn_p999 = 0;
  // Byzantine wire path: t-send suffix-decode accounting. Pinning these says
  // the decode-cost optimization is itself deterministic — the same seed
  // skips the same prefixes — without perturbing the (time, seq) schedule
  // the fields above capture.
  std::uint64_t tsend_deliveries = 0, entries_decoded = 0, entries_skipped = 0;

  bool operator==(const Fingerprint&) const = default;
};

Fingerprint fingerprint(const RunReport& r) {
  Fingerprint f;
  for (const auto& p : r.processes) {
    f.ids.push_back(p.id);
    f.decided.push_back(p.decided);
    f.decisions.push_back(p.decision);
    f.decided_at.push_back(p.decided_at);
    f.rejoined_at.push_back(p.rejoined_at);
  }
  f.value = r.decided_value;
  f.first_delay = r.first_decision_delay;
  f.msgs = r.messages_sent;
  f.reads = r.mem_reads;
  f.writes = r.mem_writes;
  f.perms = r.permission_changes;
  f.sigs = r.signatures;
  f.verifs = r.verifications;
  f.slots = r.slots_applied;
  f.cmds = r.commands_applied;
  f.p50 = r.commit_p50;
  f.p99 = r.commit_p99;
  f.p999 = r.commit_p999;
  f.qw50 = r.queue_wait_p50;
  f.qw99 = r.queue_wait_p99;
  f.occ_slots = r.occupancy_slots;
  f.occ_limit = r.occupancy_limit;
  f.tuner_epochs = r.tuner_epochs;
  f.tuner_trajectory = r.tuner_trajectory;
  f.kv_ops = r.kv_ops;
  f.kv_retries = r.kv_retries;
  f.kv_dups = r.kv_duplicates;
  f.kv_forged = r.kv_forged;
  f.kv_hash = r.kv_store_hash;
  f.kv_shard_ops = r.kv_shard_ops;
  f.kv_p50 = r.kv_op_p50;
  f.kv_p99 = r.kv_op_p99;
  f.kv_p999 = r.kv_op_p999;
  f.rc_epoch = r.reconfig_epoch;
  f.rc_migrations = r.reconfig_migrations;
  f.rc_keys_moved = r.reconfig_keys_moved;
  f.rc_proposals = r.reconfig_proposals;
  f.rc_bounces = r.reconfig_bounces;
  f.rc_flips = r.reconfig_flip_times;
  f.snaps_taken = r.snapshots_taken;
  f.snaps_installed = r.snapshots_installed;
  f.truncated = r.slots_truncated;
  f.catchup_bytes = r.catchup_bytes;
  f.txns = r.kv_txns;
  f.txn_commits = r.kv_txn_commits;
  f.txn_aborts = r.kv_txn_aborts;
  f.txn_conflicts = r.kv_txn_conflicts;
  f.txn_recoveries = r.kv_txn_recoveries;
  f.txn_locks = r.kv_locks_held;
  f.txn_balance = r.kv_txn_balance;
  f.txn_p50 = r.kv_txn_commit_p50;
  f.txn_p999 = r.kv_txn_commit_p999;
  f.tsend_deliveries = r.tsend_deliveries;
  f.entries_decoded = r.history_entries_decoded;
  f.entries_skipped = r.history_entries_skipped;
  return f;
}

void expect_deterministic(ClusterConfig cfg, bool check_ok = true) {
  const RunReport a = run_cluster(cfg);
  const RunReport b = run_cluster(cfg);
  if (check_ok) {
    EXPECT_TRUE(a.all_ok()) << a.summary();
  }
  EXPECT_EQ(fingerprint(a), fingerprint(b))
      << "run 1: " << a.summary() << "\nrun 2: " << b.summary();
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

// --- Auto-tuning: the adaptation trajectory is itself deterministic. ---

TEST(Determinism, SmrAutoTuneTrajectorySameSeedSameRun) {
  // The controller's per-epoch window/batch decisions ride on executor-time
  // signals only; a fixed seed must pin the whole trajectory (the
  // fingerprint compares it byte-for-byte), not just the final settings.
  ClusterConfig c;
  c.algo = Algorithm::kFastPaxos;
  c.n = 3;
  c.m = 0;
  c.seed = 42;
  c.smr.enabled = true;
  c.smr.commands = 96;
  c.smr.batch = 1;
  c.smr.window = 1;
  c.smr.auto_tune = true;
  const RunReport a = run_cluster(c);
  EXPECT_GT(a.tuner_epochs, 0u) << a.summary();
  EXPECT_FALSE(a.tuner_trajectory.empty()) << a.summary();
  expect_deterministic(c);
}

TEST(Determinism, SmrAutoTuneUnderLeaderCrashSameSeedSameRun) {
  // Adaptation across a leader hand-off: the dead leader's tuner stops, the
  // new leader's adapts from scratch mid-run — all of it on the same
  // deterministic schedule.
  ClusterConfig c;
  c.algo = Algorithm::kFastPaxos;
  c.n = 3;
  c.m = 0;
  c.seed = 7;
  c.smr.enabled = true;
  c.smr.commands = 64;
  c.smr.batch = 2;
  c.smr.window = 2;
  c.smr.auto_tune = true;
  c.faults.process_crashes[1] = 6;
  const RunReport a = run_cluster(c);
  EXPECT_FALSE(a.tuner_trajectory.empty()) << a.summary();
  expect_deterministic(c);
}

TEST(Determinism, FixedConfigFingerprintUnchangedByTunerPlumbing) {
  // auto_tune=false must behave exactly as if the tuner did not exist:
  // no trajectory, no epochs — and the run fingerprints equal.
  ClusterConfig c;
  c.algo = Algorithm::kFastPaxos;
  c.n = 3;
  c.m = 0;
  c.seed = 42;
  c.smr.enabled = true;
  c.smr.commands = 24;
  c.smr.batch = 2;
  c.smr.window = 4;
  c.smr.auto_tune = false;
  const RunReport a = run_cluster(c);
  EXPECT_EQ(a.tuner_epochs, 0u);
  EXPECT_TRUE(a.tuner_trajectory.empty());
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

TEST(Determinism, KvAutoTuneWithAdaptiveRetrySameSeedSameRun) {
  // Everything adaptive at once: per-shard tuners moving window/batch, the
  // Router's flush-hold packing decisions, and latency-derived retry
  // deadlines. All signals are sim-time-derived, so the whole closed loop
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
  c.kv.auto_tune = true;
  c.kv.adaptive_retry = true;
  const RunReport a = run_cluster(c);
  EXPECT_GT(a.tuner_epochs, 0u) << a.summary();
  EXPECT_FALSE(a.tuner_trajectory.empty()) << a.summary();
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
  EXPECT_EQ(a.processes[0].decided_at, 246u);
  EXPECT_EQ(a.processes[1].decided_at, 260u);
  EXPECT_EQ(a.processes[2].decided_at, 260u);
  EXPECT_EQ(a.mem_writes, 825u);
  EXPECT_EQ(a.signatures, 395u);
  EXPECT_EQ(a.verifications, 1705u);
  EXPECT_EQ(a.tsend_deliveries, 180u);
  EXPECT_EQ(a.kv_op_p50, 82u);
  EXPECT_EQ(a.kv_store_hash, 14976846832548248068ull);
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
    EXPECT_EQ(fingerprint(a), fingerprint(b)) << "seed " << seed;
  }
}

}  // namespace
}  // namespace mnm::harness
