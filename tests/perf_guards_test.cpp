// The virtual-time numbers of the pipelined log, the sharded KV store,
// crash-and-rejoin recovery, live resharding and cross-shard transactions,
// asserted exactly.
//
// The simulator is deterministic, so every count a run reports is exact for
// its seed: throughput, latency percentiles, catch-up bytes, abort rates, and
// what the paper prices a run in (messages, memory reads and writes,
// signatures and verifications). Each row runs one workload through
// harness::run_cluster and asserts all of them, with no tolerance:
//   - Guard rows run seeds 1-16 and pin integer sums over the 16 runs, the
//     numerators of the means a benchmark would report.
//   - Table rows run seed 1 and pin that run.
// A throughput is pinned per seed as the two integers it is computed from:
// the ops (or commands) completed and the run length in delays. A single
// entry stands for every seed. The ratios the ROADMAP states for these
// workloads are checked last, over the pinned rows.
//
// A failing row prints the measured tally in the initializer syntax of its
// expected one. Wall-clock rates are measured elsewhere: bench/ and
// perfbench/.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <ostream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "src/harness/cluster.hpp"

namespace mnm::harness {
namespace {

using reconfig::ChangeKind;

/// One run's throughput as the integers it is computed from: `ops` completed
/// in `span` delays.
struct Rate {
  std::uint64_t ops = 0;
  sim::Time span = 0;
  double per_kdelay() const {
    return 1000.0 * static_cast<double>(ops) / static_cast<double>(span);
  }
  auto tie() const { return std::tie(ops, span); }
  bool operator==(const Rate&) const = default;
};

/// What the paper prices a run in, summed over a row's runs.
struct Costs {
  std::uint64_t msgs = 0, reads = 0, writes = 0, sigs = 0, verifies = 0;
  void add(const RunReport& r) {
    msgs += r.messages_sent;
    reads += r.mem_reads;
    writes += r.mem_writes;
    sigs += r.signatures;
    verifies += r.verifications;
  }
  auto tie() const { return std::tie(msgs, reads, writes, sigs, verifies); }
  bool operator==(const Costs&) const = default;
};

void print(std::ostream& os, std::uint64_t v) { os << v; }

template <typename T>
  requires requires(const T& t) { t.tie(); }
void print(std::ostream& os, const T& t);

template <typename T>
void print(std::ostream& os, const std::vector<T>& v) {
  os << '{';
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i > 0) os << ", ";
    print(os, v[i]);
  }
  os << '}';
}

/// Prints a tally's fields in its aggregate-initializer order.
template <typename T>
  requires requires(const T& t) { t.tie(); }
void print(std::ostream& os, const T& t) {
  os << '{';
  const char* sep = "";
  std::apply(
      [&](const auto&... f) { ((os << sep, print(os, f), sep = ", "), ...); },
      t.tie());
  os << '}';
}

/// The run length behind a KV run's ops per 1000 delays: the last reply's
/// time, which the report carries only inside that ratio.
Rate kv_rate(const RunReport& r) {
  const Rate rate{r.kv_ops, r.kv_ops_per_kdelay > 0
                                ? static_cast<sim::Time>(std::llround(
                                      1000.0 * static_cast<double>(r.kv_ops) /
                                      r.kv_ops_per_kdelay))
                                : 0};
  EXPECT_EQ(rate.per_kdelay(), r.kv_ops_per_kdelay) << r.summary();
  return rate;
}

/// The first correct replica's last apply, which the log rows take as the
/// run's length.
sim::Time first_drain(const RunReport& r) {
  for (const ProcessReport& p : r.processes) {
    if (!p.byzantine) return p.decided_at;
  }
  return 0;
}

/// The last apply of any correct replica, the rejoiner included.
sim::Time last_drain(const RunReport& r) {
  sim::Time last = 0;
  for (const ProcessReport& p : r.processes) {
    if (!p.byzantine && p.decided) last = std::max(last, p.decided_at);
  }
  return last;
}

/// How long each rejoined replica applied after its rejoin, summed.
sim::Time converge_delay(const RunReport& r) {
  sim::Time sum = 0;
  for (const ProcessReport& p : r.processes) {
    if (p.rejoined_at != sim::kTimeInfinity && p.decided_at > p.rejoined_at) {
      sum += p.decided_at - p.rejoined_at;
    }
  }
  return sum;
}

// --- One tally per workload family: the integers its rows pin. -------------

/// SMR rows: commands over the first drain; Σ slots applied, fast slots,
/// commit p50/p99/p999, queue wait p99, executor events; Σ T-send
/// deliveries and history entries decoded and skipped (the Byzantine wire's
/// suffix decode); costs.
struct LogTally {
  std::vector<Rate> rates;
  std::uint64_t slots = 0, fast = 0, commit_p50 = 0, commit_p99 = 0,
                commit_p999 = 0, queue_wait_p99 = 0, events = 0;
  std::uint64_t deliveries = 0, decoded = 0, skipped = 0;
  Costs costs;
  void add(const ClusterConfig&, const RunReport& r) {
    rates.push_back({r.commands_applied, first_drain(r)});
    slots += r.slots_applied;
    fast += r.fast_slots;
    commit_p50 += r.commit_p50;
    commit_p99 += r.commit_p99;
    commit_p999 += r.commit_p999;
    queue_wait_p99 += r.queue_wait_p99;
    events += r.events;
    deliveries += r.tsend_deliveries;
    decoded += r.history_entries_decoded;
    skipped += r.history_entries_skipped;
    costs.add(r);
  }
  auto tie() const {
    return std::tie(rates, slots, fast, commit_p50, commit_p99, commit_p999,
                    queue_wait_p99, events, deliveries, decoded, skipped,
                    costs);
  }
  bool operator==(const LogTally&) const = default;
};

/// KV rows: client ops over the last reply; Σ op p50/p99/p999, commit
/// p50/p99/p999, duplicate applies suppressed, fast slots; costs.
struct KvTally {
  std::vector<Rate> rates;
  std::uint64_t op_p50 = 0, op_p99 = 0, op_p999 = 0, commit_p50 = 0,
                commit_p99 = 0, commit_p999 = 0, dups = 0, fast = 0;
  Costs costs;
  void add(const ClusterConfig&, const RunReport& r) {
    rates.push_back(kv_rate(r));
    op_p50 += r.kv_op_p50;
    op_p99 += r.kv_op_p99;
    op_p999 += r.kv_op_p999;
    commit_p50 += r.commit_p50;
    commit_p99 += r.commit_p99;
    commit_p999 += r.commit_p999;
    dups += r.kv_duplicates;
    fast += r.fast_slots;
    costs.add(r);
  }
  auto tie() const {
    return std::tie(rates, op_p50, op_p99, op_p999, commit_p50, commit_p99,
                    commit_p999, dups, fast, costs);
  }
  bool operator==(const KvTally&) const = default;
};

/// Crash-and-rejoin rows: commands over the last replica's drain (client
/// ops over the last reply in KV mode); Σ snapshots taken and installed,
/// slots truncated, catch-up bytes, and the rejoiner's applies after its
/// rejoin (converge delay); costs.
struct RecoveryTally {
  std::vector<Rate> rates;
  std::uint64_t taken = 0, installed = 0, truncated = 0, catchup_bytes = 0,
                converge = 0;
  Costs costs;
  void add(const ClusterConfig& c, const RunReport& r) {
    rates.push_back(c.kv.enabled ? kv_rate(r)
                                 : Rate{r.commands_applied, last_drain(r)});
    taken += r.snapshots_taken;
    installed += r.snapshots_installed;
    truncated += r.slots_truncated;
    catchup_bytes += r.catchup_bytes;
    converge += converge_delay(r);
    costs.add(r);
  }
  auto tie() const {
    return std::tie(rates, taken, installed, truncated, catchup_bytes,
                    converge, costs);
  }
  bool operator==(const RecoveryTally&) const = default;
};

/// Resharding rows: client ops over the last reply; Σ op p50/p999, final
/// epoch, keys moved, WrongEpoch bounces; each epoch flip's time, summed
/// over the runs; costs.
struct ReconfigTally {
  std::vector<Rate> rates;
  std::uint64_t op_p50 = 0, op_p999 = 0, epoch = 0, keys_moved = 0,
                bounces = 0;
  std::vector<sim::Time> flips;
  Costs costs;
  void add(const ClusterConfig& c, const RunReport& r) {
    EXPECT_EQ(r.reconfig_migrations, c.kv.reconfig.size()) << r.summary();
    rates.push_back(kv_rate(r));
    op_p50 += r.kv_op_p50;
    op_p999 += r.kv_op_p999;
    epoch += r.reconfig_epoch;
    keys_moved += r.reconfig_keys_moved;
    bounces += r.reconfig_bounces;
    flips.resize(std::max(flips.size(), r.reconfig_flip_times.size()));
    for (std::size_t i = 0; i < r.reconfig_flip_times.size(); ++i) {
      flips[i] += r.reconfig_flip_times[i];
    }
    costs.add(r);
  }
  auto tie() const {
    return std::tie(rates, op_p50, op_p999, epoch, keys_moved, bounces, flips,
                    costs);
  }
  bool operator==(const ReconfigTally&) const = default;
};

/// Transaction rows: client ops (transfer records included) over the last
/// reply; Σ transfers, commits, aborts, lock conflicts, committed-transfer
/// p50/p999; costs.
struct TxnTally {
  std::vector<Rate> rates;
  std::uint64_t txns = 0, commits = 0, aborts = 0, conflicts = 0,
                commit_p50 = 0, commit_p999 = 0;
  Costs costs;
  void add(const ClusterConfig&, const RunReport& r) {
    rates.push_back(kv_rate(r));
    txns += r.kv_txns;
    commits += r.kv_txn_commits;
    aborts += r.kv_txn_aborts;
    conflicts += r.kv_txn_conflicts;
    commit_p50 += r.kv_txn_commit_p50;
    commit_p999 += r.kv_txn_commit_p999;
    costs.add(r);
  }
  auto tie() const {
    return std::tie(rates, txns, commits, aborts, conflicts, commit_p50,
                    commit_p999, costs);
  }
  bool operator==(const TxnTally&) const = default;
};

void PrintTo(const LogTally& t, std::ostream* os) { print(*os, t); }
void PrintTo(const KvTally& t, std::ostream* os) { print(*os, t); }
void PrintTo(const RecoveryTally& t, std::ostream* os) { print(*os, t); }
void PrintTo(const ReconfigTally& t, std::ostream* os) { print(*os, t); }
void PrintTo(const TxnTally& t, std::ostream* os) { print(*os, t); }

template <typename Tally>
struct Row {
  const char* name;
  ClusterConfig config;
  std::uint64_t seeds;  // runs seeds 1..seeds
  Tally expect;
};

template <typename Tally>
void PrintTo(const Row<Tally>& row, std::ostream* os) {
  *os << row.name;
}

template <typename Tally>
std::string row_name(const ::testing::TestParamInfo<Row<Tally>>& info) {
  return info.param.name;
}

/// Runs every seed of `row`, checks each run's invariants and folds it in.
template <typename Tally>
Tally measure(const Row<Tally>& row) {
  Tally t;
  for (std::uint64_t seed = 1; seed <= row.seeds; ++seed) {
    ClusterConfig c = row.config;
    c.seed = seed;
    const RunReport r = run_cluster(c);
    EXPECT_TRUE(r.all_ok()) << "seed " << seed << ": " << r.summary();
    t.add(c, r);
  }
  // A rate every seed reads is pinned once.
  if (std::all_of(t.rates.begin(), t.rates.end(),
                  [&](const Rate& x) { return x == t.rates.front(); })) {
    t.rates.resize(1);
  }
  return t;
}

/// The pinned tally of the row called `name`.
template <typename Tally>
const Tally& pinned(const std::vector<Row<Tally>>& rows,
                    std::string_view name) {
  for (const Row<Tally>& row : rows) {
    if (row.name == name) return row.expect;
  }
  throw std::invalid_argument("no row " + std::string(name));
}

/// Mean ops per 1000 delays over the listed runs.
double mean_rate(const std::vector<Rate>& rates) {
  double sum = 0;
  for (const Rate& r : rates) sum += r.per_kdelay();
  return sum / static_cast<double>(rates.size());
}

constexpr std::uint64_t kGuardSeeds = 16;

// --- Configurations. --------------------------------------------------------

ClusterConfig smr(Algorithm algo, std::size_t n, std::size_t m,
                  std::size_t commands, std::size_t batch, std::size_t window) {
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

/// Fast & Robust, n = m = 3, with every slot forced onto the backup: the
/// Cheap Quorum leader p1 plants conflicting signed values and goes silent,
/// and the followers panic after 10 delays.
ClusterConfig backup(std::size_t commands) {
  ClusterConfig c = smr(Algorithm::kFastRobust, 3, 3, commands, 2, 2);
  c.cq_timeout = 10;
  c.faults.byzantine[1] = ByzantineStrategy::kCqLeaderEquivocate;
  return c;
}

/// A closed-loop client fleet over 256 keys. Each group's pipeline holds at
/// most window × batch = 16 commands, so one shard bottlenecks a large fleet
/// and more shards multiply the aggregate rate.
ClusterConfig kv(Algorithm algo, std::size_t n, std::size_t m,
                 std::size_t shards, std::size_t clients, std::size_t ops,
                 kv::Mix mix, kv::KeyDist dist = kv::KeyDist::kUniform,
                 bool sign = false) {
  ClusterConfig c;
  c.algo = algo;
  c.n = n;
  c.m = m;
  c.kv.enabled = true;
  c.kv.shards = shards;
  c.kv.clients = clients;
  c.kv.ops_per_client = ops;
  c.kv.mix = mix;
  c.kv.dist = dist;
  c.kv.keys = 256;
  c.kv.window = 4;
  c.kv.batch = 4;
  c.kv.sign_commands = sign;
  c.horizon = 400000;
  return c;
}

/// Fast Paxos SMR, n = 3, 512 commands (batch 2, window 4): the follower p3
/// crashes at `crash_at` and rejoins at `rejoin_at` while the leader keeps
/// committing.
ClusterConfig rejoin(Slot interval, sim::Time crash_at, sim::Time rejoin_at) {
  ClusterConfig c = smr(Algorithm::kFastPaxos, 3, 0, 512, 2, 4);
  c.smr.snapshot_interval = interval;
  if (crash_at != sim::kTimeInfinity) {
    c.faults.process_crashes[3] = crash_at;
    c.faults.process_rejoins[3] = rejoin_at;
  }
  return c;
}

/// Fast Paxos KV, 2 shards, 6 clients × 8 ops (batch 1, window 2): the
/// leader p1 crashes at 7 and rejoins at 600.
ClusterConfig kv_rejoin(Slot interval) {
  ClusterConfig c;
  c.algo = Algorithm::kFastPaxos;
  c.n = 3;
  c.m = 0;
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
  return c;
}

/// Fast Paxos, 64 clients × 8 ops, mix A over zipfian keys, running a
/// reconfiguration plan from `shards` groups.
ClusterConfig plan(std::size_t shards, std::vector<ReconfigAction> actions) {
  ClusterConfig c = kv(Algorithm::kFastPaxos, 3, 0, shards, 64, 8, kv::Mix::kA,
                       kv::KeyDist::kZipfian);
  c.kv.reconfig = std::move(actions);
  return c;
}

const std::vector<ReconfigAction> kSplit = {{40, ChangeKind::kSplit, 0, 1}};
const std::vector<ReconfigAction> kDouble = {{40, ChangeKind::kSplit, 0, 4},
                                             {80, ChangeKind::kSplit, 1, 5},
                                             {120, ChangeKind::kSplit, 2, 6},
                                             {160, ChangeKind::kSplit, 3, 7}};
const std::vector<ReconfigAction> kMerge = {{40, ChangeKind::kMerge, 1, 0}};

/// The 1 → 2 split with the source group's leader p1 crashing at 46.
ClusterConfig split_with_crash() {
  ClusterConfig c = plan(1, kSplit);
  c.kv.retry_timeout = 24;
  c.faults.process_crashes[1] = 46;
  return c;
}

/// Fast Paxos, 32 clients × 8 ops: `fraction` of the op slots are transfers
/// among `txn_accounts` of 256 accounts drawn zipfian(`theta`).
ClusterConfig txn(std::size_t shards, double fraction, double theta,
                  std::size_t txn_accounts = 2) {
  ClusterConfig c = kv(Algorithm::kFastPaxos, 3, 0, shards, 32, 8, kv::Mix::kA);
  c.kv.txn_fraction = fraction;
  c.kv.txn_accounts = txn_accounts;
  c.kv.accounts = 256;
  c.kv.txn_zipf_theta = theta;
  return c;
}

constexpr Algorithm kFastPaxos = Algorithm::kFastPaxos;
constexpr Algorithm kPmp = Algorithm::kProtectedMemoryPaxos;
constexpr Algorithm kFastRobust = Algorithm::kFastRobust;

// --- Pipelined log (smr::Log), n = 3. --------------------------------------

const std::vector<Row<LogTally>> kLogGuards = {
    {"FastPaxos_w1_b1", smr(kFastPaxos, 3, 0, 64, 1, 1), kGuardSeeds,
     {{{64, 128}}, 1024, 1024, 1024, 2016, 2016, 1984, 39104, 0, 0, 0,
      {8192, 0, 0, 0, 0}}},
    {"FastPaxos_w8_b1", smr(kFastPaxos, 3, 0, 64, 1, 8), kGuardSeeds,
     {{{64, 16}}, 1024, 1024, 128, 256, 256, 224, 25664, 0, 0, 0,
      {8192, 0, 0, 0, 0}}},
    {"FastPaxos_w8_b8", smr(kFastPaxos, 3, 0, 64, 8, 8), kGuardSeeds,
     {{{64, 2}}, 128, 128, 32, 32, 32, 0, 3376, 0, 0, 0, {1024, 0, 0, 0, 0}}},
    {"FastPaxos_w16_b8", smr(kFastPaxos, 3, 0, 64, 8, 16), kGuardSeeds,
     {{{64, 2}}, 128, 128, 32, 32, 32, 0, 3376, 0, 0, 0, {1024, 0, 0, 0, 0}}},
    // A 4096-command backlog: the pipeline at full occupancy, where the
    // 64-command rows mostly measure its ramp.
    {"FastPaxos_w16_b8_c4096", smr(kFastPaxos, 3, 0, 4096, 8, 16), kGuardSeeds,
     {{{4096, 64}}, 8192, 8192, 512, 1024, 1024, 992, 196288, 0, 0, 0,
      {65536, 0, 0, 0, 0}}},
    {"PMP_w8_b4", smr(kPmp, 2, 3, 32, 4, 8), kGuardSeeds,
     {{{32, 2}}, 128, 128, 32, 32, 32, 0, 2416, 0, 0, 0, {128, 0, 384, 0, 0}}},
    {"FastRobust_w2_b2", smr(kFastRobust, 3, 3, 4, 2, 2), kGuardSeeds,
     {{{4, 2}}, 32, 32, 32, 32, 32, 0, 13728, 0, 0, 0,
      {0, 2880, 672, 224, 1344}}},
    // Every slot runs Preferential Paxos over Robust Backup: fast = 0.
    {"FastRobust_w2_b2_backup", backup(4), kGuardSeeds,
     {{{2, 98}}, 32, 0, 1568, 1568, 1568, 0, 58256, 576, 1344, 1920,
      {0, 12672, 2928, 1520, 3648}}},
};

// Fast Paxos with 64 commands over window × batch: the window overlaps
// 2-delay rounds and the batch amortizes one round over its commands. Then
// the forced backup at 2-16 commands: decoded entries per T-send delivery
// stay flat (7/3) as the history grows.
const std::vector<Row<LogTally>> kLogTable = {
    {"w1_b1", smr(kFastPaxos, 3, 0, 64, 1, 1), 1,
     {{{64, 128}}, 64, 64, 64, 126, 126, 124, 2444, 0, 0, 0,
      {512, 0, 0, 0, 0}}},
    {"w1_b8", smr(kFastPaxos, 3, 0, 64, 8, 1), 1,
     {{{64, 16}}, 8, 8, 8, 14, 14, 12, 316, 0, 0, 0, {64, 0, 0, 0, 0}}},
    {"w2_b1", smr(kFastPaxos, 3, 0, 64, 1, 2), 1,
     {{{64, 64}}, 64, 64, 32, 64, 64, 62, 1964, 0, 0, 0, {512, 0, 0, 0, 0}}},
    {"w2_b8", smr(kFastPaxos, 3, 0, 64, 8, 2), 1,
     {{{64, 8}}, 8, 8, 4, 8, 8, 6, 256, 0, 0, 0, {64, 0, 0, 0, 0}}},
    {"w4_b1", smr(kFastPaxos, 3, 0, 64, 1, 4), 1,
     {{{64, 32}}, 64, 64, 16, 32, 32, 30, 1724, 0, 0, 0, {512, 0, 0, 0, 0}}},
    {"w4_b8", smr(kFastPaxos, 3, 0, 64, 8, 4), 1,
     {{{64, 4}}, 8, 8, 2, 4, 4, 2, 226, 0, 0, 0, {64, 0, 0, 0, 0}}},
    {"w8_b1", smr(kFastPaxos, 3, 0, 64, 1, 8), 1,
     {{{64, 16}}, 64, 64, 8, 16, 16, 14, 1604, 0, 0, 0, {512, 0, 0, 0, 0}}},
    {"w8_b8", smr(kFastPaxos, 3, 0, 64, 8, 8), 1,
     {{{64, 2}}, 8, 8, 2, 2, 2, 0, 211, 0, 0, 0, {64, 0, 0, 0, 0}}},
    {"w16_b1", smr(kFastPaxos, 3, 0, 64, 1, 16), 1,
     {{{64, 8}}, 64, 64, 4, 8, 8, 6, 1544, 0, 0, 0, {512, 0, 0, 0, 0}}},
    {"w16_b8", smr(kFastPaxos, 3, 0, 64, 8, 16), 1,
     {{{64, 2}}, 8, 8, 2, 2, 2, 0, 211, 0, 0, 0, {64, 0, 0, 0, 0}}},
    {"backup_c2", backup(2), 1,
     {{{0, 94}}, 1, 0, 0, 0, 0, 0, 1863, 18, 42, 60, {0, 402, 96, 50, 122}}},
    {"backup_c4", backup(4), 1,
     {{{2, 98}}, 2, 0, 98, 98, 98, 0, 3641, 36, 84, 120,
      {0, 792, 183, 95, 228}}},
    {"backup_c8", backup(8), 1,
     {{{6, 198}}, 4, 0, 194, 194, 194, 106, 7239, 72, 168, 240,
      {0, 1590, 357, 185, 440}}},
    {"backup_c16", backup(16), 1,
     {{{14, 398}}, 8, 0, 294, 394, 394, 306, 14395, 144, 336, 480,
      {0, 3174, 705, 365, 864}}},
};

// --- Sharded KV. ------------------------------------------------------------

const std::vector<Row<KvTally>> kKvGuards = {
    {"FastPaxos_s1_C", kv(kFastPaxos, 3, 0, 1, 64, 8, kv::Mix::kC),
     kGuardSeeds,
     {{{512, 66}}, 128, 160, 160, 128, 160, 160, 256, 2112,
      {16896, 0, 0, 0, 0}}},
    {"FastPaxos_s8_C", kv(kFastPaxos, 3, 0, 8, 64, 8, kv::Mix::kC),
     kGuardSeeds,
     {{{512, 16}}, 32, 32, 32, 32, 32, 32, 0, 2419, {19352, 0, 0, 0, 0}}},
    {"FastPaxos_s4_A", kv(kFastPaxos, 3, 0, 4, 64, 8, kv::Mix::kA),
     kGuardSeeds,
     {{{512, 20}, {512, 22}, {512, 22}, {512, 22}, {512, 22}, {512, 22},
       {512, 22}, {512, 22}, {512, 20}, {512, 22}, {512, 22}, {512, 22},
       {512, 22}, {512, 22}, {512, 22}, {512, 22}},
      32, 64, 66, 32, 64, 64, 2, 2302, {18416, 0, 0, 0, 0}}},
    {"PMP_s2_A", kv(kPmp, 2, 3, 2, 8, 4, kv::Mix::kA), kGuardSeeds,
     {{{32, 8}}, 32, 32, 32, 32, 32, 32, 0, 170, {170, 0, 510, 0, 0}}},
    {"FastRobust_s1_A", kv(kFastRobust, 3, 3, 1, 2, 3, kv::Mix::kA),
     kGuardSeeds,
     {{{6, 6}}, 32, 32, 32, 32, 32, 32, 0, 48, {0, 5472, 1008, 336, 2496}}},
    // Client-signed commands: one sign per op, one verify per replica apply.
    {"FastPaxos_s4_A_signed",
     kv(kFastPaxos, 3, 0, 4, 64, 8, kv::Mix::kA, kv::KeyDist::kUniform, true),
     kGuardSeeds,
     {{{512, 20}, {512, 22}, {512, 22}, {512, 22}, {512, 22}, {512, 22},
       {512, 22}, {512, 22}, {512, 20}, {512, 22}, {512, 22}, {512, 22},
       {512, 22}, {512, 22}, {512, 22}, {512, 22}},
      32, 64, 66, 32, 64, 64, 2, 2302, {18416, 0, 0, 8192, 24582}}},
};

// Fast Paxos, 64 clients × 8 ops, shards × mix; then every engine family
// behind the same router (mix A, zipfian keys).
const std::vector<Row<KvTally>> kKvTable = {
    {"s1_A", kv(kFastPaxos, 3, 0, 1, 64, 8, kv::Mix::kA), 1,
     {{{512, 66}}, 8, 10, 10, 8, 10, 10, 16, 132, {1056, 0, 0, 0, 0}}},
    {"s1_B", kv(kFastPaxos, 3, 0, 1, 64, 8, kv::Mix::kB), 1,
     {{{512, 66}}, 8, 10, 10, 8, 10, 10, 16, 132, {1056, 0, 0, 0, 0}}},
    {"s1_C", kv(kFastPaxos, 3, 0, 1, 64, 8, kv::Mix::kC), 1,
     {{{512, 66}}, 8, 10, 10, 8, 10, 10, 16, 132, {1056, 0, 0, 0, 0}}},
    {"s2_A", kv(kFastPaxos, 3, 0, 2, 64, 8, kv::Mix::kA), 1,
     {{{512, 38}}, 4, 6, 6, 4, 6, 6, 4, 147, {1176, 0, 0, 0, 0}}},
    {"s2_B", kv(kFastPaxos, 3, 0, 2, 64, 8, kv::Mix::kB), 1,
     {{{512, 38}}, 4, 6, 6, 4, 6, 6, 4, 144, {1152, 0, 0, 0, 0}}},
    {"s2_C", kv(kFastPaxos, 3, 0, 2, 64, 8, kv::Mix::kC), 1,
     {{{512, 38}}, 4, 6, 6, 4, 6, 6, 4, 142, {1136, 0, 0, 0, 0}}},
    {"s4_A", kv(kFastPaxos, 3, 0, 4, 64, 8, kv::Mix::kA), 1,
     {{{512, 20}}, 2, 4, 4, 2, 4, 4, 0, 140, {1120, 0, 0, 0, 0}}},
    {"s4_B", kv(kFastPaxos, 3, 0, 4, 64, 8, kv::Mix::kB), 1,
     {{{512, 22}}, 2, 4, 4, 2, 4, 4, 0, 145, {1160, 0, 0, 0, 0}}},
    {"s4_C", kv(kFastPaxos, 3, 0, 4, 64, 8, kv::Mix::kC), 1,
     {{{512, 20}}, 2, 4, 4, 2, 4, 4, 0, 144, {1152, 0, 0, 0, 0}}},
    {"s8_A", kv(kFastPaxos, 3, 0, 8, 64, 8, kv::Mix::kA), 1,
     {{{512, 16}}, 2, 2, 2, 2, 2, 2, 0, 151, {1208, 0, 0, 0, 0}}},
    {"s8_B", kv(kFastPaxos, 3, 0, 8, 64, 8, kv::Mix::kB), 1,
     {{{512, 16}}, 2, 2, 2, 2, 2, 2, 0, 153, {1224, 0, 0, 0, 0}}},
    {"s8_C", kv(kFastPaxos, 3, 0, 8, 64, 8, kv::Mix::kC), 1,
     {{{512, 16}}, 2, 2, 2, 2, 2, 2, 0, 151, {1208, 0, 0, 0, 0}}},
    {"engine_FastPaxos",
     kv(kFastPaxos, 3, 0, 4, 16, 8, kv::Mix::kA, kv::KeyDist::kZipfian), 1,
     {{{128, 16}}, 2, 2, 2, 2, 2, 2, 0, 45, {360, 0, 0, 0, 0}}},
    {"engine_Paxos",
     kv(Algorithm::kPaxos, 3, 0, 4, 16, 8, kv::Mix::kA, kv::KeyDist::kZipfian),
     1, {{{128, 32}}, 4, 4, 4, 4, 4, 4, 0, 0, {630, 0, 0, 0, 0}}},
    {"engine_DiskPaxos",
     kv(Algorithm::kDiskPaxos, 2, 3, 2, 8, 4, kv::Mix::kA,
        kv::KeyDist::kZipfian),
     1, {{{32, 16}}, 4, 4, 4, 4, 4, 4, 0, 0, {12, 72, 36, 0, 0}}},
    {"engine_PMP", kv(kPmp, 2, 3, 2, 8, 4, kv::Mix::kA, kv::KeyDist::kZipfian),
     1, {{{32, 8}}, 2, 2, 2, 2, 2, 2, 0, 12, {12, 0, 36, 0, 0}}},
    {"engine_Aligned",
     kv(Algorithm::kAlignedPaxos, 3, 3, 2, 8, 4, kv::Mix::kA,
        kv::KeyDist::kZipfian),
     1, {{{32, 32}}, 8, 8, 8, 8, 8, 8, 0, 0, {168, 108, 72, 0, 0}}},
    // Answers at the Cheap Quorum decision: op p50 2, no duplicates.
    {"engine_FastRobust",
     kv(kFastRobust, 3, 3, 1, 2, 3, kv::Mix::kA, kv::KeyDist::kZipfian), 1,
     {{{6, 6}}, 2, 2, 2, 2, 2, 2, 0, 3, {0, 342, 63, 21, 156}}},
};

// --- Crash and rejoin. ------------------------------------------------------

const std::vector<Row<RecoveryTally>> kRecoveryGuards = {
    {"FastPaxos_compact_noRejoin",
     rejoin(4, sim::kTimeInfinity, sim::kTimeInfinity), kGuardSeeds,
     {{{512, 129}}, 3072, 0, 12288, 0, 0, {32768, 0, 0, 0, 0}}},
    {"FastPaxos_i4_rejoin", rejoin(4, 6, 60), kGuardSeeds,
     {{{512, 129}}, 2624, 16, 10496, 110688, 1104, {31104, 0, 0, 0, 0}}},
    {"FastPaxos_i16_rejoin", rejoin(16, 6, 60), kGuardSeeds,
     {{{512, 129}}, 656, 16, 10368, 112224, 1104, {31104, 0, 0, 0, 0}}},
    {"KvFastPaxos_i4_rejoin", kv_rejoin(4), kGuardSeeds,
     {{{48, 35}, {48, 35}, {48, 35}, {48, 35}, {48, 33}, {48, 35}, {48, 35},
       {48, 33}, {48, 29}, {48, 33}, {48, 37}, {48, 31}, {48, 33}, {48, 33},
       {48, 37}, {48, 33}},
      400, 32, 1600, 35286, 0, {6766, 0, 0, 0, 0}}},
};

// p3 crashes at 6. Rejoining at 60, one answered round installs a snapshot
// and the suffix above it, so a sparser snapshot cadence ships about the
// same bytes; at cadence 4, the bytes grow with the state applied by the
// rejoin time, and the converge delay is the rest of the run.
const std::vector<Row<RecoveryTally>> kRecoveryTable = {
    {"i2_rejoin60", rejoin(2, 6, 60), 1,
     {{{512, 129}}, 328, 1, 656, 6918, 69, {1944, 0, 0, 0, 0}}},
    {"i4_rejoin60", rejoin(4, 6, 60), 1,
     {{{512, 129}}, 164, 1, 656, 6918, 69, {1944, 0, 0, 0, 0}}},
    {"i8_rejoin60", rejoin(8, 6, 60), 1,
     {{{512, 129}}, 82, 1, 656, 6950, 69, {1944, 0, 0, 0, 0}}},
    {"i16_rejoin60", rejoin(16, 6, 60), 1,
     {{{512, 129}}, 41, 1, 648, 7014, 69, {1944, 0, 0, 0, 0}}},
    {"i4_rejoin30", rejoin(4, 6, 30), 1,
     {{{512, 129}}, 179, 1, 716, 3318, 99, {2004, 0, 0, 0, 0}}},
    {"i4_rejoin120", rejoin(4, 6, 120), 1,
     {{{512, 129}}, 134, 1, 536, 14118, 9, {1824, 0, 0, 0, 0}}},
    {"i4_rejoin400", rejoin(4, 6, 400), 1,
     {{{512, 129}}, 130, 1, 520, 15198, 0, {1808, 0, 0, 0, 0}}},
};

// --- Live resharding. -------------------------------------------------------

const std::vector<Row<ReconfigTally>> kReconfigGuards = {
    {"static_s1", plan(1, {}), kGuardSeeds,
     {{{512, 66}}, 128, 160, 0, 0, 0, {}, {16896, 0, 0, 0, 0}}},
    {"split_1to2", plan(1, kSplit), kGuardSeeds,
     {{{512, 70}, {512, 64}, {512, 64}, {512, 66}, {512, 66}, {512, 64},
       {512, 64}, {512, 66}, {512, 68}, {512, 64}, {512, 68}, {512, 66},
       {512, 64}, {512, 66}, {512, 66}, {512, 66}},
      128, 200, 16, 574, 1144, {672}, {19960, 0, 0, 0, 0}}},
    {"double_4to8", plan(4, kDouble), kGuardSeeds,
     {{{512, 26}, {512, 24}, {512, 24}, {512, 22}, {512, 24}, {512, 26},
       {512, 28}, {512, 28}, {512, 28}, {512, 28}, {512, 28}, {512, 28},
       {512, 24}, {512, 24}, {512, 28}, {512, 24}},
      32, 92, 64, 687, 0, {672, 1312, 1952, 2592}, {20840, 0, 0, 0, 0}}},
    {"merge_2to1", plan(2, kMerge), kGuardSeeds,
     {{{512, 48}, {512, 38}, {512, 40}, {512, 40}, {512, 40}, {512, 42},
       {512, 50}, {512, 40}, {512, 48}, {512, 40}, {512, 40}, {512, 48},
       {512, 42}, {512, 38}, {512, 48}, {512, 40}},
      64, 136, 16, 686, 36, {672}, {19248, 0, 0, 0, 0}}},
};

const std::vector<Row<ReconfigTally>> kReconfigTable = {
    {"static_s1", plan(1, {}), 1,
     {{{512, 66}}, 8, 10, 0, 0, 0, {}, {1056, 0, 0, 0, 0}}},
    {"split_1to2", plan(1, kSplit), 1,
     {{{512, 70}}, 8, 14, 1, 34, 86, {42}, {1304, 0, 0, 0, 0}}},
    {"double_4to8", plan(4, kDouble), 1,
     {{{512, 26}}, 2, 6, 4, 43, 0, {42, 82, 122, 162}, {1288, 0, 0, 0, 0}}},
    {"merge_2to1", plan(2, kMerge), 1,
     {{{512, 48}}, 4, 8, 1, 40, 2, {42}, {1184, 0, 0, 0, 0}}},
    {"split_1to2_leader_crash", split_with_crash(), 1,
     {{{512, 82}}, 8, 32, 1, 33, 104, {42}, {1292, 0, 0, 0, 0}}},
};

// --- Cross-shard transactions. ----------------------------------------------

const std::vector<Row<TxnTally>> kTxnGuards = {
    {"FastPaxos_s3_theta0", txn(3, 0.4, 0.0), kGuardSeeds,
     {{{769, 86}, {741, 78}, {739, 66}, {747, 96}, {718, 84}, {706, 80},
       {726, 70}, {825, 86}, {733, 64}, {696, 66}, {716, 76}, {684, 76},
       {813, 78}, {667, 66}, {752, 86}, {756, 78}},
      1658, 1360, 298, 298, 192, 198, {29216, 0, 0, 0, 0}}},
    {"FastPaxos_s3_theta95", txn(3, 0.4, 0.95), kGuardSeeds,
     {{{660, 76}, {703, 84}, {655, 60}, {679, 88}, {627, 64}, {638, 66},
       {664, 66}, {727, 84}, {656, 60}, {630, 60}, {647, 68}, {644, 68},
       {703, 88}, {638, 62}, {642, 58}, {640, 66}},
      1662, 807, 855, 855, 192, 200, {25944, 0, 0, 0, 0}}},
    {"FastPaxos_s3_theta99", txn(3, 0.4, 0.99), kGuardSeeds,
     {{{654, 80}, {685, 82}, {654, 64}, {657, 90}, {618, 58}, {614, 66},
       {658, 62}, {718, 80}, {655, 58}, {634, 80}, {624, 68}, {632, 68},
       {687, 84}, {621, 60}, {645, 58}, {626, 70}},
      1655, 754, 901, 901, 192, 196, {25896, 0, 0, 0, 0}}},
    {"FastPaxos_s3_size4", txn(3, 0.4, 0.8, 4), kGuardSeeds,
     {{{1087, 118}, {999, 110}, {1155, 128}, {994, 114}, {1001, 126},
       {981, 110}, {1023, 130}, {1143, 130}, {1092, 140}, {1039, 152},
       {992, 106}, {986, 114}, {1166, 144}, {945, 120}, {1101, 118},
       {921, 106}},
      1652, 451, 1201, 1201, 384, 384, {42008, 0, 0, 0, 0}}},
    {"FastPaxos_s1_control", txn(1, 0.4, 0.0), kGuardSeeds,
     {{{764, 128}, {736, 118}, {746, 106}, {751, 138}, {717, 122},
       {702, 118}, {727, 106}, {827, 126}, {732, 104}, {697, 102},
       {718, 116}, {681, 112}, {816, 130}, {670, 100}, {747, 124},
       {756, 118}},
      1658, 1357, 301, 301, 376, 384, {25624, 0, 0, 0, 0}}},
    // Every op slot a transfer vs none at all.
    {"FastPaxos_s3_pure", txn(3, 1.0, 0.0), kGuardSeeds,
     {{{1433, 98}, {1422, 96}, {1447, 100}, {1436, 96}, {1415, 98},
       {1426, 98}, {1409, 96}, {1429, 96}, {1433, 98}, {1424, 96},
       {1405, 96}, {1415, 96}, {1416, 96}, {1402, 98}, {1426, 100},
       {1436, 96}},
      4096, 3142, 954, 954, 192, 212, {52208, 0, 0, 0, 0}}},
    {"FastPaxos_s3_plain", txn(3, 0.0, 0.0), kGuardSeeds,
     {{{256, 16}, {256, 16}, {256, 16}, {256, 16}, {256, 18}, {256, 16},
       {256, 16}, {256, 16}, {256, 16}, {256, 16}, {256, 18}, {256, 16},
       {256, 16}, {256, 16}, {256, 16}, {256, 16}},
      0, 0, 0, 0, 0, 0, {9320, 0, 0, 0, 0}}},
};

// A 40% transfer mix: contention θ over 3 shards, 3- and 4-account
// transfers at θ = 0.8, and one shard as the single-log control.
const std::vector<Row<TxnTally>> kTxnTable = {
    {"s3_theta0", txn(3, 0.4, 0.0), 1,
     {{{769, 86}}, 111, 93, 18, 18, 12, 12, {1896, 0, 0, 0, 0}}},
    {"s3_theta50", txn(3, 0.4, 0.5), 1,
     {{{748, 80}}, 111, 82, 29, 29, 12, 12, {1848, 0, 0, 0, 0}}},
    {"s3_theta80", txn(3, 0.4, 0.8), 1,
     {{{710, 78}}, 110, 68, 42, 42, 12, 12, {1736, 0, 0, 0, 0}}},
    {"s3_theta95", txn(3, 0.4, 0.95), 1,
     {{{660, 76}}, 108, 50, 58, 58, 12, 12, {1640, 0, 0, 0, 0}}},
    {"s3_theta99", txn(3, 0.4, 0.99), 1,
     {{{654, 80}}, 107, 48, 59, 59, 12, 12, {1640, 0, 0, 0, 0}}},
    {"s3_size3", txn(3, 0.4, 0.8, 3), 1,
     {{{872, 118}}, 101, 43, 58, 58, 18, 18, {2240, 0, 0, 0, 0}}},
    {"s3_size4", txn(3, 0.4, 0.8, 4), 1,
     {{{1087, 118}}, 110, 29, 81, 81, 24, 24, {2664, 0, 0, 0, 0}}},
    {"s1_theta0", txn(1, 0.4, 0.0), 1,
     {{{764, 128}}, 111, 92, 19, 19, 24, 24, {1672, 0, 0, 0, 0}}},
    {"s1_theta95", txn(1, 0.4, 0.95), 1,
     {{{666, 112}}, 108, 48, 60, 60, 24, 24, {1432, 0, 0, 0, 0}}},
};

// --- The row tests. ---------------------------------------------------------

template <typename Tally>
class Rows : public ::testing::TestWithParam<Row<Tally>> {};

using LogRows = Rows<LogTally>;
using KvRows = Rows<KvTally>;
using RecoveryRows = Rows<RecoveryTally>;
using ReconfigRows = Rows<ReconfigTally>;
using TxnRows = Rows<TxnTally>;

TEST_P(LogRows, Exact) { EXPECT_EQ(measure(GetParam()), GetParam().expect); }
TEST_P(KvRows, Exact) { EXPECT_EQ(measure(GetParam()), GetParam().expect); }
TEST_P(RecoveryRows, Exact) {
  EXPECT_EQ(measure(GetParam()), GetParam().expect);
}
TEST_P(ReconfigRows, Exact) {
  EXPECT_EQ(measure(GetParam()), GetParam().expect);
}
TEST_P(TxnRows, Exact) { EXPECT_EQ(measure(GetParam()), GetParam().expect); }

INSTANTIATE_TEST_SUITE_P(Guard, LogRows, ::testing::ValuesIn(kLogGuards),
                         row_name<LogTally>);
INSTANTIATE_TEST_SUITE_P(Table, LogRows, ::testing::ValuesIn(kLogTable),
                         row_name<LogTally>);
INSTANTIATE_TEST_SUITE_P(Guard, KvRows, ::testing::ValuesIn(kKvGuards),
                         row_name<KvTally>);
INSTANTIATE_TEST_SUITE_P(Table, KvRows, ::testing::ValuesIn(kKvTable),
                         row_name<KvTally>);
INSTANTIATE_TEST_SUITE_P(Guard, RecoveryRows,
                         ::testing::ValuesIn(kRecoveryGuards),
                         row_name<RecoveryTally>);
INSTANTIATE_TEST_SUITE_P(Table, RecoveryRows,
                         ::testing::ValuesIn(kRecoveryTable),
                         row_name<RecoveryTally>);
INSTANTIATE_TEST_SUITE_P(Guard, ReconfigRows,
                         ::testing::ValuesIn(kReconfigGuards),
                         row_name<ReconfigTally>);
INSTANTIATE_TEST_SUITE_P(Table, ReconfigRows,
                         ::testing::ValuesIn(kReconfigTable),
                         row_name<ReconfigTally>);
INSTANTIATE_TEST_SUITE_P(Guard, TxnRows, ::testing::ValuesIn(kTxnGuards),
                         row_name<TxnTally>);
INSTANTIATE_TEST_SUITE_P(Table, TxnRows, ::testing::ValuesIn(kTxnTable),
                         row_name<TxnTally>);

// --- The ROADMAP's ratios, over the pinned rows. ----------------------------
//
// The row tests hold every row to its runs; these hold the pinned rows to
// the claims, so a row re-pinned to numbers that break a claim fails here.

TEST(PerfRatios, EightShardsServeAtLeastThreeTimesOne) {
  // Read-only mix, 64 clients: 32,000 ops/kdelay on 8 shards against
  // 7,757.58 on one.
  const double s1 = mean_rate(pinned(kKvGuards, "FastPaxos_s1_C").rates);
  const double s8 = mean_rate(pinned(kKvGuards, "FastPaxos_s8_C").rates);
  EXPECT_GE(s8, 3 * s1);
}

TEST(PerfRatios, SignedCommandsCostOnlySignatures) {
  // Signing costs wall clock, not virtual time: the signed row reads the
  // unsigned row's 23,563.64 ops/kdelay, latencies and messages, plus one
  // signature per op and the replicas' verifications.
  const KvTally& plain = pinned(kKvGuards, "FastPaxos_s4_A");
  KvTally signed_ops = pinned(kKvGuards, "FastPaxos_s4_A_signed");
  EXPECT_EQ(signed_ops.costs.sigs, kGuardSeeds * 512);
  EXPECT_GT(signed_ops.costs.verifies, signed_ops.costs.sigs);
  signed_ops.costs.sigs = signed_ops.costs.verifies = 0;
  EXPECT_EQ(signed_ops, plain);
}

TEST(PerfRatios, AbortRateRisesWithContention) {
  // The no-wait rule turns contention into aborts: 0.180 of the transfers
  // abort at θ = 0, 0.514 at 0.95 and 0.544 at 0.99.
  const auto abort_rate = [](std::string_view name) {
    const TxnTally& t = pinned(kTxnGuards, name);
    return static_cast<double>(t.aborts) / static_cast<double>(t.txns);
  };
  EXPECT_LT(abort_rate("FastPaxos_s3_theta0"),
            abort_rate("FastPaxos_s3_theta95"));
  EXPECT_LT(abort_rate("FastPaxos_s3_theta95"),
            abort_rate("FastPaxos_s3_theta99"));
}

TEST(PerfRatios, TransfersAddRecordsNotCost) {
  // Every record of an uncontended transfer is an ordinary logged command,
  // so an all-transfer run keeps within 15% of the transfer-free rate:
  // 14,657.55 against 15,777.78 ops/kdelay.
  const double pure = mean_rate(pinned(kTxnGuards, "FastPaxos_s3_pure").rates);
  const double plain =
      mean_rate(pinned(kTxnGuards, "FastPaxos_s3_plain").rates);
  EXPECT_GE(pure, 0.85 * plain);
}

TEST(PerfRatios, RejoinKeepsTheNoFaultThroughput) {
  // Catch-up never stalls the survivors: with p3 crashed at 6 and rejoined
  // at 60, every seed still drains its 512 commands at 129, 3,968.99
  // cmds/kdelay, at either snapshot cadence.
  const RecoveryTally& none =
      pinned(kRecoveryGuards, "FastPaxos_compact_noRejoin");
  EXPECT_EQ(pinned(kRecoveryGuards, "FastPaxos_i4_rejoin").rates, none.rates);
  EXPECT_EQ(pinned(kRecoveryGuards, "FastPaxos_i16_rejoin").rates, none.rates);
}

}  // namespace
}  // namespace mnm::harness
