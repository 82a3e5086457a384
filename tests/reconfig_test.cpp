// Dynamic reconfiguration (src/reconfig/) — unit and cluster invariants.
//
// Three layers under test, bottom up:
//
//  * the versioned routing model — kv::ShardTable, apply_change, the strict
//    codecs — including the routing-preservation law behind bucket doubling;
//  * the migration state machines in isolation — reconfig::TableMachine's
//    CAS apply and fail-closed snapshots, kv::StateMachine's
//    SEAL → export → INSTALL → PURGE sequence, and the straddling-retry
//    exactly-once case (applied at the source pre-seal, retried at the
//    destination post-install, suppressed by the merged session);
//  * whole-cluster runs where the harness doubles the shard count (1→2 and
//    4→8) *during* a zipfian workload, merges groups, crashes the source
//    leader mid-drain, and rejoins a wiped process into a post-split world —
//    in every case Σ per-shard effective applies must equal completed client
//    ops, and all correct replicas (data groups and the config group alike)
//    must converge to identical fingerprints.

#include <gtest/gtest.h>

#include <numeric>
#include <string>

#include "src/harness/cluster.hpp"
#include "src/kv/range.hpp"
#include "src/kv/shard.hpp"
#include "src/kv/state_machine.hpp"
#include "src/reconfig/change.hpp"
#include "src/reconfig/table_machine.hpp"

namespace mnm::harness {
namespace {

using kv::Command;
using kv::Op;
using kv::RangeSnapshot;
using kv::RangeSpec;
using kv::Reply;
using kv::ShardMap;
using kv::ShardTable;
using kv::Status;
using reconfig::ChangeKind;
using reconfig::ConfigChange;
using reconfig::decode_config_change;
using reconfig::encode_config_change;

// ---------------------------------------------------------------------------
// Routing model: ShardTable / apply_change.
// ---------------------------------------------------------------------------

Bytes key_bytes(std::size_t i) {
  return util::to_bytes("key-" + std::to_string(i));
}

/// First "key-<i>" whose hash lands in bucket `want` of a `buckets`-sized
/// table.
Bytes key_in_bucket(std::size_t buckets, std::size_t want) {
  for (std::size_t i = 0;; ++i) {
    const Bytes k = key_bytes(i);
    if (ShardMap::key_hash(k) % buckets == want) return k;
  }
}

TEST(ShardTableUnit, InitialRoutesExactlyLikeShardMap) {
  for (const std::size_t shards : {1u, 2u, 3u, 4u, 8u}) {
    const ShardTable t = ShardTable::initial(shards);
    const ShardMap map(shards);
    ASSERT_EQ(t.buckets.size(), shards);
    for (std::size_t i = 0; i < 64; ++i) {
      const Bytes k = key_bytes(i);
      EXPECT_EQ(kv::shard_of(t, k), map.shard_of(k))
          << "key-" << i << " with " << shards << " shards";
    }
  }
}

TEST(ShardTableUnit, SingleBucketSplitDoublesAndPreservesRouting) {
  const ShardTable t0 = ShardTable::initial(1);
  const ConfigChange c{ChangeKind::kSplit, 0, 0, 1};
  const std::optional<ShardTable> t1 = apply_change(t0, c);
  ASSERT_TRUE(t1.has_value());
  EXPECT_EQ(t1->epoch, 1u);
  EXPECT_EQ(t1->groups, 2u);  // dst == groups activated a new group
  ASSERT_EQ(t1->buckets.size(), 2u);
  EXPECT_EQ(t1->buckets[0], 0u);
  EXPECT_EQ(t1->buckets[1], 1u);
  // The doubling law: a key moved iff it gained the new hash bit. Keys in
  // bucket 0 of the doubled table stay home.
  for (std::size_t i = 0; i < 64; ++i) {
    const Bytes k = key_bytes(i);
    const std::size_t owner = kv::shard_of(*t1, k);
    EXPECT_EQ(owner, ShardMap::key_hash(k) % 2);
  }
}

TEST(ShardTableUnit, SplitOfMultiBucketGroupMovesUpperHalf) {
  // 4 groups, 4 buckets; split g1 into brand-new g4. g1 owns one bucket, so
  // the array doubles to 8 and exactly one of g1's two doubled buckets
  // (the upper) moves.
  const ShardTable t0 = ShardTable::initial(4);
  const std::optional<ShardTable> t1 =
      apply_change(t0, ConfigChange{ChangeKind::kSplit, 0, 1, 4});
  ASSERT_TRUE(t1.has_value());
  EXPECT_EQ(t1->groups, 5u);
  ASSERT_EQ(t1->buckets.size(), 8u);
  EXPECT_EQ(t1->buckets[1], 1u);  // lower half stays
  EXPECT_EQ(t1->buckets[5], 4u);  // upper half (one more hash bit) moves
  // Every other group's routing is untouched by the doubling.
  for (const std::size_t b : {0u, 2u, 3u, 4u, 6u, 7u}) {
    EXPECT_EQ(t1->buckets[b], t0.buckets[b % 4]) << "bucket " << b;
  }
}

TEST(ShardTableUnit, MergeMovesEveryBucketAndEmptiesSource) {
  const ShardTable t0 = ShardTable::initial(2);
  const std::optional<ShardTable> t1 =
      apply_change(t0, ConfigChange{ChangeKind::kMerge, 0, 1, 0});
  ASSERT_TRUE(t1.has_value());
  EXPECT_EQ(t1->epoch, 1u);
  EXPECT_EQ(t1->groups, 2u);  // the group id survives, owning nothing
  for (const std::uint32_t b : t1->buckets) EXPECT_EQ(b, 0u);
  // Splitting the now-empty source must reject: nothing to split.
  EXPECT_FALSE(
      apply_change(*t1, ConfigChange{ChangeKind::kSplit, 1, 1, 0}).has_value());
  // Merging it again must also reject, deterministically.
  EXPECT_FALSE(
      apply_change(*t1, ConfigChange{ChangeKind::kMerge, 1, 1, 0}).has_value());
}

TEST(ShardTableUnit, StaleAndInvalidChangesRejectDeterministically) {
  const ShardTable t = ShardTable::initial(2);
  // CAS miss: base_epoch must match exactly — the duplicate-re-propose rule.
  EXPECT_FALSE(
      apply_change(t, ConfigChange{ChangeKind::kSplit, 1, 0, 1}).has_value());
  // src == dst.
  EXPECT_FALSE(
      apply_change(t, ConfigChange{ChangeKind::kSplit, 0, 0, 0}).has_value());
  // Unknown src group.
  EXPECT_FALSE(
      apply_change(t, ConfigChange{ChangeKind::kSplit, 0, 7, 1}).has_value());
  // dst beyond the next id (no gaps in group activation).
  EXPECT_FALSE(
      apply_change(t, ConfigChange{ChangeKind::kSplit, 0, 0, 3}).has_value());
  // Merge into an unknown destination.
  EXPECT_FALSE(
      apply_change(t, ConfigChange{ChangeKind::kMerge, 0, 1, 2}).has_value());
  // Bucket cap: a single-bucket source at the cap cannot double.
  ShardTable at_cap;
  at_cap.groups = 2;
  at_cap.buckets.assign(kv::kMaxTableBuckets, 0);
  at_cap.buckets[1] = 1;  // group 1 owns exactly one bucket
  EXPECT_FALSE(
      apply_change(at_cap, ConfigChange{ChangeKind::kSplit, 0, 1, 0})
          .has_value());
}

TEST(ShardTableUnit, CodecsRoundTripAndRejectMalformed) {
  const ShardTable t =
      *apply_change(ShardTable::initial(2), ConfigChange{ChangeKind::kSplit,
                                                         0, 0, 2});
  const Bytes tb = kv::encode_shard_table(t);
  ASSERT_TRUE(kv::decode_shard_table(tb).has_value());
  EXPECT_EQ(*kv::decode_shard_table(tb), t);
  Bytes trailing = tb;
  trailing.push_back(0);
  EXPECT_FALSE(kv::decode_shard_table(trailing).has_value());
  EXPECT_FALSE(
      kv::decode_shard_table(util::ByteView(tb.data(), tb.size() - 1))
          .has_value());

  const ConfigChange c{ChangeKind::kMerge, 7, 3, 1};
  const Bytes cb = encode_config_change(c);
  ASSERT_TRUE(decode_config_change(cb).has_value());
  EXPECT_EQ(*decode_config_change(cb), c);
  Bytes bad_kind = cb;
  bad_kind[0] = 9;
  EXPECT_FALSE(decode_config_change(bad_kind).has_value());

  RangeSpec spec;
  spec.epoch = 3;
  spec.table_buckets = 4;
  spec.buckets = {1, 3};
  const Bytes sb = kv::encode_range_spec(spec);
  ASSERT_TRUE(kv::decode_range_spec(sb).has_value());
  EXPECT_EQ(*kv::decode_range_spec(sb), spec);

  RangeSnapshot snap;
  snap.spec = spec;
  snap.pairs.emplace_back(key_bytes(1), util::to_bytes("v1"));
  snap.sessions.push_back({/*client=*/4, /*last_seq=*/9, Reply{}});
  const Bytes nb = kv::encode_range_snapshot(snap);
  ASSERT_TRUE(kv::decode_range_snapshot(nb).has_value());
  EXPECT_EQ(*kv::decode_range_snapshot(nb), snap);
  // Any flipped byte must fail the embedded digest, closed.
  Bytes forged = nb;
  forged[forged.size() / 2] ^= 0x40;
  EXPECT_FALSE(kv::decode_range_snapshot(forged).has_value());
}

// ---------------------------------------------------------------------------
// TableMachine: CAS apply, fail-closed snapshots.
// ---------------------------------------------------------------------------

TEST(TableMachineUnit, CasApplyCountsAndSinksOncePerEpoch) {
  reconfig::TableMachine m(ShardTable::initial(1));
  std::size_t sunk = 0;
  m.set_table_sink([&](const ShardTable& t, const ConfigChange&) {
    ++sunk;
    EXPECT_EQ(t.epoch, 1u);
  });
  const Bytes change =
      encode_config_change(ConfigChange{ChangeKind::kSplit, 0, 0, 1});
  m.apply(0, change);
  EXPECT_EQ(m.changes_applied(), 1u);
  EXPECT_EQ(m.table().epoch, 1u);
  EXPECT_EQ(sunk, 1u);
  // The re-proposed duplicate (same bytes, bumped epoch) rejects — no sink.
  m.apply(1, change);
  EXPECT_EQ(m.changes_applied(), 1u);
  EXPECT_EQ(m.changes_rejected(), 1u);
  EXPECT_EQ(sunk, 1u);
  // Byzantine garbage in a won slot no-ops deterministically.
  m.apply(2, util::to_bytes("not a change"));
  EXPECT_EQ(m.malformed(), 1u);
}

TEST(TableMachineUnit, SnapshotRestoresExactlyOrFailsClosed) {
  reconfig::TableMachine a(ShardTable::initial(2));
  a.apply(0, encode_config_change(ConfigChange{ChangeKind::kSplit, 0, 0, 2}));
  a.apply(1, util::to_bytes("junk"));
  const Bytes snap = a.snapshot();

  reconfig::TableMachine b(ShardTable::initial(2));
  ASSERT_TRUE(b.restore(snap));
  EXPECT_EQ(b.state_hash(), a.state_hash());
  EXPECT_EQ(b.table(), a.table());
  EXPECT_EQ(b.malformed(), 1u);

  reconfig::TableMachine c(ShardTable::initial(2));
  Bytes forged = snap;
  forged[forged.size() - 3] ^= 0x01;  // inside the trailing digest
  EXPECT_FALSE(c.restore(forged));
  EXPECT_EQ(c.table().epoch, 0u) << "failed restore must leave state alone";
}

// ---------------------------------------------------------------------------
// StateMachine: SEAL → export → INSTALL → PURGE, and the straddling retry.
// ---------------------------------------------------------------------------

Bytes client_put(kv::ClientId client, std::uint64_t seq, Bytes key) {
  Command c;
  c.op = Op::kPut;
  c.client = client;
  c.seq = seq;
  c.key = std::move(key);
  std::string value = "v";
  value += std::to_string(seq);
  c.value = util::to_bytes(value);
  return encode_command(c);
}

Bytes admin_cmd(Op op, std::uint64_t seq, Bytes payload) {
  Command c;
  c.op = op;
  c.client = 99;  // the Migrator's admin session
  c.seq = seq;
  c.value = std::move(payload);
  return encode_command(c);
}

TEST(StateMachineUnit, SealExportInstallPurgeMovesRangeExactlyOnce) {
  const ShardTable initial = ShardTable::initial(1);
  kv::StateMachine src, dst;
  src.configure_partition(0, initial);
  dst.configure_partition(1, initial);

  Reply last;
  std::uint64_t last_seq_seen = 0;
  const auto capture = [&](kv::ClientId, std::uint64_t seq, const Reply& r) {
    last = r;
    last_seq_seen = seq;
  };
  src.set_reply_sink(capture);
  dst.set_reply_sink(capture);

  // Post-split geometry: 2 buckets, bucket 1 moves to group 1.
  const Bytes moving = key_in_bucket(2, 1);
  const Bytes staying = key_in_bucket(2, 0);
  src.apply(0, client_put(1, 1, moving));    // the op the retry will straddle
  src.apply(1, client_put(2, 1, staying));
  EXPECT_EQ(src.ops_applied(), 2u);

  RangeSpec spec;
  spec.epoch = 1;
  spec.table_buckets = 2;
  spec.buckets = {1};
  const Bytes spec_bytes = kv::encode_range_spec(spec);

  // Before the seal the source must refuse to drain (in-flight pre-seal ops
  // could still land).
  EXPECT_TRUE(src.export_range(spec_bytes).empty());

  src.apply(2, admin_cmd(Op::kSeal, 1, spec_bytes));
  EXPECT_EQ(src.admin_applied(), 1u);
  EXPECT_EQ(src.config_epoch(), 1u);
  EXPECT_EQ(src.owned_buckets(), 1u);

  // A client op on the sealed bucket bounces — and the session is NOT
  // advanced, so the very same seq can still apply at the destination.
  src.apply(3, client_put(3, 1, moving));
  EXPECT_EQ(src.bounces(), 1u);
  EXPECT_EQ(last.status, Status::kWrongEpoch);
  EXPECT_EQ(src.last_seq(3), 0u);
  EXPECT_EQ(src.ops_applied(), 2u);

  const Bytes drained = src.export_range(spec_bytes);
  ASSERT_FALSE(drained.empty());
  const std::optional<RangeSnapshot> snap = kv::decode_range_snapshot(drained);
  ASSERT_TRUE(snap.has_value());
  ASSERT_EQ(snap->pairs.size(), 1u);
  EXPECT_EQ(snap->pairs[0].first, moving);

  dst.apply(0, admin_cmd(Op::kInstall, 1, drained));
  EXPECT_EQ(dst.admin_applied(), 1u);
  EXPECT_EQ(dst.keys_imported(), 1u);
  EXPECT_EQ(dst.owned_buckets(), 1u);

  // THE straddle: client 1's op applied at the source pre-seal; the retry
  // of the same (client, seq) arrives at the destination post-install. The
  // merged session must suppress it and re-deliver the original reply.
  dst.apply(1, client_put(1, 1, moving));
  EXPECT_EQ(dst.duplicates_suppressed(), 1u);
  EXPECT_EQ(dst.ops_applied(), 0u);
  EXPECT_EQ(last.status, Status::kOk);
  EXPECT_EQ(last_seq_seen, 1u);

  // The bounced client's retry applies FRESH here — its session was never
  // advanced at the source.
  dst.apply(2, client_put(3, 1, moving));
  EXPECT_EQ(dst.ops_applied(), 1u);
  EXPECT_EQ(dst.duplicates_suppressed(), 1u);

  src.apply(4, admin_cmd(Op::kPurge, 2, spec_bytes));
  EXPECT_EQ(src.keys_purged(), 1u);
  EXPECT_EQ(src.store().count(moving), 0u);
  EXPECT_EQ(src.store().count(staying), 1u);

  // Stale admin ops (an old epoch's seal re-delivered) reject, counted.
  RangeSpec stale = spec;
  stale.epoch = 0;
  src.apply(5, admin_cmd(Op::kSeal, 3, kv::encode_range_spec(stale)));
  EXPECT_EQ(src.admin_rejected(), 1u);
}

TEST(StateMachineUnit, UnpartitionedMachineRejectsAdminOps) {
  kv::StateMachine m;
  RangeSpec spec;
  spec.epoch = 1;
  spec.table_buckets = 2;
  spec.buckets = {1};
  m.apply(0, admin_cmd(Op::kSeal, 1, kv::encode_range_spec(spec)));
  EXPECT_EQ(m.admin_rejected(), 1u);
  EXPECT_EQ(m.admin_applied(), 1u);  // the session advanced; the op rejected
  EXPECT_TRUE(m.export_range(kv::encode_range_spec(spec)).empty());
}

// ---------------------------------------------------------------------------
// Whole-cluster reconfiguration runs.
// ---------------------------------------------------------------------------

ClusterConfig reconfig_config(std::size_t shards, std::size_t clients,
                              std::size_t ops) {
  ClusterConfig c;
  c.algo = Algorithm::kFastPaxos;
  c.n = 3;
  c.m = 0;
  c.kv.enabled = true;
  c.kv.shards = shards;
  c.kv.clients = clients;
  c.kv.ops_per_client = ops;
  c.kv.dist = kv::KeyDist::kZipfian;
  return c;
}

std::uint64_t total_shard_ops(const RunReport& r) {
  return std::accumulate(r.kv_shard_ops.begin(), r.kv_shard_ops.end(),
                         std::uint64_t{0});
}

TEST(ReconfigCluster, SplitOneToTwoDuringZipfianWorkload) {
  ClusterConfig c = reconfig_config(/*shards=*/1, /*clients=*/8, /*ops=*/24);
  c.kv.reconfig.push_back({/*at=*/40, ChangeKind::kSplit, 0, 1});
  const RunReport r = run_cluster(c);
  EXPECT_TRUE(r.all_ok()) << r.summary();
  EXPECT_EQ(r.kv_ops, 8u * 24u) << "every client op must complete";
  // THE acceptance invariant: effective applies across all groups — old and
  // new — equal completed client ops, across the epoch flip.
  EXPECT_EQ(total_shard_ops(r), r.kv_ops) << r.summary();
  EXPECT_EQ(r.reconfig_epoch, 1u) << r.summary();
  EXPECT_EQ(r.reconfig_migrations, 1u);
  EXPECT_GT(r.reconfig_keys_moved, 0u) << "the split range was not empty";
  EXPECT_GT(r.reconfig_bounces, 0u)
      << "ops in flight at the seal must bounce with WrongEpoch and "
         "re-route: "
      << r.summary();
  ASSERT_EQ(r.kv_shard_ops.size(), 2u);
  EXPECT_GT(r.kv_shard_ops[1], 0u)
      << "the activated group must take post-split traffic: " << r.summary();
  ASSERT_EQ(r.reconfig_flip_times.size(), 1u);
  EXPECT_GE(r.reconfig_flip_times[0], sim::Time{40});
}

TEST(ReconfigCluster, DoubleFourToEightDuringZipfianWorkload) {
  ClusterConfig c = reconfig_config(/*shards=*/4, /*clients=*/8, /*ops=*/24);
  for (std::uint32_t g = 0; g < 4; ++g) {
    c.kv.reconfig.push_back(
        {/*at=*/sim::Time{40 + 60 * g}, ChangeKind::kSplit, g, 4 + g});
  }
  const RunReport r = run_cluster(c);
  EXPECT_TRUE(r.all_ok()) << r.summary();
  EXPECT_EQ(r.kv_ops, 8u * 24u);
  EXPECT_EQ(total_shard_ops(r), r.kv_ops) << r.summary();
  EXPECT_EQ(r.reconfig_epoch, 4u) << r.summary();
  EXPECT_EQ(r.reconfig_migrations, 4u);
  ASSERT_EQ(r.kv_shard_ops.size(), 8u);
  EXPECT_EQ(r.reconfig_flip_times.size(), 4u);
}

TEST(ReconfigCluster, MergeDrainsSourceGroupIntoDestination) {
  ClusterConfig c = reconfig_config(/*shards=*/2, /*clients=*/6, /*ops=*/20);
  c.kv.mix = kv::Mix::kA;  // writes on both groups before the merge
  c.kv.reconfig.push_back({/*at=*/60, ChangeKind::kMerge, 1, 0});
  const RunReport r = run_cluster(c);
  EXPECT_TRUE(r.all_ok()) << r.summary();
  EXPECT_EQ(r.kv_ops, 6u * 20u);
  EXPECT_EQ(total_shard_ops(r), r.kv_ops) << r.summary();
  EXPECT_EQ(r.reconfig_epoch, 1u);
  EXPECT_EQ(r.reconfig_migrations, 1u);
  EXPECT_GT(r.reconfig_keys_moved, 0u)
      << "group 1 held pairs before the merge: " << r.summary();
}

TEST(ReconfigCluster, SourceLeaderCrashMidMigrationStaysExactlyOnce) {
  // p1 (the initial leader of every group, and the drain source) dies just
  // after the split is proposed: the seal may be mid-flight, the drain hits
  // a halted log and must re-target the new leader Ω elects. Clients whose
  // ops died with p1's queue retry; across the crash AND the epoch flip the
  // exactly-once sum must hold.
  ClusterConfig c = reconfig_config(/*shards=*/1, /*clients=*/8, /*ops=*/24);
  c.kv.retry_timeout = 24;
  c.kv.reconfig.push_back({/*at=*/40, ChangeKind::kSplit, 0, 1});
  c.faults.process_crashes[1] = 46;
  const RunReport r = run_cluster(c);
  EXPECT_TRUE(r.agreement) << r.summary();
  EXPECT_TRUE(r.termination) << r.summary();
  EXPECT_TRUE(r.validity) << r.summary();
  EXPECT_EQ(r.kv_ops, 8u * 24u) << "every client op must complete";
  EXPECT_EQ(total_shard_ops(r), r.kv_ops) << r.summary();
  EXPECT_EQ(r.reconfig_epoch, 1u) << r.summary();
  EXPECT_EQ(r.reconfig_migrations, 1u) << r.summary();
}

TEST(ReconfigCluster, RejoinerLandsInPostSplitWorld) {
  // p3 crashes before the split and rejoins wiped long after the migration
  // completed: its fresh machines start from the *initial* table and must be
  // carried to the post-split world by snapshot install or replayed admin
  // ops — on the data groups and on the config group alike. The harness
  // agreement check (which includes rejoined processes and the config
  // group's state hash) is the oracle.
  ClusterConfig c = reconfig_config(/*shards=*/1, /*clients=*/6, /*ops=*/16);
  c.kv.retry_timeout = 24;
  c.kv.snapshot_interval = 4;
  c.kv.reconfig.push_back({/*at=*/40, ChangeKind::kSplit, 0, 1});
  c.faults.process_crashes[3] = 20;
  c.faults.process_rejoins[3] = 900;
  const RunReport r = run_cluster(c);
  EXPECT_TRUE(r.all_ok()) << r.summary();
  EXPECT_EQ(r.kv_ops, 6u * 16u);
  EXPECT_EQ(total_shard_ops(r), r.kv_ops) << r.summary();
  EXPECT_EQ(r.reconfig_epoch, 1u) << r.summary();
  EXPECT_EQ(r.processes[2].rejoined_at, 900u);
  // Fingerprint rows (per-group slots+hashes, config group included) must
  // agree across all three processes, the rejoiner included.
  EXPECT_EQ(r.processes[0].decision, r.processes[1].decision) << r.summary();
  EXPECT_EQ(r.processes[1].decision, r.processes[2].decision) << r.summary();
}

TEST(ReconfigCluster, FastRobustShardsSplitUnderLoad) {
  // The config group and both data groups ride FastRobust (all-propose
  // fan-out, Byzantine-tolerant): the Migrator submits ConfigChanges to
  // every replica and the CAS rejects the duplicate wins.
  ClusterConfig c;
  c.algo = Algorithm::kFastRobust;
  c.n = 3;
  c.m = 3;
  c.kv.enabled = true;
  c.kv.shards = 1;
  c.kv.clients = 2;
  c.kv.ops_per_client = 6;
  c.kv.reconfig.push_back({/*at=*/120, ChangeKind::kSplit, 0, 1});
  const RunReport r = run_cluster(c);
  EXPECT_TRUE(r.all_ok()) << r.summary();
  EXPECT_EQ(r.kv_ops, 2u * 6u);
  EXPECT_EQ(total_shard_ops(r), r.kv_ops) << r.summary();
  EXPECT_EQ(r.reconfig_epoch, 1u) << r.summary();
}

/// bench_reconfig's plan config: Fast Paxos, n = 3, 64 clients × 8 ops,
/// mix A, zipfian over 256 keys, window = batch = 4, at the default seed.
ClusterConfig bench_reconfig_plan(std::size_t shards,
                                  std::vector<ReconfigAction> actions) {
  ClusterConfig c;
  c.algo = Algorithm::kFastPaxos;
  c.n = 3;
  c.m = 0;
  c.kv.enabled = true;
  c.kv.shards = shards;
  c.kv.clients = 64;
  c.kv.ops_per_client = 8;
  c.kv.mix = kv::Mix::kA;
  c.kv.dist = kv::KeyDist::kZipfian;
  c.kv.keys = 256;
  c.kv.window = 4;
  c.kv.batch = 4;
  c.kv.reconfig = std::move(actions);
  c.horizon = 400000;
  return c;
}

TEST(ReconfigCluster, SplitKeepsNinetyPercentOfStaticThroughput) {
  // A live 1 -> 2 split costs the clients at most 10% of the static run's
  // throughput and at most 3x its op p999: a bounced op parks on the table
  // and its group's ownership signal and re-submits when the bucket opens,
  // instead of sleeping on a backed-off retry deadline (1636 ops/kdelay and
  // op p999 263 when it did). Bounces must not rise: 86 at this seed with
  // and without parking (BENCH_reconfig's 71 is a mean over its seeds).
  const RunReport stat = run_cluster(bench_reconfig_plan(1, {}));
  const RunReport split = run_cluster(
      bench_reconfig_plan(1, {{40, reconfig::ChangeKind::kSplit, 0, 1}}));
  ASSERT_TRUE(stat.all_ok()) << stat.summary();
  ASSERT_TRUE(split.all_ok()) << split.summary();
  ASSERT_EQ(split.reconfig_migrations, 1u);
  EXPECT_GE(split.kv_ops_per_kdelay, 0.9 * stat.kv_ops_per_kdelay)
      << split.summary();
  EXPECT_LE(split.kv_op_p999, 3 * stat.kv_op_p999) << split.summary();
  EXPECT_LE(split.reconfig_bounces, 86u) << split.summary();
}

TEST(ReconfigCluster, StaticRunsReportNoReconfigState) {
  // An empty plan is the pre-reconfig world, byte-for-byte: no epochs, no
  // proposals, no flips in the report.
  ClusterConfig c = reconfig_config(/*shards=*/2, /*clients=*/4, /*ops=*/8);
  c.kv.reconfig.clear();
  const RunReport r = run_cluster(c);
  EXPECT_TRUE(r.all_ok()) << r.summary();
  EXPECT_EQ(r.reconfig_epoch, 0u);
  EXPECT_EQ(r.reconfig_proposals, 0u);
  EXPECT_EQ(r.reconfig_bounces, 0u);
  EXPECT_TRUE(r.reconfig_flip_times.empty());
}

}  // namespace
}  // namespace mnm::harness
