// The paper's claims that no narrower test owns, asserted at the values the
// simulator measures (seed 1):
//   - Theorem 6.1's adversarial schedule, replayed against a 2-deciding
//     writer with static permissions, and the same contention against PMP;
//   - Fast & Robust handing off from Cheap Quorum to the backup under
//     faulty leaders and followers, leader crashes and asynchrony (§4.3,
//     Lemma 4.8);
//   - the signature cost of the slow path and of client-signed commands
//     (§4.2).

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/core/disk_paxos.hpp"
#include "src/harness/cluster.hpp"
#include "src/mem/memory.hpp"
#include "src/sim/executor.hpp"

namespace mnm::harness {
namespace {

// A 2-deciding "Disk Paxos" that decides on its write acks alone, with no
// verifying read: the algorithm Theorem 6.1 says cannot exist safely.
sim::Task<void> ack_only_writer(std::vector<mem::MemoryIface*> mems,
                                RegionId region, ProcessId p,
                                std::uint64_t ballot, std::string value,
                                std::string* decided) {
  core::DiskBlock b;
  b.mbal = ballot;
  b.bal = ballot;
  b.has_value = true;
  b.value = util::to_bytes(value);
  std::size_t acks = 0;
  for (mem::MemoryIface* m : mems) {
    const mem::Status st = co_await m->write(
        p, region, "dp/block/" + std::to_string(p), b.encode());
    if (st == mem::Status::kAck) ++acks;
  }
  if (acks >= majority(mems.size())) *decided = value;
}

TEST(TheoremSixOne, AckOnlyWriterBreaksAgreementPmpDoesNot) {
  // The proof's schedule: every memory op takes 40 units, so p's writes
  // (from 0) take effect late, and p' writes its own value from 1, inside
  // that window. With static permissions every write acks, and without a
  // verifying read neither sees the other: both decide, differently.
  sim::Executor exec;
  std::vector<std::unique_ptr<mem::Memory>> memories;
  std::vector<mem::MemoryIface*> ifc;
  RegionId region = 0;
  for (MemoryId i = 1; i <= 3; ++i) {
    memories.push_back(std::make_unique<mem::Memory>(exec, i, /*op_delay=*/40));
    region = core::make_disk_region(*memories.back(), 2);
    ifc.push_back(memories.back().get());
  }
  std::string p_decided, q_decided;
  exec.spawn(ack_only_writer(ifc, region, 1, 0, "v-fast", &p_decided));
  exec.call_at(1, [&] {
    exec.spawn(ack_only_writer(ifc, region, 2, 1, "v-prime", &q_decided));
  });
  exec.run(5000);
  EXPECT_EQ(p_decided, "v-fast");
  EXPECT_EQ(q_decided, "v-prime");

  // PMP under a contention window (messages take 10 units until GST 30)
  // keeps agreement and terminates: a rival's permission grab naks a stale
  // write, as ProtectedMemoryPaxos.StolenPermissionNaksOldLeaderWrite shows
  // at one memory.
  ClusterConfig c;
  c.algo = Algorithm::kProtectedMemoryPaxos;
  c.n = 2;
  c.m = 3;
  c.gst = 30;
  c.pre_gst_delay = 10;
  const RunReport r = run_cluster(c);
  EXPECT_TRUE(r.agreement) << r.summary();
  EXPECT_TRUE(r.termination) << r.summary();
}

ClusterConfig fast_robust(const std::function<void(ClusterConfig&)>& edit) {
  ClusterConfig c;
  c.algo = Algorithm::kFastRobust;
  c.n = 3;
  c.m = 3;
  edit(c);
  return c;
}

TEST(FastRobustFailover, CheapQuorumHandsOffToTheBackup) {
  // When Cheap Quorum cannot decide, the abort values seed the backup and
  // agreement survives the hand-off (Lemma 4.8). Per run (n = m = 3): the
  // first decision and how many non-Byzantine processes decided on the
  // fast path and through the backup. A faulty leader costs the follower
  // timeout (cq_timeout 120) and a backup round; a faulty follower leaves
  // p1's 2-delay fast decision standing.
  //
  // When p1 crashes at 3 it has decided on the fast path, at 2, before the
  // crash. At 1 its value write, issued at 0, is still in flight: the write
  // lands at the memories, but harness::ProcessView never resumes a crashed
  // process from it, so p1 decides nothing and the first decision is the
  // backup's, at 206. Both rows pin every process's decision time.
  struct Row {
    const char* scenario;
    ClusterConfig config;
    sim::Time first;
    std::size_t fast, backup;
    std::vector<sim::Time> decided_at = {};  // empty: not pinned
  };
  using S = ByzantineStrategy;
  const std::vector<Row> rows = {
      {"no fault", fast_robust([](ClusterConfig&) {}), 2, 3, 0},
      {"silent leader",
       fast_robust([](ClusterConfig& c) { c.faults.byzantine[1] = S::kSilent; }),
       208, 0, 2},
      {"equivocating leader", fast_robust([](ClusterConfig& c) {
         c.faults.byzantine[1] = S::kCqLeaderEquivocate;
       }),
       206, 0, 2},
      {"silent follower",
       fast_robust([](ClusterConfig& c) { c.faults.byzantine[3] = S::kSilent; }),
       2, 1, 1},
      {"garbage follower",
       fast_robust([](ClusterConfig& c) { c.faults.byzantine[3] = S::kGarbage; }),
       2, 1, 1},
      {"p1 crashes at 0",
       fast_robust([](ClusterConfig& c) { c.faults.process_crashes[1] = 0; }),
       208, 0, 2},
      {"p1 crashes at 1",
       fast_robust([](ClusterConfig& c) { c.faults.process_crashes[1] = 1; }),
       206, 0, 2, {0, 206, 218}},
      {"p1 crashes at 3",
       fast_robust([](ClusterConfig& c) { c.faults.process_crashes[1] = 3; }),
       2, 1, 2, {2, 206, 218}},
      {"asynchronous until GST 400", fast_robust([](ClusterConfig& c) {
         c.gst = 400;
         c.pre_gst_delay = 50;
         c.horizon = 200000;
       }),
       2, 3, 0},
  };
  for (const Row& row : rows) {
    const RunReport r = run_cluster(row.config);
    std::size_t fast = 0, backup = 0;
    for (const ProcessReport& p : r.processes) {
      if (!p.decided || p.byzantine) continue;
      ++(p.fast_path ? fast : backup);
    }
    EXPECT_TRUE(r.agreement) << row.scenario << ": " << r.summary();
    EXPECT_TRUE(r.termination) << row.scenario << ": " << r.summary();
    EXPECT_EQ(r.first_decision_delay, row.first) << row.scenario;
    EXPECT_EQ(fast, row.fast) << row.scenario;
    EXPECT_EQ(backup, row.backup) << row.scenario;
    for (std::size_t i = 0; i < row.decided_at.size(); ++i) {
      EXPECT_EQ(r.processes[i].decided_at, row.decided_at[i])
          << row.scenario << " p" << i + 1;
    }
  }
}

TEST(Signatures, SlowPathAndClientSigningCosts) {
  // §4.2: a fast decision signs once
  // (CheapQuorum.OneSignatureOnLeaderFastPath) and a fault-free Fast &
  // Robust run 2n + 1 times (LazyBackup.FaultFreeRunNeverBuildsTheBackup).
  // Robust Backup, the slow path, signs and checks every history link:
  struct Row {
    std::size_t n;
    std::uint64_t signatures, verifications;
  };
  for (const Row& row : {Row{3, 54, 174}, Row{5, 104, 550}}) {
    ClusterConfig c;
    c.algo = Algorithm::kRobustBackup;
    c.n = row.n;
    c.m = 3;
    const RunReport r = run_cluster(c);
    ASSERT_TRUE(r.all_ok()) << r.summary();
    EXPECT_EQ(r.signatures, row.signatures) << "n=" << row.n;
    EXPECT_EQ(r.verifications, row.verifications) << "n=" << row.n;
  }

  // Client-signed KV commands add one signature per op (at the issuing
  // client) and one verification per replica apply: 6 ops on n = 3 cost 6
  // more signatures and 18 more verifications than the unsigned run.
  const auto kv_run = [](bool sign) {
    ClusterConfig c;
    c.algo = Algorithm::kFastRobust;
    c.n = 3;
    c.m = 3;
    c.kv.enabled = true;
    c.kv.shards = 1;
    c.kv.clients = 2;
    c.kv.ops_per_client = 3;
    c.kv.sign_commands = sign;
    c.horizon = 200000;
    return run_cluster(c);
  };
  const RunReport plain = kv_run(false);
  const RunReport signed_run = kv_run(true);
  ASSERT_TRUE(plain.all_ok()) << plain.summary();
  ASSERT_TRUE(signed_run.all_ok()) << signed_run.summary();
  EXPECT_EQ(plain.kv_ops, 6u);
  EXPECT_EQ(signed_run.kv_ops, 6u);
  EXPECT_EQ(plain.signatures, 21u);
  EXPECT_EQ(plain.verifications, 156u);
  EXPECT_EQ(signed_run.signatures, 27u);
  EXPECT_EQ(signed_run.verifications, 174u);
}

}  // namespace
}  // namespace mnm::harness
