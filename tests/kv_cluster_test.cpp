// Sharded-KV cluster invariants (harness KV mode).
//
// The contract under test is client-visible exactly-once on top of
// per-shard SMR: every completed client operation mutates exactly one
// shard's store exactly once — even when the command lands in the log twice
// (client retry racing the original, or a leader hand-off re-proposing an
// open slot) — and every correct replica of a shard holds the same store
// and session table. Fault plans reuse the harness machinery: leader
// crashes mid-workload, Byzantine processes on FastRobust-backed shards.

#include <gtest/gtest.h>

#include <numeric>
#include <string>

#include "src/harness/cluster.hpp"

namespace mnm::harness {
namespace {

ClusterConfig kv_config(Algorithm algo, std::size_t n, std::size_t m,
                        std::size_t shards, std::size_t clients,
                        std::size_t ops) {
  ClusterConfig c;
  c.algo = algo;
  c.n = n;
  c.m = m;
  c.kv.enabled = true;
  c.kv.shards = shards;
  c.kv.clients = clients;
  c.kv.ops_per_client = ops;
  return c;
}

std::uint64_t total_shard_ops(const RunReport& r) {
  return std::accumulate(r.kv_shard_ops.begin(), r.kv_shard_ops.end(),
                         std::uint64_t{0});
}

TEST(KvCluster, ShardedMixAOverFastPaxos) {
  const RunReport r = run_cluster(kv_config(Algorithm::kFastPaxos, 3, 0,
                                            /*shards=*/4, /*clients=*/8,
                                            /*ops=*/16));
  EXPECT_TRUE(r.all_ok()) << r.summary();
  EXPECT_EQ(r.kv_ops, 8u * 16u);
  // Exactly-once, globally: effective applies across shards == client ops.
  EXPECT_EQ(total_shard_ops(r), r.kv_ops) << r.summary();
  EXPECT_EQ(r.kv_malformed, 0u);
  // The workload actually spread across the groups.
  EXPECT_EQ(r.kv_shard_ops.size(), 4u);
  for (std::size_t g = 0; g < r.kv_shard_ops.size(); ++g) {
    EXPECT_GT(r.kv_shard_ops[g], 0u) << "shard " << g << " saw no ops";
  }
  EXPECT_GT(r.kv_reads, 0u);
  EXPECT_GT(r.kv_writes, 0u);
  EXPECT_GT(r.kv_op_p50, 0u);
  EXPECT_GE(r.kv_op_p999, r.kv_op_p99);
  EXPECT_GE(r.commit_p999, r.commit_p99);
  // Fault-free Fast Paxos: p1 leads every shard and skips phase 1, so every
  // slot of every shard is fast — fast_slots adds up across the shards.
  EXPECT_EQ(r.fast_slots, r.slots_applied) << r.summary();
}

TEST(KvCluster, ZipfianReadMostlyOverFastPaxos) {
  ClusterConfig c = kv_config(Algorithm::kFastPaxos, 3, 0, 4, 8, 16);
  c.kv.mix = kv::Mix::kB;
  c.kv.dist = kv::KeyDist::kZipfian;
  const RunReport r = run_cluster(c);
  EXPECT_TRUE(r.all_ok()) << r.summary();
  EXPECT_EQ(r.kv_ops, 8u * 16u);
  EXPECT_EQ(total_shard_ops(r), r.kv_ops);
  // 95/5 mix: reads dominate.
  EXPECT_GT(r.kv_reads, r.kv_writes * 4);
}

TEST(KvCluster, MemoryEnginesBackShards) {
  // PMP-backed shards (n=2, m=3): the same router/workload stack runs over
  // memory-only consensus with per-shard slot-prefixed regions.
  const RunReport r = run_cluster(
      kv_config(Algorithm::kProtectedMemoryPaxos, 2, 3, 2, 4, 8));
  EXPECT_TRUE(r.all_ok()) << r.summary();
  EXPECT_EQ(r.kv_ops, 4u * 8u);
  EXPECT_EQ(total_shard_ops(r), r.kv_ops);
  EXPECT_GT(r.mem_writes, 0u);
}

TEST(KvCluster, MoreShardsMoreThroughput) {
  // Read-heavy mix, enough clients to saturate one group's pipeline
  // (window × batch): aggregate ops/kdelay must grow with the shard count.
  ClusterConfig one = kv_config(Algorithm::kFastPaxos, 3, 0, 1, 32, 8);
  one.kv.mix = kv::Mix::kC;
  one.kv.window = 4;
  one.kv.batch = 4;
  one.kv.keys = 256;
  ClusterConfig four = one;
  four.kv.shards = 4;
  const RunReport r1 = run_cluster(one);
  const RunReport r4 = run_cluster(four);
  ASSERT_TRUE(r1.all_ok()) << r1.summary();
  ASSERT_TRUE(r4.all_ok()) << r4.summary();
  EXPECT_GT(r4.kv_ops_per_kdelay, 1.5 * r1.kv_ops_per_kdelay)
      << "1 shard: " << r1.summary() << "\n4 shards: " << r4.summary();
}

// ---------------------------------------------------------------------------
// Exactly-once under faults.
// ---------------------------------------------------------------------------

TEST(KvCluster, AggressiveRetriesStayExactlyOnce) {
  // Retry deadline far below the commit latency: every client re-submits
  // while its original is still in flight, so the logs fill with duplicate
  // (client, seq) pairs — all of which must be suppressed, with the cached
  // reply answering the retry.
  ClusterConfig c = kv_config(Algorithm::kFastPaxos, 3, 0, 2, 6, 8);
  c.kv.retry_timeout = 2;
  // Pin the fixed-deadline mode: adaptive retry exists precisely to stop
  // this storm, and this test needs the storm to exercise the dedup.
  c.kv.adaptive_retry = false;
  const RunReport r = run_cluster(c);
  EXPECT_TRUE(r.all_ok()) << r.summary();
  EXPECT_EQ(r.kv_ops, 6u * 8u);
  EXPECT_GT(r.kv_retries, 0u) << "deadline below commit latency must retry";
  EXPECT_GT(r.kv_duplicates, 0u)
      << "retries racing their originals must produce suppressed duplicates";
  // THE invariant: duplicates in the log, yet effective applies == ops.
  EXPECT_EQ(total_shard_ops(r), r.kv_ops) << r.summary();
}

TEST(KvCluster, ClientRetryAcrossLeaderCrashExactlyOnce) {
  // The leader dies mid-workload with commands queued and slots open. Ω
  // hands off; clients whose commands died with p1's queue time out and
  // re-submit to the new leader; commands that were already proposed may
  // ALSO be re-proposed by the hand-off — the duplicate path. Every correct
  // replica must converge to one store, and every op must apply once.
  ClusterConfig c = kv_config(Algorithm::kFastPaxos, 3, 0, 2, 6, 8);
  c.kv.retry_timeout = 24;
  // A tight pipeline (1 command per slot, 2 slots in flight) keeps commands
  // queued at the leader, so the crash reliably strands some unproposed.
  c.kv.batch = 1;
  c.kv.window = 2;
  c.faults.process_crashes[1] = 7;  // mid-stream, slots in flight + queued
  const RunReport r = run_cluster(c);
  EXPECT_TRUE(r.agreement) << r.summary();
  EXPECT_TRUE(r.termination) << r.summary();
  EXPECT_TRUE(r.validity) << r.summary();
  EXPECT_EQ(r.kv_ops, 6u * 8u) << "every client op must complete";
  EXPECT_EQ(total_shard_ops(r), r.kv_ops)
      << "a command must not apply twice across the crash: " << r.summary();
  EXPECT_GT(r.kv_retries, 0u)
      << "ops stranded in the dead leader's queue must have retried";
}

TEST(KvCluster, RetryStormAcrossLeaderCrashStillExactlyOnce) {
  // Both fault axes at once: aggressive deadlines AND a mid-stream leader
  // crash. Duplicates come from both the client and the hand-off path.
  ClusterConfig c = kv_config(Algorithm::kFastPaxos, 3, 0, 2, 6, 8);
  c.kv.retry_timeout = 3;
  c.kv.adaptive_retry = false;  // see AggressiveRetriesStayExactlyOnce
  c.faults.process_crashes[1] = 9;
  const RunReport r = run_cluster(c);
  EXPECT_TRUE(r.agreement) << r.summary();
  EXPECT_TRUE(r.termination) << r.summary();
  EXPECT_EQ(r.kv_ops, 6u * 8u);
  EXPECT_GT(r.kv_duplicates, 0u);
  EXPECT_EQ(total_shard_ops(r), r.kv_ops) << r.summary();
}

// ---------------------------------------------------------------------------
// Crash-and-rejoin: snapshots, compaction, peer catch-up.
// ---------------------------------------------------------------------------

TEST(KvCluster, NewLeaderReDrivesItsPredecessorsLastSlots) {
  // p1 crashes one delay after answering the last client, so its DECIDEs
  // for the final slots die with it. The run may end only once the new
  // leader has re-driven them: every answered op must apply.
  struct Shape {
    Algorithm algo;
    std::size_t shards;
    sim::Time crash;
  };
  const Shape shapes[] = {{Algorithm::kPaxos, 1, 65},
                          {Algorithm::kPaxos, 2, 41},
                          {Algorithm::kFastPaxos, 1, 33},
                          {Algorithm::kFastPaxos, 2, 21}};
  for (const Shape& shape : shapes) {
    SCOPED_TRACE(std::string(algorithm_name(shape.algo)) + " shards=" +
                 std::to_string(shape.shards));
    ClusterConfig c = kv_config(shape.algo, 3, 0, shape.shards,
                                /*clients=*/32, /*ops=*/8);
    c.seed = 1;
    c.kv.keys = 128;
    c.kv.window = 4;
    c.kv.batch = 4;
    c.kv.retry_timeout = 24;
    c.faults.process_crashes[1] = shape.crash;
    const RunReport r = run_cluster(c);
    EXPECT_TRUE(r.all_ok()) << r.summary();
    EXPECT_EQ(r.kv_ops, 256u) << r.summary();
    EXPECT_EQ(total_shard_ops(r), r.kv_ops) << r.summary();
  }
}

TEST(KvCluster, CrashAndRejoinConvergesExactlyOnce) {
  // The acceptance run for recovery: p1 crashes mid-workload, the shards
  // move on (snapshotting + truncating as they go), and p1 rejoins with
  // wiped state. By quiescence the rejoined replica's store hash must match
  // the survivors' on every shard (checked by the harness agreement
  // invariant, which includes rejoined processes), compaction must actually
  // have dropped slots, and the global exactly-once sum must hold across
  // the restart.
  ClusterConfig c = kv_config(Algorithm::kFastPaxos, 3, 0, 2, 6, 8);
  c.kv.retry_timeout = 24;
  c.kv.batch = 1;
  c.kv.window = 2;
  c.kv.snapshot_interval = 4;
  c.faults.process_crashes[1] = 7;  // mid-stream, slots in flight + queued
  c.faults.process_rejoins[1] = 600;
  const RunReport r = run_cluster(c);
  EXPECT_TRUE(r.all_ok()) << r.summary();
  EXPECT_EQ(r.kv_ops, 6u * 8u) << "every client op must complete";
  EXPECT_EQ(total_shard_ops(r), r.kv_ops)
      << "effective applies must equal completed client ops across the "
         "restart: "
      << r.summary();
  EXPECT_GT(r.snapshots_taken, 0u) << r.summary();
  EXPECT_GE(r.snapshots_installed, 1u) << r.summary();
  EXPECT_GT(r.slots_truncated, 0u) << r.summary();
  EXPECT_GT(r.catchup_bytes, 0u) << r.summary();
  EXPECT_EQ(r.processes[0].rejoined_at, 600u);
  // The per-process fingerprint rows must agree shard by shard (same slots,
  // same hashes) — including the rejoined process's row.
  EXPECT_EQ(r.processes[0].decision, r.processes[1].decision) << r.summary();
  EXPECT_EQ(r.processes[1].decision, r.processes[2].decision) << r.summary();
}

TEST(KvCluster, DuplicateRetryAcrossShardRestartStaysExactlyOnce) {
  // Sharpen the duplicate path across a restart: aggressive fixed deadlines
  // make clients re-submit constantly, and the rejoined incarnation's
  // restored session table must keep suppressing retries of ops it applied
  // in its previous life.
  ClusterConfig c = kv_config(Algorithm::kFastPaxos, 3, 0, 2, 6, 8);
  c.kv.retry_timeout = 3;
  c.kv.adaptive_retry = false;
  c.kv.snapshot_interval = 4;
  c.faults.process_crashes[1] = 9;
  c.faults.process_rejoins[1] = 500;
  const RunReport r = run_cluster(c);
  EXPECT_TRUE(r.agreement) << r.summary();
  EXPECT_TRUE(r.termination) << r.summary();
  EXPECT_TRUE(r.validity) << r.summary();
  EXPECT_EQ(r.kv_ops, 6u * 8u);
  EXPECT_GT(r.kv_duplicates, 0u);
  EXPECT_EQ(total_shard_ops(r), r.kv_ops) << r.summary();
  EXPECT_GE(r.snapshots_installed, 1u) << r.summary();
}

// ---------------------------------------------------------------------------
// Byzantine shards (FastRobust engine, fan-out submission).
// ---------------------------------------------------------------------------

TEST(KvCluster, FastRobustShardHonestRunCommitsFast) {
  const RunReport r =
      run_cluster(kv_config(Algorithm::kFastRobust, 3, 3, 1, 2, 3));
  EXPECT_TRUE(r.all_ok()) << r.summary();
  EXPECT_EQ(r.kv_ops, 2u * 3u);
  EXPECT_EQ(total_shard_ops(r), r.kv_ops);
  EXPECT_GT(r.fast_slots, 0u) << "honest synchronous shard should stay on "
                                 "the 2-delay Cheap Quorum path";

  // Two shards: every slot of both stays on the fast path, and fast_slots
  // counts both shards' slots, not one replica's.
  const RunReport two =
      run_cluster(kv_config(Algorithm::kFastRobust, 3, 3, 2, 2, 3));
  EXPECT_TRUE(two.all_ok()) << two.summary();
  EXPECT_EQ(two.kv_shard_ops.size(), 2u);
  EXPECT_EQ(two.fast_slots, two.slots_applied) << two.summary();
}

TEST(KvCluster, ByzantineShardCannotForkReplies) {
  // A Byzantine Cheap Quorum leader plants different signed values on
  // different memories of shard 0 and goes silent. The engine's backup path
  // must keep every correct replica's store and session table identical —
  // no client may observe a forked reply — and every op still completes.
  ClusterConfig c = kv_config(Algorithm::kFastRobust, 3, 3, 1, 2, 3);
  c.faults.byzantine[1] = ByzantineStrategy::kCqLeaderEquivocate;
  c.horizon = 200000;
  const RunReport r = run_cluster(c);
  EXPECT_TRUE(r.agreement)
      << "correct replicas' stores/sessions diverged: " << r.summary();
  EXPECT_TRUE(r.termination) << r.summary();
  EXPECT_EQ(r.kv_ops, 2u * 3u) << "every client op must still complete";
  EXPECT_EQ(total_shard_ops(r), r.kv_ops)
      << "fork attempt must not double-apply: " << r.summary();
}

// ---------------------------------------------------------------------------
// Session hijack (client-signed commands end to end).
// ---------------------------------------------------------------------------

TEST(KvCluster, SignedCommandsStopSessionHijack) {
  // The session-hijack attack: a Byzantine Cheap Quorum leader wins shard
  // 0's slot 0 honestly (unanimous fast path), but the decided payload is a
  // batch of two well-formed forged commands under client 1's session with
  // sky-high seqs — one unsigned, one validly signed under the attacker's
  // own identity. With client signing on, both must be rejected before the
  // session lookup: zero hijacks, every victim retry observes its own
  // outcome, the exactly-once rollup holds, and both forgeries land in
  // kv_forged.
  ClusterConfig c = kv_config(Algorithm::kFastRobust, 3, 3, 1, 2, 3);
  c.faults.byzantine[1] = ByzantineStrategy::kForgeClientCommands;
  c.kv.sign_commands = true;
  c.horizon = 200000;
  const RunReport r = run_cluster(c);
  EXPECT_TRUE(r.all_ok()) << r.summary();
  EXPECT_EQ(r.kv_forged, 2u)
      << "both forged commands must be counted, not applied: " << r.summary();
  EXPECT_EQ(r.kv_ops, 2u * 3u) << "every client op must still complete";
  EXPECT_EQ(total_shard_ops(r), r.kv_ops)
      << "forgeries must not reach any session: " << r.summary();
}

TEST(KvCluster, UnsignedModeIsHijackableTheVulnerabilityIsReal) {
  // Contrast run: the identical attack with signing off. The forged
  // commands apply, client 1's session fast-forwards past the forged seqs,
  // and every real op of the victim deduplicates against the attacker's
  // writes — the exactly-once rollup breaks (validity fails). This pins
  // that the scenario actually exercises the hole the tentpole closes.
  ClusterConfig c = kv_config(Algorithm::kFastRobust, 3, 3, 1, 2, 3);
  c.faults.byzantine[1] = ByzantineStrategy::kForgeClientCommands;
  c.kv.sign_commands = false;
  c.horizon = 200000;
  const RunReport r = run_cluster(c);
  EXPECT_TRUE(r.agreement)
      << "replicas stay in agreement — that is what makes the hijack "
         "invisible to the consensus layer: "
      << r.summary();
  EXPECT_EQ(r.kv_forged, 0u) << "nothing verifies, nothing counts";
  EXPECT_FALSE(r.validity)
      << "with signing off the victim's session must be hijacked "
         "(effective applies != completed ops): "
      << r.summary();
}

TEST(KvCluster, SignedCommandsSurviveLiveResharding) {
  // Signatures bind the target shard's log, so a client bounced by a
  // mid-migration seal (or re-routed after the table flips) must re-sign
  // for the new group — otherwise its own retries would verify as forged
  // at the destination and the op would never complete. Run a split under
  // a zipfian signed workload: every op still completes exactly once,
  // bounces prove the re-route path actually re-signed, and nothing
  // legitimate lands in kv_forged.
  ClusterConfig c = kv_config(Algorithm::kFastPaxos, 3, 0, /*shards=*/1,
                              /*clients=*/8, /*ops=*/24);
  c.kv.dist = kv::KeyDist::kZipfian;
  c.kv.sign_commands = true;
  c.kv.reconfig.push_back({40, reconfig::ChangeKind::kSplit, 0, 1});
  const RunReport r = run_cluster(c);
  EXPECT_TRUE(r.all_ok()) << r.summary();
  EXPECT_EQ(r.kv_ops, 8u * 24u) << "every signed op must complete";
  EXPECT_EQ(total_shard_ops(r), r.kv_ops)
      << "exactly-once must hold across the epoch flip: " << r.summary();
  EXPECT_EQ(r.kv_forged, 0u)
      << "re-routed retries must re-sign for the new group: " << r.summary();
  EXPECT_EQ(r.reconfig_epoch, 1u) << r.summary();
  EXPECT_GT(r.reconfig_keys_moved, 0u) << r.summary();
  EXPECT_GT(r.reconfig_bounces, 0u)
      << "the split must actually bounce in-flight signed ops";
}

// ---------------------------------------------------------------------------
// Adaptive retry deadline (the slow-shard retry-storm regression).
// ---------------------------------------------------------------------------

TEST(KvCluster, SlowShardNoLongerRetryStormsWithAdaptiveDeadline) {
  // A FastRobust-backed shard whose Cheap Quorum leader equivocates (p1
  // plants conflicting signed values, then goes silent) and whose followers
  // panic after 10 time units decides every slot through the backup, so it
  // commits an op in ~100 time units — beyond the default fixed deadline of
  // 64, and the old Router re-submitted nearly every operation every time
  // (dedup kept it correct, but the log filled with suppressed duplicates).
  // The adaptive deadline observes the shard's real latency after the
  // cold-start misses and stops the storm.
  ClusterConfig fixed = kv_config(Algorithm::kFastRobust, 3, 3, 1, 2, 16);
  fixed.faults.byzantine[1] = ByzantineStrategy::kCqLeaderEquivocate;
  fixed.cq_timeout = 10;
  fixed.kv.adaptive_retry = false;
  ClusterConfig adaptive = fixed;
  adaptive.kv.adaptive_retry = true;
  const RunReport rf = run_cluster(fixed);
  const RunReport ra = run_cluster(adaptive);
  ASSERT_TRUE(rf.all_ok()) << rf.summary();
  ASSERT_TRUE(ra.all_ok()) << ra.summary();
  EXPECT_EQ(ra.kv_ops, 2u * 16u);
  EXPECT_EQ(total_shard_ops(ra), ra.kv_ops) << ra.summary();
  ASSERT_GT(rf.kv_op_p50, fixed.kv.retry_timeout)
      << "precondition: the shard must actually be slower than the fixed "
         "deadline, or neither mode storms: "
      << rf.summary();
  EXPECT_GT(rf.kv_retries, rf.kv_ops / 2)
      << "precondition: the fixed deadline must retry-storm: " << rf.summary();
  EXPECT_LT(ra.kv_retries * 4, rf.kv_retries)
      << "adaptive deadline must cut re-submissions by at least 4x\nfixed:    "
      << rf.summary() << "\nadaptive: " << ra.summary();
  EXPECT_LT(ra.kv_retries, ra.kv_ops / 2)
      << "most ops must complete without any retry: " << ra.summary();
}

TEST(KvCluster, AdaptiveDeadlineBacksOffExponentially) {
  // A leader crash strands queued commands (batch 1, window 2 — the
  // stranding shape ClientRetryAcrossLeaderCrashExactlyOnce establishes),
  // so re-submission is required for liveness and each stranded op sits
  // through the hand-off stall. With a fixed deadline the client hammers
  // at a constant rate for the whole stall; with backoff each successive
  // attempt waits twice as long, so the same stall costs strictly fewer
  // re-submissions.
  ClusterConfig fixed = kv_config(Algorithm::kFastPaxos, 3, 0, 1, 6, 8);
  fixed.kv.retry_timeout = 4;
  fixed.kv.batch = 1;  // 6 clients vs 2 slots in flight: commands queue at
  fixed.kv.window = 2;  // the leader, so the crash reliably strands some
  fixed.kv.adaptive_retry = false;
  fixed.faults.process_crashes[1] = 7;
  ClusterConfig adaptive = fixed;
  adaptive.kv.adaptive_retry = true;
  const RunReport rf = run_cluster(fixed);
  const RunReport ra = run_cluster(adaptive);
  for (const RunReport* r : {&rf, &ra}) {
    EXPECT_TRUE(r->agreement) << r->summary();
    EXPECT_TRUE(r->termination) << r->summary();
    EXPECT_EQ(r->kv_ops, 6u * 8u);
    EXPECT_EQ(total_shard_ops(*r), r->kv_ops) << r->summary();
    EXPECT_GT(r->kv_retries, 0u)
        << "stranded commands must force at least one retry: " << r->summary();
  }
  EXPECT_LT(ra.kv_retries, rf.kv_retries)
      << "backoff must re-submit less over the same stall\nfixed:    "
      << rf.summary() << "\nadaptive: " << ra.summary();
}

}  // namespace
}  // namespace mnm::harness
