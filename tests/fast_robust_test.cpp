// Tests for the Fast & Robust composition pieces: the Definition 3 priority
// function, Preferential Paxos's priority-decision property (Lemma 4.7),
// the Composition Lemma (4.8) end to end, and the lazy backup — a fast
// decider joins the backup only after a panic — under a fault-plan sweep.

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <tuple>

#include "src/core/fast_robust.hpp"
#include "src/harness/cluster.hpp"
#include "src/mem/memory.hpp"
#include "src/sim/executor.hpp"

namespace mnm::core {
namespace {

using util::to_bytes;
using util::to_string;

TEST(PrioInputWire, RoundTrip) {
  PrioInput in{to_bytes("v"), to_bytes("proof"), to_bytes("sig")};
  const auto d = PrioInput::decode(in.encode());
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(*d, in);
  EXPECT_FALSE(PrioInput::decode(to_bytes("bad")).has_value());
}

struct PriorityFixture {
  PriorityFixture() : ks(9) {
    for (ProcessId p : all_processes(3)) signers.push_back(ks.register_process(p));
    priority = fast_robust_priority(ks, 3, kLeaderP1);
  }

  Bytes leader_sig_for(const Bytes& v) {
    const crypto::Signature sig = signers[0].sign(cq_value_signing_bytes(v));
    util::Writer w;
    sig.encode(w);
    return std::move(w).take();
  }

  /// Build a genuine unanimity proof for `v` signed by all 3 processes.
  Bytes unanimity_proof_for(const Bytes& v) {
    const crypto::Signature s1 = signers[0].sign(cq_value_signing_bytes(v));
    const Bytes lb = encode_leader_blob(v, s1);
    std::vector<Bytes> copies;
    for (ProcessId p : all_processes(3)) {
      const crypto::Signature cs = signers[p - 1].sign(cq_copy_signing_bytes(lb));
      copies.push_back(encode_copy_blob(lb, cs));
    }
    // Assembler signature over the copies (as CheapQuorum does internally).
    util::Writer w;
    w.str("cq-proof").u32(3);
    for (const auto& c : copies) w.bytes(c);
    const crypto::Signature as = signers[1].sign(w.data());
    return encode_unanimity_proof(copies, as);
  }

  crypto::KeyStore ks;
  std::vector<crypto::Signer> signers;
  PriorityFn priority;
};

TEST(Definition3Priority, ClassesOrderTOverMOverB) {
  PriorityFixture f;
  const Bytes v = to_bytes("v");
  const PrioInput t_input{v, f.unanimity_proof_for(v), {}};
  const PrioInput m_input{v, {}, f.leader_sig_for(v)};
  const PrioInput b_input{v, {}, {}};
  EXPECT_EQ(f.priority(t_input), 2);
  EXPECT_EQ(f.priority(m_input), 1);
  EXPECT_EQ(f.priority(b_input), 0);
}

TEST(Definition3Priority, ForgedEvidenceDropsToB) {
  PriorityFixture f;
  const Bytes v = to_bytes("v");
  // Proof for a different value does not lift THIS value to T.
  const PrioInput wrong_proof{v, f.unanimity_proof_for(to_bytes("other")), {}};
  EXPECT_EQ(f.priority(wrong_proof), 0);
  // A non-leader's signature is not an M-class ticket.
  const crypto::Signature s2 = f.signers[1].sign(cq_value_signing_bytes(v));
  util::Writer w;
  s2.encode(w);
  const PrioInput wrong_signer{v, {}, std::move(w).take()};
  EXPECT_EQ(f.priority(wrong_signer), 0);
  // Garbage bytes in the sig slot.
  const PrioInput junk{v, {}, to_bytes("zzz")};
  EXPECT_EQ(f.priority(junk), 0);
}

TEST(Definition3Priority, LeaderSigOnDifferentValueRejected) {
  PriorityFixture f;
  const PrioInput mismatched{to_bytes("v"), {}, f.leader_sig_for(to_bytes("w"))};
  EXPECT_EQ(f.priority(mismatched), 0);
}

// --- Lemma 4.7 / 4.8 observed through the harness. ---

TEST(CompositionLemma, FastDeciderValueWinsBackup) {
  // Common case: leader decides fast; everyone (including backup-path
  // processes under an injected follower timeout) must end on that value.
  harness::ClusterConfig c;
  c.algo = harness::Algorithm::kFastRobust;
  c.n = 3;
  c.m = 3;
  c.cq_timeout = 20;  // aggressive: followers may panic before unanimity
  const harness::RunReport r = harness::run_cluster(c);
  EXPECT_TRUE(r.agreement) << r.summary();
  EXPECT_TRUE(r.termination) << r.summary();
  ASSERT_TRUE(r.decided_value.has_value());
  EXPECT_EQ(*r.decided_value, "value-1");  // the fast decider's value
}

TEST(CompositionLemma, HoldsAcrossTimeoutSweep) {
  // Sweep the follower timeout through the racy region: whatever mix of
  // fast deciders and aborters results, agreement must hold and, if anyone
  // decided fast, the final value is theirs.
  for (sim::Time timeout : {sim::Time{4}, sim::Time{8}, sim::Time{12},
                            sim::Time{30}, sim::Time{60}}) {
    harness::ClusterConfig c;
    c.algo = harness::Algorithm::kFastRobust;
    c.n = 3;
    c.m = 3;
    c.cq_timeout = timeout;
    const harness::RunReport r = harness::run_cluster(c);
    EXPECT_TRUE(r.agreement) << "timeout=" << timeout << " " << r.summary();
    EXPECT_TRUE(r.termination) << "timeout=" << timeout << " " << r.summary();
    bool any_fast = false;
    for (const auto& p : r.processes) any_fast |= p.fast_path;
    if (any_fast) {
      EXPECT_EQ(*r.decided_value, "value-1") << "timeout=" << timeout;
    }
  }
}

// --- The lazy backup: a fast decider joins only after a panic. ---

TEST(LazyBackup, FastDeciderJoinsWhenAnotherProcessPanics) {
  // p2 is down from the start, so unanimity never forms: p1 decides on the
  // fast path at 2, and p3 times out, panics and aborts. With n = 3 and
  // fP = 1 the backup needs two participants, so p3 terminates only because
  // p1 sees p3's Panic[p3] and joins with its fast decision's input — which
  // Lemma 4.8 then makes the backup's decision.
  harness::ClusterConfig c;
  c.algo = harness::Algorithm::kFastRobust;
  c.n = 3;
  c.m = 3;
  c.faults.process_crashes[2] = 0;
  const harness::RunReport r = harness::run_cluster(c);
  ASSERT_TRUE(r.all_ok()) << r.summary();
  const harness::ProcessReport& p1 = r.processes[0];
  const harness::ProcessReport& p3 = r.processes[2];
  ASSERT_TRUE(p1.decided && p3.decided) << r.summary();
  EXPECT_TRUE(p1.fast_path);
  EXPECT_EQ(p1.decided_at, 2u);
  EXPECT_FALSE(p3.fast_path);
  EXPECT_GT(p3.decided_at, c.cq_timeout) << "p3 decides after its panic";
  EXPECT_EQ(p1.decision, "value-1");
  EXPECT_EQ(p3.decision, p1.decision);
  EXPECT_GT(r.tsend_deliveries, 0u) << "the backup ran: " << r.summary();
}

TEST(LazyBackup, FaultFreeRunNeverBuildsTheBackup) {
  // Nobody panics, so no process builds its backup stack: no t-send is ever
  // delivered, and the signatures are Cheap Quorum's 2n + 1 — the leader's
  // value, n copies and n unanimity proofs.
  harness::ClusterConfig c;
  c.algo = harness::Algorithm::kFastRobust;
  c.n = 3;
  c.m = 3;
  const harness::RunReport r = harness::run_cluster(c);
  ASSERT_TRUE(r.all_ok()) << r.summary();
  EXPECT_EQ(r.tsend_deliveries, 0u) << r.summary();
  EXPECT_EQ(r.signatures, 2 * c.n + 1) << r.summary();
  for (const auto& p : r.processes) EXPECT_TRUE(p.fast_path) << "p" << p.id;
}

TEST(FastRobustEngine, BackupTakeoverUnderByzantineLeaderAndSlowSchedule) {
  // Engine-API coverage of the backup path: the Cheap Quorum leader is
  // Byzantine (plants conflicting signed values, then goes silent) and the
  // follower timeout is aggressive — the "slow leader" schedule — so every
  // slot falls through to Robust Backup(Paxos) over the trusted transport.
  // The replicated log must still converge, and the t-send deliveries that
  // carried it must have ridden the suffix-only decode path.
  harness::ClusterConfig c;
  c.algo = harness::Algorithm::kFastRobust;
  c.n = 3;
  c.m = 3;
  c.seed = 5;
  c.smr.enabled = true;
  c.smr.commands = 6;
  c.smr.batch = 2;
  c.smr.window = 2;
  c.cq_timeout = 10;  // followers panic quickly: leader looks slow
  c.faults.byzantine[1] = harness::ByzantineStrategy::kCqLeaderEquivocate;
  const harness::RunReport r = harness::run_cluster(c);

  EXPECT_TRUE(r.termination) << r.summary();
  EXPECT_TRUE(r.agreement) << r.summary();
  EXPECT_EQ(r.slots_applied, 3u) << r.summary();  // 6 commands, batch 2
  EXPECT_EQ(r.fast_slots, 0u) << r.summary();     // nothing decided fast
  for (const auto& p : r.processes) {
    if (p.byzantine) continue;
    EXPECT_FALSE(p.log.empty()) << "p" << p.id;
  }

  // Suffix-only decode counters: the backup exchanged t-sends, the verified
  // prefixes were hopped over rather than re-decoded, and the per-delivery
  // decode stayed flat (each delivery materializes only the handful of
  // entries appended since the sender's previous message — not the whole
  // history, which grows with every round).
  EXPECT_GT(r.tsend_deliveries, 0u) << r.summary();
  EXPECT_GT(r.history_entries_skipped, 0u) << r.summary();
  EXPECT_GT(r.decoded_per_delivery, 0.0);
  EXPECT_LT(r.decoded_per_delivery, 6.0) << r.summary();
}

TEST(FastRobustEngine, OpCostDoesNotGrowWithHistory) {
  // A slot's register pollers wake on their own slot's write scope only, so
  // an op costs the same however many slots came before it. Pollers woken by
  // every memory write would rescan every open slot per write: ~3x the
  // events and reads per op on the 4x longer run.
  const auto run = [](std::size_t ops_per_client) {
    harness::ClusterConfig c;
    c.algo = harness::Algorithm::kFastRobust;
    c.n = 3;
    c.m = 3;
    c.seed = 1;
    c.gst = 0;
    c.horizon = 400000;
    c.kv.enabled = true;
    c.kv.shards = 1;
    c.kv.clients = 8;
    c.kv.ops_per_client = ops_per_client;
    c.kv.mix = kv::Mix::kA;
    c.kv.dist = kv::KeyDist::kUniform;
    c.kv.keys = 256;
    c.kv.batch = 8;
    c.kv.sign_commands = true;
    return harness::run_cluster(c);
  };
  const harness::RunReport short_run = run(16);
  const harness::RunReport long_run = run(64);
  ASSERT_TRUE(short_run.all_ok()) << short_run.summary();
  ASSERT_TRUE(long_run.all_ok()) << long_run.summary();
  ASSERT_EQ(short_run.kv_ops, 128u);
  ASSERT_EQ(long_run.kv_ops, 512u);
  const auto per_op = [](std::uint64_t total, const harness::RunReport& r) {
    return static_cast<double>(total) / static_cast<double>(r.kv_ops);
  };
  EXPECT_LE(per_op(long_run.events, long_run),
            1.15 * per_op(short_run.events, short_run))
      << short_run.summary() << "\n" << long_run.summary();
  EXPECT_LE(per_op(long_run.mem_reads, long_run),
            1.15 * per_op(short_run.mem_reads, short_run))
      << short_run.summary() << "\n" << long_run.summary();
  // Absolute ceilings: a fault-free slot runs Cheap Quorum alone, so an op
  // costs tens of events and reads, not the hundreds a backup per slot
  // would add.
  EXPECT_LE(per_op(long_run.events, long_run), 100.0) << long_run.summary();
  EXPECT_LE(per_op(long_run.mem_reads, long_run), 25.0) << long_run.summary();
}

TEST(PreferentialPaxos, PriorityDecisionLemma47) {
  // Give one process a T-class input (unanimity proof): with n=3, f=1, the
  // decision must be within the top f+1 = 2 priorities — and since only one
  // input is T and the rest are B, the T input must win whenever its sender
  // is among the n − f set-up inputs everyone waits for. We validate the
  // stronger observable: the decided value is never a B value when a T
  // value was seen by all (synchronous run, no failures).
  //
  // Construct via the harness's Fast & Robust with an injected CQ timeout
  // of 0 for followers is intricate; instead run the equivalence check
  // through CompositionLemma tests above and assert here the pure priority
  // ordering maths on which Lemma 4.7 relies.
  PriorityFixture f;
  const Bytes v = to_bytes("winner");
  const PrioInput t_input{v, f.unanimity_proof_for(v), {}};
  const PrioInput b1{to_bytes("x"), {}, {}};
  const PrioInput b2{to_bytes("y"), {}, {}};
  // Adopting the max over any (n−f)=2 subset containing t_input yields v.
  EXPECT_GT(f.priority(t_input), f.priority(b1));
  EXPECT_GT(f.priority(t_input), f.priority(b2));
}

// --- Fault-plan sweep (a CI-sized slice): every mode, both sizes, the
// follower timeout from 2 to 120 and three GST shapes, under crashes of
// p1, p2 or pn, a memory crash, and each Byzantine strategy at p1 and pn.
// Whatever mix of fast deciders, lazy joiners and aborters results, every
// run must agree and terminate. ---

enum class SweepMode { kSingleShot, kSmr, kKv };

enum class SweepFault {
  kNone,
  kCrashP1,
  kCrashP2,
  kCrashPn,
  kMemoryCrash,
  kByzantineP1,
  kByzantinePn,
};

using SweepParam = std::tuple<SweepMode, int /*n*/, SweepFault,
                              harness::ByzantineStrategy>;

class FaultPlanSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(FaultPlanSweep, AgreesAndTerminates) {
  const auto [mode, n, fault, strategy] = GetParam();
  const ProcessId pn = static_cast<ProcessId>(n);
  struct Gst {
    sim::Time gst, pre;
  };
  for (const sim::Time timeout : {sim::Time{2}, sim::Time{10}, sim::Time{40},
                                  sim::Time{120}}) {
    for (const Gst shape : {Gst{0, 1}, Gst{100, 10}, Gst{400, 50}}) {
      harness::ClusterConfig c;
      c.algo = harness::Algorithm::kFastRobust;
      c.n = static_cast<std::size_t>(n);
      c.m = 3;
      c.cq_timeout = timeout;
      c.gst = shape.gst;
      c.pre_gst_delay = shape.pre;
      c.horizon = 200000;
      switch (mode) {
        case SweepMode::kSingleShot: break;
        case SweepMode::kSmr:
          c.smr.enabled = true;
          c.smr.commands = 4;
          c.smr.batch = 2;
          c.smr.window = 2;
          break;
        case SweepMode::kKv:
          c.kv.enabled = true;
          c.kv.shards = 1;
          c.kv.clients = 2;
          c.kv.ops_per_client = 3;
          c.kv.sign_commands = true;  // forged commands no-op, not apply
          break;
      }
      switch (fault) {
        case SweepFault::kNone: break;
        case SweepFault::kCrashP1: c.faults.process_crashes[1] = 3; break;
        case SweepFault::kCrashP2: c.faults.process_crashes[2] = 3; break;
        case SweepFault::kCrashPn: c.faults.process_crashes[pn] = 3; break;
        case SweepFault::kMemoryCrash: c.faults.memory_crashes[1] = 3; break;
        case SweepFault::kByzantineP1: c.faults.byzantine[1] = strategy; break;
        case SweepFault::kByzantinePn: c.faults.byzantine[pn] = strategy; break;
      }
      const harness::RunReport r = harness::run_cluster(c);
      const std::string where = "cq_timeout=" + std::to_string(timeout) +
                                " gst=" + std::to_string(shape.gst) +
                                " pre=" + std::to_string(shape.pre) + " ";
      EXPECT_TRUE(r.agreement) << where << r.summary();
      EXPECT_TRUE(r.termination) << where << r.summary();
      // Single-shot validity is strict — the decision must be some process's
      // input — so a Cheap Quorum leader that equivocates can get its own
      // planted value decided, as in Determinism's Byzantine-leader pin.
      const bool strict_validity_case =
          mode == SweepMode::kSingleShot && fault == SweepFault::kByzantineP1 &&
          strategy == harness::ByzantineStrategy::kCqLeaderEquivocate;
      if (!strict_validity_case) {
        EXPECT_TRUE(r.validity) << where << r.summary();
      }
    }
  }
}

std::string sweep_name(const ::testing::TestParamInfo<SweepParam>& info) {
  const auto [mode, n, fault, strategy] = info.param;
  std::ostringstream os;
  switch (mode) {
    case SweepMode::kSingleShot: os << "SingleShot"; break;
    case SweepMode::kSmr: os << "Smr"; break;
    case SweepMode::kKv: os << "Kv"; break;
  }
  os << "_n" << n << "_";
  switch (fault) {
    case SweepFault::kNone: os << "NoFault"; break;
    case SweepFault::kCrashP1: os << "CrashP1"; break;
    case SweepFault::kCrashP2: os << "CrashP2"; break;
    case SweepFault::kCrashPn: os << "CrashPn"; break;
    case SweepFault::kMemoryCrash: os << "MemoryCrash"; break;
    case SweepFault::kByzantineP1: os << "ByzP1"; break;
    case SweepFault::kByzantinePn: os << "ByzPn"; break;
  }
  if (fault == SweepFault::kByzantineP1 || fault == SweepFault::kByzantinePn) {
    switch (strategy) {
      case harness::ByzantineStrategy::kSilent: os << "Silent"; break;
      case harness::ByzantineStrategy::kNebEquivocate: os << "NebEquiv"; break;
      case harness::ByzantineStrategy::kCqLeaderEquivocate: os << "CqEquiv"; break;
      case harness::ByzantineStrategy::kGarbage: os << "Garbage"; break;
      case harness::ByzantineStrategy::kForgeClientCommands:
        os << "ForgeClient";
        break;
    }
  }
  return os.str();
}

const auto kSweepModes = ::testing::Values(
    SweepMode::kSingleShot, SweepMode::kSmr, SweepMode::kKv);

INSTANTIATE_TEST_SUITE_P(
    Crashes, FaultPlanSweep,
    ::testing::Combine(kSweepModes, ::testing::Values(3, 5),
                       ::testing::Values(SweepFault::kNone,
                                         SweepFault::kCrashP1,
                                         SweepFault::kCrashP2,
                                         SweepFault::kCrashPn,
                                         SweepFault::kMemoryCrash),
                       ::testing::Values(harness::ByzantineStrategy::kSilent)),
    sweep_name);

INSTANTIATE_TEST_SUITE_P(
    Byzantine, FaultPlanSweep,
    ::testing::Combine(
        kSweepModes, ::testing::Values(3, 5),
        ::testing::Values(SweepFault::kByzantineP1, SweepFault::kByzantinePn),
        ::testing::Values(harness::ByzantineStrategy::kSilent,
                          harness::ByzantineStrategy::kNebEquivocate,
                          harness::ByzantineStrategy::kCqLeaderEquivocate,
                          harness::ByzantineStrategy::kGarbage)),
    sweep_name);

// The client-command forger attacks KV sessions: elsewhere its planted batch
// is simply a value no correct process proposed.
INSTANTIATE_TEST_SUITE_P(
    ForgedClientCommands, FaultPlanSweep,
    ::testing::Combine(
        ::testing::Values(SweepMode::kKv), ::testing::Values(3, 5),
        ::testing::Values(SweepFault::kByzantineP1, SweepFault::kByzantinePn),
        ::testing::Values(harness::ByzantineStrategy::kForgeClientCommands)),
    sweep_name);

}  // namespace
}  // namespace mnm::core
