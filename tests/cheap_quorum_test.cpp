// Tests for Cheap Quorum (Algorithms 4–5): fast decision, abort paths, the
// agreement lemmas (4.5/4.6), unanimity proofs, and permission revocation.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <vector>

#include "src/core/cheap_quorum.hpp"
#include "src/mem/memory.hpp"
#include "src/sim/executor.hpp"

namespace mnm::core {
namespace {

using sim::Executor;
using sim::Task;
using util::to_bytes;
using util::to_string;

struct CqFixture {
  explicit CqFixture(std::size_t n, std::size_t m = 3, sim::Time timeout = 120)
      : n(n), keystore(3) {
    for (std::size_t i = 0; i < m; ++i) {
      auto mp = std::make_unique<mem::Memory>(exec, static_cast<MemoryId>(i + 1));
      regions = make_cq_regions(*mp, n);
      memories.push_back(std::move(mp));
      iface.push_back(memories.back().get());
    }
    CheapQuorumConfig cfg;
    cfg.timeout = timeout;
    for (ProcessId p : all_processes(n)) {
      signers.push_back(keystore.register_process(p));
      cqs.push_back(std::make_unique<CheapQuorum>(exec, iface, regions, keystore,
                                                  signers.back(), cfg));
    }
  }

  void propose_all(std::map<ProcessId, CqOutcome>& out) {
    for (ProcessId p : all_processes(n)) {
      exec.spawn([](CheapQuorum* cq, Bytes v, CqOutcome* sink) -> Task<void> {
        *sink = co_await cq->propose(std::move(v));
      }(cqs[p - 1].get(), to_bytes("in-" + std::to_string(p)), &out[p]));
    }
  }

  std::size_t n;
  Executor exec;
  crypto::KeyStore keystore;
  std::vector<std::unique_ptr<mem::Memory>> memories;
  std::vector<mem::MemoryIface*> iface;
  CheapQuorumRegions regions;
  std::vector<crypto::Signer> signers;
  std::vector<std::unique_ptr<CheapQuorum>> cqs;
};

TEST(CheapQuorum, LeaderDecidesInTwoDelays) {
  CqFixture f(3);
  std::map<ProcessId, CqOutcome> out;
  f.propose_all(out);
  f.exec.run(2000);
  ASSERT_TRUE(out[1].decided);
  EXPECT_TRUE(out[1].is_leader_decision);
  EXPECT_EQ(out[1].at, 2u);  // one replicated write
  EXPECT_EQ(to_string(out[1].value), "in-1");
}

TEST(CheapQuorum, OneSignatureOnLeaderFastPath) {
  // §4.2: "one signature for a fast decision" (prior work: 6f+2).
  CqFixture f(3);
  std::map<ProcessId, CqOutcome> out;
  f.propose_all(out);
  f.exec.run_until([&] { return out[1].decided; }, 2000);
  EXPECT_EQ(f.cqs[0]->signatures_on_path(), 1u);
}

TEST(CheapQuorum, FollowersDecideLeaderValueWithProofs) {
  CqFixture f(3);
  std::map<ProcessId, CqOutcome> out;
  f.propose_all(out);
  f.exec.run(5000);
  for (ProcessId p : all_processes(3)) {
    ASSERT_TRUE(out[p].decided) << "process " << p;
    EXPECT_EQ(to_string(out[p].value), "in-1");
  }
  // Follower decisions carry a correct unanimity proof for the value.
  LeaderBlob lb;
  ASSERT_FALSE(out[2].proof.empty());
  EXPECT_TRUE(verify_unanimity_proof(f.keystore, 3, kLeaderP1, out[2].proof, &lb));
  EXPECT_EQ(to_string(lb.value), "in-1");
}

TEST(CheapQuorum, DecisionAgreementLemma45) {
  CqFixture f(5, 3);
  std::map<ProcessId, CqOutcome> out;
  f.propose_all(out);
  f.exec.run(8000);
  std::string decided;
  for (ProcessId p : all_processes(5)) {
    if (!out[p].decided) continue;
    if (decided.empty()) decided = to_string(out[p].value);
    EXPECT_EQ(to_string(out[p].value), decided);
  }
  EXPECT_FALSE(decided.empty());
}

TEST(CheapQuorum, SilentLeaderMakesFollowersAbortWithOwnInput) {
  // Leader never proposes; followers time out, panic, abort with their own
  // inputs (class B: no leader signature).
  CqFixture f(3, 3, /*timeout=*/60);
  std::map<ProcessId, CqOutcome> out;
  for (ProcessId p : {ProcessId{2}, ProcessId{3}}) {
    f.exec.spawn([](CheapQuorum* cq, Bytes v, CqOutcome* sink) -> Task<void> {
      *sink = co_await cq->propose(std::move(v));
    }(f.cqs[p - 1].get(), to_bytes("in-" + std::to_string(p)), &out[p]));
  }
  f.exec.run(3000);
  for (ProcessId p : {ProcessId{2}, ProcessId{3}}) {
    ASSERT_FALSE(out[p].decided);
    EXPECT_EQ(to_string(out[p].value), "in-" + std::to_string(p));
    EXPECT_TRUE(out[p].leader_sig.empty());
    EXPECT_TRUE(out[p].proof.empty());
  }
}

TEST(CheapQuorum, AbortAgreementLemma46LeaderDecides) {
  // Leader decides fast; follower p2 participates but p3 never shows up, so
  // unanimity is unreachable and p2 eventually panics. Lemma 4.6: p2's abort
  // value must be the decided value, with the leader's signature.
  CqFixture f(3, 3, /*timeout=*/40);
  std::map<ProcessId, CqOutcome> out;
  f.exec.spawn([](CheapQuorum* cq, CqOutcome* sink) -> Task<void> {
    *sink = co_await cq->propose(to_bytes("chosen"));
  }(f.cqs[0].get(), &out[1]));
  f.exec.spawn([](CheapQuorum* cq, CqOutcome* sink) -> Task<void> {
    *sink = co_await cq->propose(to_bytes("other"));
  }(f.cqs[1].get(), &out[2]));
  f.exec.run(3000);
  ASSERT_TRUE(out[1].decided);
  EXPECT_EQ(to_string(out[1].value), "chosen");
  ASSERT_FALSE(out[2].decided);
  // Abort value equals the decided value, and carries p1's signature.
  EXPECT_EQ(to_string(out[2].value), "chosen");
  EXPECT_FALSE(out[2].leader_sig.empty());
}

TEST(CheapQuorum, PanicRevokesLeaderWritePermission) {
  CqFixture f(3, 3, /*timeout=*/0);
  std::map<ProcessId, CqOutcome> out;
  // p2 panics first (timeout 0), revoking the leader's permission...
  f.exec.spawn([](CheapQuorum* cq, Bytes v, CqOutcome* sink) -> Task<void> {
    *sink = co_await cq->propose(std::move(v));
  }(f.cqs[1].get(), to_bytes("in-2"), &out[2]));
  // ...then the leader proposes late: its write must nak → abort, not decide.
  f.exec.call_at(50, [&] {
    f.exec.spawn([](CheapQuorum* cq, CqOutcome* sink) -> Task<void> {
      *sink = co_await cq->propose(to_bytes("late"));
    }(f.cqs[0].get(), &out[1]));
  });
  f.exec.run(3000);
  ASSERT_FALSE(out[1].decided);
  // Leader aborts with its own input (nothing was replicated).
  EXPECT_EQ(to_string(out[1].value), "late");
  // Check the permission actually flipped on a majority of memories.
  std::size_t revoked = 0;
  for (auto& m : f.memories) {
    if (!m->region_permission(f.regions.leader).can_write(1)) ++revoked;
  }
  EXPECT_GE(revoked, majority(f.memories.size()));
}

TEST(CheapQuorum, ToleratesMinorityMemoryCrash) {
  CqFixture f(3);
  f.memories[1]->crash();
  std::map<ProcessId, CqOutcome> out;
  f.propose_all(out);
  f.exec.run(5000);
  for (ProcessId p : all_processes(3)) {
    ASSERT_TRUE(out[p].decided) << "process " << p;
    EXPECT_EQ(to_string(out[p].value), "in-1");
  }
}

TEST(UnanimityProof, RejectsForgeries) {
  CqFixture f(3);
  // Build a genuine run to get a real proof.
  std::map<ProcessId, CqOutcome> out;
  f.propose_all(out);
  f.exec.run(5000);
  ASSERT_TRUE(out[2].decided);
  const Bytes good = out[2].proof;
  LeaderBlob lb;
  ASSERT_TRUE(verify_unanimity_proof(f.keystore, 3, kLeaderP1, good, &lb));

  // Truncated / bit-flipped / empty proofs must fail.
  Bytes truncated = good;
  truncated.resize(truncated.size() / 2);
  EXPECT_FALSE(verify_unanimity_proof(f.keystore, 3, kLeaderP1, truncated));
  Bytes flipped = good;
  flipped[flipped.size() / 2] ^= 0x01;
  EXPECT_FALSE(verify_unanimity_proof(f.keystore, 3, kLeaderP1, flipped));
  EXPECT_FALSE(verify_unanimity_proof(f.keystore, 3, kLeaderP1, {}));
  // A valid 3-process proof is not a valid 5-process proof.
  EXPECT_FALSE(verify_unanimity_proof(f.keystore, 5, kLeaderP1, good));
}

TEST(CqWire, BlobEncodingsRoundTrip) {
  crypto::KeyStore ks(1);
  crypto::Signer p1 = ks.register_process(1);
  crypto::Signer p2 = ks.register_process(2);
  const Bytes v = to_bytes("v");
  const crypto::Signature s1 = p1.sign(cq_value_signing_bytes(v));
  const Bytes lb = encode_leader_blob(v, s1);
  const auto dlb = decode_leader_blob(lb);
  ASSERT_TRUE(dlb.has_value());
  EXPECT_EQ(to_string(dlb->value), "v");

  const crypto::Signature s2 = p2.sign(cq_copy_signing_bytes(lb));
  const auto dcb = decode_copy_blob(encode_copy_blob(lb, s2));
  ASSERT_TRUE(dcb.has_value());
  EXPECT_EQ(dcb->leader_blob, lb);
  EXPECT_EQ(dcb->sig.signer, 2u);

  EXPECT_FALSE(decode_leader_blob(to_bytes("junk")).has_value());
  EXPECT_FALSE(decode_copy_blob({}).has_value());
}

}  // namespace
}  // namespace mnm::core
