// Cheap Quorum (paper §4.2, Algorithms 4–5, Lemmas 4.5/4.6, B.1–B.6).
//
// The fast half of Fast & Robust: in synchronous failure-free executions the
// leader p1 decides after a single replicated write — 2 delays — using one
// signature. The algorithm is not a full consensus: under failures or
// asynchrony processes *abort*, emitting an abort value (and possibly a
// unanimity proof) that seeds Preferential Paxos so the composition stays
// safe (Lemma 4.8).
//
// Memory layout (regions created identically on every memory by
// make_cq_regions in one namespace <ns>, all in one write scope — the one
// the follower loops watch):
//   Region[ℓ]  prefix "<ns>cq/leader/" — RW {leader}; legalChange permits
//              exactly one change: revoking all write access (panic, Alg. 5
//              line 3).
//   Region[p]  prefix "<ns>cq/p/<p>/"  — SWMR(p), static; holds Value[p],
//              Panic[p], Proof[p].
//
// Value encodings:
//   leader blob  = (v, sig_p1(v))                 — what p1 writes to Value[ℓ]
//   copy blob    = (leader blob, sig_p(leader blob)) — follower p's Value[p]
//   unanimity proof = n copy blobs of the same leader blob from distinct
//              signers + the assembler's signature (Alg. 4 line 18)
//
// Followers decide only after seeing all n copy blobs *and* n valid proofs —
// the unanimity that lets an abort-side process trust a proof it finds.
//
// The leader also runs the follower's copy/proof steps ("p1 serves both as a
// leader and a follower") so that Value[p1]/Proof[p1] fill in, but never
// decides twice.

#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/common.hpp"
#include "src/crypto/signature.hpp"
#include "src/mem/memory.hpp"
#include "src/sim/executor.hpp"
#include "src/sim/task.hpp"
#include "src/swmr/swmr_register.hpp"

namespace mnm::core {

/// Cheap Quorum's regions as make_cq_regions created them, the same on
/// every memory: the instance's namespace and leader, the leader's region,
/// one region per process (n = per_process.size()) and their write scope.
struct CheapQuorumRegions {
  std::string ns;
  ProcessId leader_process = kLeaderP1;
  RegionId leader = 0;
  std::map<ProcessId, RegionId> per_process;
  mem::ScopeId scope = mem::kDefaultScope;  // write scope of all of the above
  bool operator==(const CheapQuorumRegions&) const = default;
};

/// Create Cheap Quorum's regions on one memory (identical order on every
/// memory keeps region ids aligned), all in write scope `scope`. Works for
/// mem::Memory / VerbsMemory. Multi-slot engines give each slot its own
/// namespace ("s<slot>/") and a fresh scope.
template <typename MemoryT>
CheapQuorumRegions make_cq_regions(MemoryT& memory, std::size_t n,
                                   ProcessId leader = kLeaderP1,
                                   std::string ns = "",
                                   mem::ScopeId scope = mem::kDefaultScope) {
  CheapQuorumRegions out{std::move(ns), leader, 0, {}, scope};
  const std::string prefix = out.ns + "cq";
  const auto all = all_processes(n);
  // legalChange: only total write revocation is permitted (§4.2).
  const auto revoke_only = [](ProcessId, RegionId, const mem::Permission&,
                              const mem::Permission& proposed) {
    return proposed.write.empty() && proposed.read_write.empty();
  };
  out.leader = memory.create_region({prefix + "/leader/"},
                                    mem::Permission::swmr(leader, all),
                                    revoke_only, {}, scope);
  for (ProcessId p : all) {
    out.per_process[p] =
        memory.create_region({prefix + "/p/" + std::to_string(p) + "/"},
                             mem::Permission::swmr(p, all),
                             mem::static_permissions(), {}, scope);
  }
  return out;
}

// --- Value encodings (exposed for tests and Byzantine strategies). ---

Bytes cq_value_signing_bytes(const Bytes& v);
Bytes encode_leader_blob(const Bytes& v, const crypto::Signature& sig_p1);
struct LeaderBlob {
  Bytes value;
  crypto::Signature sig;
};
std::optional<LeaderBlob> decode_leader_blob(const Bytes& raw);

Bytes cq_copy_signing_bytes(const Bytes& leader_blob);
Bytes encode_copy_blob(const Bytes& leader_blob, const crypto::Signature& sig);
struct CopyBlob {
  Bytes leader_blob;
  crypto::Signature sig;
};
std::optional<CopyBlob> decode_copy_blob(const Bytes& raw);

Bytes encode_unanimity_proof(const std::vector<Bytes>& copy_blobs,
                             const crypto::Signature& assembler_sig);

/// Definition 3 / Lemma 4.6's "correct unanimity proof": n copy blobs of the
/// same leader blob, signed by n distinct processes, leader blob signed by
/// p1. On success returns the inner value and its p1 signature.
bool verify_unanimity_proof(const crypto::KeyStore& ks, std::size_t n,
                            ProcessId leader, const Bytes& proof,
                            LeaderBlob* out = nullptr);

struct CheapQuorumConfig {
  /// Follower patience before panicking (virtual time units). "An upper
  /// bound on the communication, processing and computation delays in the
  /// common case" (§4.2 footnote 3).
  sim::Time timeout = 120;
};

struct CqOutcome {
  bool decided = false;
  bool is_leader_decision = false;
  Bytes value;       // decided value, or the abort value
  Bytes proof;       // unanimity proof bytes (abort proof / decision proof)
  Bytes leader_sig;  // encoded p1 Signature over `value`, empty if unknown
  sim::Time at = 0;  // when the outcome was fixed
};

class CheapQuorum {
 public:
  /// Runs among the processes `regions` has one region for, led by
  /// regions.leader_process.
  CheapQuorum(sim::Executor& exec, std::vector<mem::MemoryIface*> memories,
              CheapQuorumRegions regions, const crypto::KeyStore& keystore,
              crypto::Signer signer, CheapQuorumConfig config);

  /// Run Cheap Quorum for this process. Resolves with a decision or an
  /// abort outcome (never hangs: panic mode always terminates).
  sim::Task<CqOutcome> propose(Bytes v);

  /// Resolve once some Panic[q] of this instance is set: snapshot the
  /// instance's write scope, read every Panic[q], and otherwise wait for the
  /// scope's next write. Never resolves in a run where nobody panics.
  sim::Task<void> wait_panic();

  std::uint64_t signatures_on_path() const { return signatures_on_path_; }

  /// The processes and the leader, as the regions name them.
  std::size_t n() const { return regions_.per_process.size(); }
  ProcessId leader() const { return regions_.leader_process; }

 private:
  swmr::ReplicatedRegister& value_reg(ProcessId p);
  swmr::ReplicatedRegister& panic_reg(ProcessId p);
  swmr::ReplicatedRegister& proof_reg(ProcessId p);
  swmr::ReplicatedRegister& leader_value_reg();

  sim::Task<CqOutcome> follower_body(Bytes input, bool decide_allowed);
  sim::Task<CqOutcome> panic_mode(Bytes input);
  /// Read all Panic[q]; true if any is set.
  sim::Task<bool> anyone_panicked();

  sim::Executor* exec_;
  std::vector<mem::MemoryIface*> memories_;
  CheapQuorumRegions regions_;
  const crypto::KeyStore* keystore_;
  crypto::Signer signer_;
  CheapQuorumConfig config_;
  std::map<std::string, std::unique_ptr<swmr::ReplicatedRegister>> regs_;
  std::uint64_t signatures_on_path_ = 0;
};

}  // namespace mnm::core
