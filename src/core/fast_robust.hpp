// Fast & Robust (paper §4.3, Theorem 4.9, Figure 6).
//
// The composition: run Cheap Quorum; on abort, feed each process's abort
// value — prioritized per Definition 3 — into Preferential Paxos, whose
// embedded consensus is Robust Backup(Paxos). The Composition Lemma (4.8)
// guarantees that a value decided on the fast path is the only value the
// backup can decide:
//
//   T (priority 2): abort values carrying a correct unanimity proof
//   M (priority 1): abort values signed by the leader p1
//   B (priority 0): everything else
//
// A fast decider answers at its Cheap Quorum decision and joins the backup
// lazily: only once it sees some Panic[q] set in the instance's Cheap
// Quorum regions. It joins with its decision's value, unanimity proof and
// leader signature as its Preferential Paxos input, and keeps its fast
// decision. The backup stack is built on that first need, so a run in
// which nobody panics sends no NEB traffic at all.
//
// Safety needs no new argument: a lazy joiner is indistinguishable from a
// slow process, and Lemma 4.8 holds under every asynchronous schedule.
// Liveness: every abort goes through panic mode, which writes Panic[self]
// before anything else, so every correct fast decider eventually sees it
// and joins, and a process still in Cheap Quorum sees it and aborts too.
// Every correct process therefore runs any backup a correct aborter runs,
// and the backup gets its n − fP correct participants.
//
// Weak Byzantine agreement with n ≥ 2fP+1, m ≥ 2fM+1; 2-deciding in the
// common case.

#pragma once

#include <memory>

#include "src/core/cheap_quorum.hpp"
#include "src/core/nonequiv_broadcast.hpp"
#include "src/core/omega.hpp"
#include "src/core/paxos.hpp"
#include "src/core/preferential_paxos.hpp"
#include "src/core/trusted_messaging.hpp"

namespace mnm::core {

/// The verifying priority function of Definition 3.
PriorityFn fast_robust_priority(const crypto::KeyStore& keystore, std::size_t n,
                                ProcessId leader = kLeaderP1);

struct FastRobustConfig {
  CheapQuorumConfig cheap{};
  PaxosConfig paxos{};
};

struct FastRobustOutcome {
  Bytes value;
  bool fast = false;        // decided on the Cheap Quorum path
  sim::Time decided_at = 0; // virtual time of this process's decision
};

/// One process's full Fast & Robust stack: Cheap Quorum up front, the
/// backup (NEB, T-send, mux, backup Paxos, Preferential Paxos) built and
/// started on first need. Its processes are the regions' owners, and
/// Preferential Paxos may miss fP = (n − 1) / 2 of them (n ≥ 2fP + 1).
class FastRobustProcess {
 public:
  FastRobustProcess(sim::Executor& exec,
                    std::vector<mem::MemoryIface*> memories,
                    CheapQuorumRegions cq_regions, NebSlots& neb_slots,
                    const crypto::KeyStore& keystore, crypto::Signer signer,
                    Omega& omega, FastRobustConfig config);
  ~FastRobustProcess();

  /// Nothing runs before propose: the backup starts when it is built.
  void start() {}

  /// Resolves at the Cheap Quorum decision, or after the backup on abort.
  sim::Task<FastRobustOutcome> propose(Bytes v);

  /// Backup-path t-send decode accounting (suffix-only decode proof); zeros
  /// while the backup has not been built.
  trusted::TsendStats tsend_stats() const;

 private:
  struct Backup;
  Backup& backup();
  /// A fast decider's lazy join: wait for a panic, then run the backup.
  sim::Task<void> join_on_panic(PrioInput input);

  sim::Executor* exec_;
  NebSlots* neb_slots_;
  const crypto::KeyStore* keystore_;
  crypto::Signer signer_;
  Omega* omega_;
  FastRobustConfig config_;
  CheapQuorum cheap_;
  std::unique_ptr<Backup> backup_;
};

}  // namespace mnm::core
