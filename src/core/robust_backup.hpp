// Robust Backup(A) — the Byzantine transformation (paper §4.1, Definition 2,
// Lemma 4.3, Theorem 4.4).
//
//   "Let A be a message-passing algorithm. Robust Backup(A) is the algorithm
//    A in which all send and receive operations are replaced by T-send and
//    T-receive operations implemented with non-equivocating broadcast."
//
// Here A = classic Paxos (crash-tolerant, n ≥ 2fP+1 because Paxos needs a
// majority of *participating* processes and Byzantine processes are reduced
// to crashed ones). The replacement is literal: Paxos is written against the
// Transport interface, and this bundle instantiates it over a
// TrustedTransport (NEB + signed histories + the Paxos protocol validator)
// instead of a NetTransport.
//
// The result is weak Byzantine agreement with n ≥ 2fP+1 processes and
// m ≥ 2fM+1 memories, using static permissions only — the slow-but-robust
// half of Fast & Robust.

#pragma once

#include <memory>

#include "src/core/nonequiv_broadcast.hpp"
#include "src/core/omega.hpp"
#include "src/core/paxos.hpp"
#include "src/core/paxos_validator.hpp"
#include "src/core/trusted_messaging.hpp"

namespace mnm::core {

struct RobustBackupConfig {
  PaxosConfig paxos{};
};

/// One process's stack: NEB → TrustedTransport(paxos_validator) → Paxos, over
/// the processes that own `slots`.
class RobustBackup {
 public:
  RobustBackup(sim::Executor& exec, NebSlots& slots,
               const crypto::KeyStore& keystore, crypto::Signer signer,
               Omega& omega, RobustBackupConfig config)
      : neb_(exec, slots, keystore, signer),
        transport_(exec, neb_, keystore, signer,
                   paxos_validator(keystore, slots.process_count())),
        paxos_(exec, transport_, omega, config.paxos) {}

  void start() {
    neb_.start();
    transport_.start();
    paxos_.start();
  }

  sim::Task<Bytes> propose(Bytes value) { return paxos_.propose(std::move(value)); }

  NonEquivBroadcast& neb() { return neb_; }
  trusted::TrustedTransport& transport() { return transport_; }
  Paxos& paxos() { return paxos_; }
  /// T-send decode accounting (suffix-only decode proof).
  const trusted::TsendStats& tsend_stats() const {
    return transport_.tsend_stats();
  }

 private:
  NonEquivBroadcast neb_;
  trusted::TrustedTransport transport_;
  Paxos paxos_;
};

}  // namespace mnm::core
