#include "src/core/fast_robust.hpp"

#include "src/core/paxos_validator.hpp"
#include "src/core/transport_mux.hpp"

namespace mnm::core {

PriorityFn fast_robust_priority(const crypto::KeyStore& keystore, std::size_t n,
                                ProcessId leader) {
  return [&keystore, n, leader](const PrioInput& input) -> int {
    // T: contains a correct unanimity proof *for this value*.
    LeaderBlob lb;
    if (verify_unanimity_proof(keystore, n, leader, input.proof, &lb) &&
        lb.value == input.value) {
      return 2;
    }
    // M: contains the leader's signature over the value.
    if (!input.leader_sig.empty()) {
      try {
        util::Reader r(input.leader_sig);
        const crypto::Signature sig = crypto::Signature::decode(r);
        r.expect_end();
        if (keystore.valid_from(leader, cq_value_signing_bytes(input.value), sig)) {
          return 1;
        }
      } catch (const util::SerdeError&) {
        // fall through to B
      }
    }
    return 0;  // B
  };
}

/// The backup half of one process's stack, in dependency order.
struct FastRobustProcess::Backup {
  Backup(sim::Executor& exec, NebSlots& neb_slots,
         const crypto::KeyStore& keystore, crypto::Signer signer, Omega& omega,
         const PaxosConfig& config, ProcessId leader)
      : neb(exec, neb_slots, keystore, signer),
        trusted(exec, neb, keystore, signer,
                paxos_validator(keystore, neb_slots.process_count())),
        mux(exec, trusted),
        paxos(exec, mux.sub(kMuxPaxos), omega, config),
        preferential(exec, mux.sub(kMuxSetup), paxos,
                     fast_robust_priority(keystore, neb_slots.process_count(),
                                          leader)) {
    neb.start();
    trusted.start();
    mux.start();
    paxos.start();
  }

  NonEquivBroadcast neb;
  trusted::TrustedTransport trusted;
  TransportMux mux;
  Paxos paxos;
  PreferentialPaxos preferential;
};

FastRobustProcess::FastRobustProcess(sim::Executor& exec,
                                     std::vector<mem::MemoryIface*> memories,
                                     CheapQuorumRegions cq_regions,
                                     NebSlots& neb_slots,
                                     const crypto::KeyStore& keystore,
                                     crypto::Signer signer, Omega& omega,
                                     FastRobustConfig config)
    : exec_(&exec),
      neb_slots_(&neb_slots),
      keystore_(&keystore),
      signer_(signer),
      omega_(&omega),
      config_(config),
      cheap_(exec, std::move(memories), cq_regions, keystore, signer,
             config.cheap) {}

FastRobustProcess::~FastRobustProcess() = default;

FastRobustProcess::Backup& FastRobustProcess::backup() {
  if (backup_ == nullptr) {
    backup_ = std::make_unique<Backup>(*exec_, *neb_slots_, *keystore_,
                                       signer_, *omega_, config_.paxos,
                                       cheap_.leader());
  }
  return *backup_;
}

trusted::TsendStats FastRobustProcess::tsend_stats() const {
  return backup_ == nullptr ? trusted::TsendStats{}
                            : backup_->trusted.tsend_stats();
}

sim::Task<FastRobustOutcome> FastRobustProcess::propose(Bytes v) {
  // Fast path.
  const CqOutcome cq = co_await cheap_.propose(std::move(v));

  // The Preferential Paxos input (Figure 6): the abort value, or the fast
  // decision, with the evidence each receiver verifies into a Definition 3
  // priority.
  PrioInput input;
  input.value = cq.value;
  input.proof = cq.proof;
  input.leader_sig = cq.leader_sig;

  if (cq.decided) {
    exec_->spawn(join_on_panic(std::move(input)));
    co_return FastRobustOutcome{cq.value, true, cq.at};
  }
  Backup& b = backup();
  const PrioInput decided = co_await b.preferential.propose(std::move(input));
  co_return FastRobustOutcome{decided.value, false, b.paxos.decided_at()};
}

sim::Task<void> FastRobustProcess::join_on_panic(PrioInput input) {
  co_await cheap_.wait_panic();
  (void)co_await backup().preferential.propose(std::move(input));
}

}  // namespace mnm::core
