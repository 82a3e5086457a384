#include "src/core/engine.hpp"

namespace mnm::core {

// ---------------------------------------------------------------------------
// CheapQuorumEngine
// ---------------------------------------------------------------------------

CheapQuorumEngine::CheapQuorumEngine(
    sim::Executor& exec, std::vector<mem::MemoryIface*> memories,
    std::shared_ptr<SlotRegions<CheapQuorumRegions>> regions,
    const crypto::KeyStore& keystore, crypto::Signer signer,
    CheapQuorumConfig config, std::string ns)
    : ConsensusEngine(exec),
      memories_(std::move(memories)),
      regions_(std::move(regions)),
      keystore_(&keystore),
      signer_(signer),
      config_(std::move(config)),
      ns_(std::move(ns)) {}

ProcessId CheapQuorumEngine::self() const { return signer_.id(); }

void CheapQuorumEngine::open_slot(Slot slot) {
  auto it = slots_.find(slot);
  if (it != slots_.end()) return;
  CheapQuorumConfig c = config_;
  c.prefix = slot_ns(slot, ns_);
  slots_.emplace(slot, std::make_unique<CheapQuorum>(*exec_, memories_,
                                                     regions_->get(slot),
                                                     *keystore_, signer_,
                                                     std::move(c)));
  note_slot(slot);
}

sim::Task<Decision> CheapQuorumEngine::propose(Slot slot, Bytes value) {
  open_slot(slot);
  CheapQuorum* inst = slots_.at(slot).get();
  const CqOutcome out = co_await inst->propose(std::move(value));
  if (!out.decided) {
    throw ProposeAborted("cheap quorum aborted at slot " +
                         std::to_string(slot));
  }
  Decision d{out.value, /*fast=*/true, out.at};
  push_decision(slot, d);
  co_return d;
}

}  // namespace mnm::core
