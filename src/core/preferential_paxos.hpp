// Preferential Paxos (paper §4.3, Algorithm 8, Lemma 4.7).
//
// A wrapper around Robust Backup(Paxos) guaranteeing *priority decision*:
// with inputs v1..vn ordered by priority, the decision is one of the top
// fP+1. The set-up phase simply T-sends every input to everyone; each
// process waits for n − fP inputs and adopts the highest-priority one it
// saw, then proposes that to the embedded Paxos. Because at most fP inputs
// can be missed, the adopted value is always among the top fP+1.
//
// Fast & Robust instantiates the priority order of Definition 3
// (unanimity-proof values ≻ leader-signed values ≻ the rest); standalone
// users may pass any priority function.

#pragma once

#include <cstdint>
#include <functional>
#include <optional>

#include "src/common.hpp"
#include "src/core/paxos.hpp"
#include "src/core/transport.hpp"
#include "src/sim/executor.hpp"
#include "src/sim/task.hpp"

namespace mnm::core {

/// A prioritized input: the consensus value plus the evidence that
/// determines its priority class (Definition 3).
struct PrioInput {
  Bytes value;
  Bytes proof;       // unanimity proof bytes, empty if none
  Bytes leader_sig;  // encoded Signature of p1 over value, empty if none

  Bytes encode() const;
  static std::optional<PrioInput> decode(util::ByteView raw);
  bool operator==(const PrioInput&) const = default;
};

/// Maps an input to a priority (higher wins). Must be a *verifying*
/// function: it should ignore unverifiable claims, since Byzantine processes
/// choose their own inputs.
using PriorityFn = std::function<int(const PrioInput&)>;

class PreferentialPaxos {
 public:
  /// `setup` carries the set-up exchange (a kMuxSetup sub-transport when run
  /// inside Fast & Robust) among its n processes, fP = (n − 1) / 2 of which
  /// may be missed (n ≥ 2fP + 1); `paxos` is the embedded (Robust Backup)
  /// Paxos, already started.
  PreferentialPaxos(sim::Executor& exec, Transport& setup, Paxos& paxos,
                    PriorityFn priority);

  /// Run set-up then the embedded Paxos. Returns the decided PrioInput.
  sim::Task<PrioInput> propose(PrioInput input);

 private:
  sim::Executor* exec_;
  Transport* setup_;
  Paxos* paxos_;
  PriorityFn priority_;
};

}  // namespace mnm::core
