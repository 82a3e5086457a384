// Aligned Paxos (paper §5.2, Algorithms 9–15).
//
// Processes and memories are *equivalent agents*: consensus survives as long
// as a majority of the combined set P ∪ M stays alive. The proposer runs the
// two Paxos phases against every agent, translating each step per agent
// kind (the communicate / hear-back / analyze factoring of Algorithm 9):
//
//   phase 1   process: send prepare(b), await promise    (Paxos acceptor)
//             memory:  seize write permission, write (b, -, -) into own
//                      slot, read all slots               (PMP phase 1)
//   phase 2   process: send accept(b, v), await accepted
//             memory:  write (b, b, v) into own slot; an acked write is the
//                      memory's "accepted"
//
// Quorums are majorities of n + m, so any majority of agents — mixing
// processes and memories freely — suffices. Compare bench_aligned: PMP dies
// when a majority of *memories* is gone even with all processes alive;
// Aligned Paxos keeps going.
//
// Memory agents run PMP's steps (disk_paxos.*: the phase step with its
// permission seize, the phase-2 write, the scan fold) over the PMP region
// and slot format ("<prefix>/slot/<p>"); process agents run Paxos's
// acceptor (paxos.*) over the Paxos wire format. All conversations run over
// ONE base Transport — a standalone setup passes a NetTransport, a
// multi-slot engine a slot sub-transport. A single dispatch loop (the Paxos
// shape) routes inbound messages: raw PaxosMsg bytes (first byte is a
// PaxosKind) are acceptor traffic, a kMuxDecide-framed payload is a DECIDE
// — no per-conversation demux hop, no per-message re-framing.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/common.hpp"
#include "src/core/omega.hpp"
#include "src/core/paxos.hpp"
#include "src/core/protected_memory_paxos.hpp"
#include "src/core/transport_mux.hpp"
#include "src/mem/memory.hpp"
#include "src/sim/executor.hpp"
#include "src/sim/task.hpp"

namespace mnm::core {

struct AlignedPaxosConfig {
  std::size_t n = 3;
  /// Register-name namespace; must match the region's make_pmp_region prefix.
  std::string prefix = "pmp";
};

class AlignedPaxos : public DecisionLatch {
 public:
  /// `region` is a PMP-style region (make_pmp_region), identical across
  /// memories. `transport` carries all three conversations;
  /// `transport.self()` is this process's identity.
  AlignedPaxos(sim::Executor& exec, std::vector<mem::MemoryIface*> memories,
               RegionId region, Transport& transport, Omega& omega,
               AlignedPaxosConfig config);

  /// Spawn the acceptor + decide listener, which lives as long as this
  /// instance.
  void start();

  sim::Task<Bytes> propose(Bytes v);

 private:
  sim::Task<void> dispatch_loop();
  /// Hear back from both agent kinds (Algorithms 11/12) until a combined
  /// majority answers `ballot`: memories through `mem_ok`, processes with
  /// `kind` (promises offered to `choice`, if any). False on a rejection or
  /// at the round timeout.
  template <typename R, typename MemOk>
  sim::Task<bool> hear_back(sim::Channel<std::pair<std::size_t, R>>& mem_ch,
                            std::uint64_t ballot, PaxosKind kind,
                            ValueChoice* choice, MemOk mem_ok);

  sim::Executor* exec_;
  Transport* transport_;
  Omega* omega_;
  ProcessId self_;
  std::size_t n_;
  /// The memory agents, through PMP's steps.
  DiskMemories memories_;
  /// This process as a process agent.
  PaxosAcceptor acceptor_;
  /// Promise/accepted/nack replies routed to the proposer by dispatch_loop.
  sim::Channel<std::pair<ProcessId, PaxosMsg>> replies_;
  std::uint64_t max_seen_ = 0;
  sim::OwnedRoot reader_;  // dispatch_loop; destroyed first
};

}  // namespace mnm::core
