// Protected Memory Paxos (paper §5.1, Algorithm 7, Theorem 5.1).
//
// Disk Paxos with dynamic permissions: each memory has a single region whose
// write permission is held *exclusively* by the current leader. Because a
// new leader must seize the permission before writing, a leader whose
// phase-2 write is acknowledged knows no other leader intervened — the
// "uncontended instantaneous guarantee" (§1) — and can decide immediately,
// without Disk Paxos's verifying read. That removes two delays:
//
//   crash consensus, n ≥ fP+1 processes, m ≥ 2fM+1 memories, 2-deciding
//   (p1's first attempt is a single parallel write across the memories).
//
// That is the composition here: ProtectedMemoryPaxos is DiskPaxos
// (disk_paxos.*) with dynamic permissions — the same block record, phase
// step and scan fold, plus the permission seize and the write-only phase 2.
//
// Memory layout: one region per memory covering "pmp/"; registers
// "pmp/slot/<p>" hold (minProposal, accProposal, value) triples. legalChange
// permits exactly one kind of change: a process taking exclusive
// write-ownership for itself (pmp_legal_change) — this is a crash-failure
// algorithm, so the rule only needs to encode the protocol, not defend
// against Byzantine behaviour.
//
// Decisions are disseminated with a DECIDE broadcast so every correct
// process decides (the standard extension the paper notes after Alg. 7).

#pragma once

#include <string>
#include <vector>

#include "src/common.hpp"
#include "src/core/disk_paxos.hpp"
#include "src/core/omega.hpp"
#include "src/core/transport.hpp"
#include "src/mem/memory.hpp"
#include "src/sim/executor.hpp"

namespace mnm::core {

/// legalChange for PMP regions: the only legal change is `requester` taking
/// exclusive writership (R: Π−{requester}, RW: {requester}).
mem::LegalChangeFn pmp_legal_change(std::vector<ProcessId> all);

/// Create the single PMP region on one memory. Initial exclusive writer is
/// the fixed first leader p1. Multi-slot engines namespace the prefix per
/// slot ("s<slot>/pmp") so one memory serves a whole log.
template <typename MemoryT>
RegionId make_pmp_region(MemoryT& memory, std::size_t n,
                         ProcessId first_leader = kLeaderP1,
                         const std::string& prefix = "pmp") {
  const auto all = all_processes(n);
  return memory.create_region({prefix + "/"},
                              mem::Permission::exclusive_writer(first_leader, all),
                              pmp_legal_change(all));
}

struct PmpConfig {
  std::size_t n = 2;
  /// Register-name namespace; must match the region's make_pmp_region prefix.
  std::string prefix = "pmp";
};

/// Disk Paxos with dynamic permissions: blocks live under "<prefix>/slot/<p>",
/// each phase-1 step first seizes exclusive write permission, and a majority
/// of phase-2 write acks decides.
class ProtectedMemoryPaxos : public DiskPaxos {
 public:
  /// `region` must be the PMP region id, identical across `memories`.
  /// `transport` carries the DECIDE dissemination; `transport.self()` is this
  /// process's identity.
  ProtectedMemoryPaxos(sim::Executor& exec,
                       std::vector<mem::MemoryIface*> memories, RegionId region,
                       Transport& transport, Omega& omega, PmpConfig config)
      : DiskPaxos(exec, std::move(memories), region, transport, omega,
                  config.n, config.prefix + "/slot", /*dynamic=*/true) {}
};

}  // namespace mnm::core
