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
// Memory layout: one region per memory covering "<ns>pmp/"; registers
// "<ns>pmp/slot/<p>" hold (minProposal, accProposal, value) triples.
// legalChange permits exactly one kind of change: a process taking exclusive
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

/// Create the single PMP region ("<ns>pmp/") on one memory. Initial
/// exclusive writer is the fixed first leader p1. Multi-slot engines give
/// each slot its own namespace ("s<slot>/") so one memory serves a whole
/// log.
template <typename MemoryT>
DiskRegion make_pmp_region(MemoryT& memory, std::size_t n,
                           ProcessId first_leader = kLeaderP1,
                           std::string ns = "") {
  const auto all = all_processes(n);
  const RegionId id = memory.create_region(
      {ns + "pmp/"}, mem::Permission::exclusive_writer(first_leader, all),
      pmp_legal_change(all));
  return {id, std::move(ns)};
}

/// Disk Paxos with dynamic permissions: blocks live under "<ns>pmp/slot/<p>",
/// each phase-1 step first seizes exclusive write permission, and a majority
/// of phase-2 write acks decides.
class ProtectedMemoryPaxos : public DiskPaxos {
 public:
  /// `region` must be the PMP region, identical across `memories`.
  /// `transport` carries the DECIDE dissemination among the processes;
  /// `transport.self()` is this process's identity.
  ProtectedMemoryPaxos(sim::Executor& exec,
                       std::vector<mem::MemoryIface*> memories,
                       const DiskRegion& region, Transport& transport,
                       Omega& omega)
      : DiskPaxos(exec, std::move(memories), region, transport, omega,
                  "pmp/slot", /*dynamic=*/true) {}
};

}  // namespace mnm::core
