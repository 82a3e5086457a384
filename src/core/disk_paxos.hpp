// Disk Paxos (Gafni & Lamport [28]) — the static-permission baseline — and
// the memory side of every Disk-Paxos-shaped protocol here.
//
// Memory-only consensus with n ≥ fP+1 processes and m ≥ 2fM+1 memories, but
// *no* dynamic permissions: every memory exposes a single region that always
// permits all processes to read and write (the paper's "disk model", §3).
// Matching the paper's framing (§1, §6), a leader here cannot know its
// phase-2 write was uncontended, so after writing it must re-read all blocks
// to check that no higher ballot appeared — the verifying read that
// Protected Memory Paxos eliminates with permissions. Common case:
//
//   write block (2 delays) + verifying read (2 delays) = 4 delays,
//
// even when p1 skips phase 1 on its first attempt. Theorem 6.1 shows no
// static-permission shared-memory algorithm can do better than this 2-op
// structure (no 2-deciding algorithm exists). e2e_test's
// CommonCase.DiskPaxosDecidesInFourDelays asserts the gap, and paper_test's
// TheoremSixOne.AckOnlyWriterBreaksAgreementPmpDoesNot replays the proof's
// schedule.
//
// Registers: "<ns>dp/block/<p>" holds p's block (mbal, bal, value) — Disk
// Paxos's dblock — replicated across the m memories by direct per-memory
// writes. The namespace <ns> is the region's, empty by default; multi-slot
// engines give each slot its own ("s<slot>/") so one memory serves a whole
// log.
//
// The memory side has one copy, here: the block record and its codec, the
// per-memory phase step and phase-2 write, and the scan fold
// (DiskMemories). Protected Memory Paxos (§5.1) is this algorithm with
// dynamic permissions, and Aligned Paxos (§5.2) runs the same steps for its
// memory agents.
//
// DECIDE dissemination runs over the Transport abstraction (one conversation,
// no tag plumbing): pass a NetTransport in a standalone setup or a slot
// sub-transport under core::ConsensusEngine.

#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/common.hpp"
#include "src/core/omega.hpp"
#include "src/core/paxos.hpp"
#include "src/core/transport.hpp"
#include "src/mem/memory.hpp"
#include "src/sim/executor.hpp"
#include "src/sim/task.hpp"

namespace mnm::core {

/// The one region a disk-model protocol runs in, as make_disk_region or
/// make_pmp_region created it: its id, the same on every memory, and the
/// namespace its registers are named in.
struct DiskRegion {
  RegionId id = 0;
  std::string ns;
  bool operator==(const DiskRegion&) const = default;
};

/// Create the single open, static region of the disk model ("<ns>dp/") on
/// one memory.
template <typename MemoryT>
DiskRegion make_disk_region(MemoryT& memory, std::size_t n,
                            std::string ns = "") {
  const RegionId id = memory.create_region(
      {ns + "dp/"}, mem::Permission::open(all_processes(n)),
      mem::static_permissions());
  return {id, std::move(ns)};
}

/// A process's block: Disk Paxos's dblock, PMP's slot (minProposal,
/// accProposal, value) of Algorithm 7 line 4.
struct DiskBlock {
  std::uint64_t mbal = 0;  // ballot being attempted
  std::uint64_t bal = 0;   // ballot of the accepted value
  bool has_value = false;
  Bytes value;

  Bytes encode() const;
  static std::optional<DiskBlock> decode(util::ByteView raw);
};

/// One process's access to the blocks at every memory: at each, process p
/// owns register "<registers>/<p>" and reads all n. The only variation is
/// `dynamic`: with dynamic permissions (PMP, Aligned Paxos) a phase first
/// seizes exclusive write permission (Alg. 7 line 13), so a later acked
/// write proves no other leader intervened.
class DiskMemories {
 public:
  /// One memory's answer to a phase: every block, index p - 1; !ok when an
  /// operation failed there.
  struct Scan {
    bool ok = false;
    std::vector<DiskBlock> blocks;
  };

  DiskMemories(sim::Executor& exec, std::vector<mem::MemoryIface*> memories,
               RegionId region, ProcessId self, std::size_t n,
               const std::string& registers, bool dynamic);

  std::size_t size() const { return at_->memories.size(); }
  bool dynamic() const { return at_->dynamic; }

  /// One phase at memory `idx`: seize write permission (if dynamic), write
  /// `own`, then read every block in one batched scatter-gather request (a
  /// single completion and permission evaluation).
  sim::Task<Scan> phase(std::size_t idx, DiskBlock own) const {
    return phase_at(at_, idx, std::move(own));
  }
  /// Write `own` at memory `idx`: the phase-2 write of PMP and Aligned
  /// Paxos, whose ack is that memory's "accepted".
  sim::Task<mem::Status> write(std::size_t idx, DiskBlock own) const {
    return write_at(at_, idx, std::move(own));
  }

  /// phase(own) at every memory, folding the first majority of scans
  /// (continue after m − fM iterations, Alg. 7 lines 12–16; crashed
  /// memories never complete). True iff every fold passed.
  sim::Task<bool> phase_quorum(DiskBlock own, std::uint64_t& max_seen,
                               ValueChoice* choice);
  /// write(own) at every memory; true iff the first majority all ack.
  sim::Task<bool> write_quorum(DiskBlock own);

  /// The scan fold: raise `max_seen` to every block's mbal and offer each
  /// accepted value to `choice` (if any). False when the phase failed at
  /// that memory or a block's mbal exceeds `mbal` — a rival leader.
  static bool fold(const Scan& scan, std::uint64_t mbal,
                   std::uint64_t& max_seen, ValueChoice* choice);

 private:
  /// What a step touches. Each step holds a reference, because a fan-out
  /// straggler may outlive this object (its slot retired meanwhile).
  struct Access {
    std::vector<mem::MemoryIface*> memories;
    RegionId region;
    ProcessId self;
    bool dynamic;
    std::vector<std::string> names;  // index p - 1
    mem::Permission excl_perm;       // exclusive_writer(self, all)
  };

  static sim::Task<Scan> phase_at(std::shared_ptr<const Access> at,
                                  std::size_t idx, DiskBlock own);
  static sim::Task<mem::Status> write_at(std::shared_ptr<const Access> at,
                                         std::size_t idx, DiskBlock own);

  sim::Executor* exec_;
  std::shared_ptr<const Access> at_;
};

class DiskPaxos : public DecisionLatch {
 public:
  /// `transport` carries the DECIDE dissemination among the processes;
  /// `transport.self()` is this process's identity.
  DiskPaxos(sim::Executor& exec, std::vector<mem::MemoryIface*> memories,
            const DiskRegion& region, Transport& transport, Omega& omega);

  /// Spawn the DECIDE listener, which lives as long as this instance.
  void start();

  sim::Task<Bytes> propose(Bytes v);

 protected:
  /// Blocks under "<region.ns><registers>/<p>"; `dynamic` is Protected
  /// Memory Paxos.
  DiskPaxos(sim::Executor& exec, std::vector<mem::MemoryIface*> memories,
            const DiskRegion& region, Transport& transport, Omega& omega,
            const char* registers, bool dynamic);

 private:
  sim::Task<void> decide_listener();

  sim::Executor* exec_;
  Transport* transport_;
  Omega* omega_;
  ProcessId self_;
  std::size_t n_;
  DiskMemories memories_;

  std::uint64_t max_seen_ = 0;
  bool first_attempt_ = true;
  sim::OwnedRoot listener_;  // decide_listener; destroyed first
};

}  // namespace mnm::core
