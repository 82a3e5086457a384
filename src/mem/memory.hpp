// Shared memories of the M&M model (paper §3, Figure 1).
//
// A memory is a set of named registers grouped into (possibly overlapping)
// regions, each region guarded by a permission. Operations:
//
//   write(mr, r, v) → ack | nak       (nak when r ∉ mr or no write permission)
//   read(mr, r)     → value | nak     (nak when r ∉ mr or no read permission)
//   changePermission(mr, perm)        (filtered through legalChange, §3)
//
// Timing: every operation costs kMemoryOpDelay (2 units — the round trip the
// paper charges memory operations). The request *takes effect* at the
// midpoint (arrival at the memory) and the response lands at the full delay;
// this models RDMA's NIC-side execution and gives per-memory linearizable
// registers, from which the SWMR layer (src/swmr) builds the regular
// registers the algorithms need.
//
// Failures: a crashed memory never executes or answers anything again —
// callers hang (§3: "operations ... hang without returning a response").
// A crash between the effect point and the response leaves the write applied
// but unacknowledged, exactly the ambiguity real systems face.
//
// Region lifetime: a region lives from create_region until destroy_region.
// Destroying one drops it and every register its prefixes and exact names
// cover, schedules no event and moves no counter; an operation that names
// it afterwards — one already in flight included, at its effect point —
// naks as for an id the memory never issued. Ids are never reused, so
// creating and destroying regions in the same order on every memory keeps
// their ids aligned. The multi-slot engines give each log slot its own
// regions and destroy them once every replica has retired the slot
// (core::SlotRegions).
//
// Write signals: every region belongs to one *scope*, and each scope has a
// sim::VersionSignal bumped at the effect point of every applied write into
// one of its regions. Register pollers (mem::WriteWatch) wait on the scope of
// the registers they read, so a write elsewhere on the memory wakes nobody.
// Scope 0 always exists and is the default; new_scope() allocates the next
// id, so creating scopes in the same order on every memory aligns their ids
// exactly as region ids align.

#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/common.hpp"
#include "src/mem/permissions.hpp"
#include "src/sim/executor.hpp"
#include "src/sim/oneshot.hpp"
#include "src/sim/sync.hpp"
#include "src/sim/task.hpp"
#include "src/util/flat_map.hpp"

namespace mnm::mem {

enum class Status : std::uint8_t { kAck, kNak };

/// Write-signal scope of a region (see the header comment).
using ScopeId = std::uint32_t;
inline constexpr ScopeId kDefaultScope = 0;

/// One memory's per-scope write signals. Scope 0 exists from the start;
/// signals never move, so watchers may hold references to them.
class ScopeSignals {
 public:
  explicit ScopeSignals(sim::Executor& exec) : exec_(&exec) {
    signals_.emplace_back(exec);
  }

  ScopeId add() {
    signals_.emplace_back(*exec_);
    return static_cast<ScopeId>(signals_.size() - 1);
  }
  bool contains(ScopeId scope) const { return scope < signals_.size(); }
  sim::VersionSignal& at(ScopeId scope) { return signals_.at(scope); }

  /// Bump every scope listed, once each however often it repeats.
  void bump_each(std::vector<ScopeId> scopes) {
    std::sort(scopes.begin(), scopes.end());
    scopes.erase(std::unique(scopes.begin(), scopes.end()), scopes.end());
    for (ScopeId s : scopes) signals_[s].bump();
  }

 private:
  sim::Executor* exec_;
  std::deque<sim::VersionSignal> signals_;  // indexed by ScopeId
};

/// The registers a region (or an RDMA registration) covers: every name
/// that starts with one of `prefixes`, and the `exact` names.
struct RegisterCover {
  std::vector<std::string> prefixes;
  std::vector<std::string> exact;

  bool covers(const std::string& reg) const;
  /// Erase every register in `registers` this covers.
  void erase_from(std::map<std::string, Bytes>& registers) const;
};

struct ReadResult {
  Status status = Status::kNak;
  Bytes value;  // meaningful only when status == kAck

  bool ok() const { return status == Status::kAck; }
};

/// Abstract memory surface. `mem::Memory` implements it directly;
/// `verbs::VerbsMemory` implements it through the RDMA-like layer (§7
/// mapping). Algorithms are written against this interface so they run on
/// either backend.
class MemoryIface {
 public:
  virtual ~MemoryIface() = default;

  virtual MemoryId id() const = 0;

  virtual sim::Task<Status> write(ProcessId caller, RegionId region,
                                  std::string reg, Bytes value) = 0;
  virtual sim::Task<ReadResult> read(ProcessId caller, RegionId region,
                                     std::string reg) = 0;
  /// Scatter-gather read: all of `regs` in one request / one response (the
  /// RDMA doorbell-batched read, §7). Costs a single op round trip and a
  /// single permission evaluation per slot at the same instant, so an
  /// n-slot scan is one completion event instead of n. Results are in
  /// `regs` order; a crashed memory hangs the whole batch, like read().
  virtual sim::Task<std::vector<ReadResult>> read_many(
      ProcessId caller, RegionId region, std::vector<std::string> regs) = 0;
  virtual sim::Task<Status> change_permission(ProcessId caller, RegionId region,
                                              Permission proposed) = 0;

  /// The write signal of `scope`: bumped at the effect point of every
  /// applied write into a region of that scope — never for naks, never at
  /// completion. Pollers turned waiters (NEB's delivery scan, Cheap Quorum's
  /// follower loops) select on it instead of sleeping. Throws
  /// std::out_of_range for a scope this memory never created.
  virtual sim::VersionSignal& write_signal(ScopeId scope) = 0;
};

class Memory : public MemoryIface {
 public:
  Memory(sim::Executor& exec, MemoryId id,
         sim::Time op_delay = sim::kMemoryOpDelay);

  MemoryId id() const override { return id_; }

  /// Allocate the next write-signal scope id.
  ScopeId new_scope() { return scopes_.add(); }

  /// Define a region in write scope `scope`. Registers belong to it if their
  /// name starts with any of `prefixes` (an empty prefix list with `exact`
  /// names is also supported). Regions may overlap (§3) though the shipped
  /// algorithms keep them disjoint.
  RegionId create_region(std::vector<std::string> prefixes, Permission perm,
                         LegalChangeFn legal = static_permissions(),
                         std::vector<std::string> exact = {},
                         ScopeId scope = kDefaultScope);

  /// Drop the region and every register it covers (see the header
  /// comment). An unknown or already destroyed id is a no-op.
  void destroy_region(RegionId region);

  sim::Task<Status> write(ProcessId caller, RegionId region,
                          std::string reg, Bytes value) override;
  sim::Task<ReadResult> read(ProcessId caller, RegionId region,
                             std::string reg) override;
  sim::Task<std::vector<ReadResult>> read_many(
      ProcessId caller, RegionId region,
      std::vector<std::string> regs) override;
  sim::Task<Status> change_permission(ProcessId caller, RegionId region,
                                      Permission proposed) override;

  sim::VersionSignal& write_signal(ScopeId scope) override {
    return scopes_.at(scope);
  }

  /// Crash the memory: all in-flight and future operations hang forever.
  void crash() { crashed_ = true; }
  bool crashed() const { return crashed_; }

  // --- Introspection for tests and the harness (no delay, no permission
  // checks; not part of the model's operation surface). ---
  std::optional<Bytes> peek(const std::string& reg) const;
  /// Injected state counts as a write: bumps the scope of every region that
  /// holds `reg`.
  void poke(const std::string& reg, Bytes value);
  const Permission& region_permission(RegionId region) const;
  bool region_contains(RegionId region, const std::string& reg) const;
  std::size_t regions_held() const { return regions_.size(); }
  std::size_t registers_held() const { return registers_.size(); }

  // Metrics. `reads` counts per-slot detail (a read_many of n slots adds n);
  // `read_batches` counts one per read_many call.
  std::uint64_t reads() const { return reads_; }
  std::uint64_t read_batches() const { return read_batches_; }
  std::uint64_t writes() const { return writes_; }
  std::uint64_t permission_changes() const { return perm_changes_; }
  std::uint64_t naks() const { return naks_; }

 private:
  struct Region {
    RegisterCover cover;
    Permission perm;
    LegalChangeFn legal;
    ScopeId scope = kDefaultScope;
  };

  /// The live region `id`, or nullptr.
  Region* find_region(RegionId id) const {
    const auto* r = regions_.find(id);
    return r == nullptr ? nullptr : r->get();
  }

  sim::Executor* exec_;
  MemoryId id_;
  sim::Time op_delay_;
  bool crashed_ = false;
  RegionId next_region_ = 1;
  // The live regions, boxed so the table stays small on memories that
  // keep thousands.
  util::FlatMap<RegionId, std::unique_ptr<Region>> regions_;
  std::map<std::string, Bytes> registers_;
  ScopeSignals scopes_;

  std::uint64_t reads_ = 0;
  std::uint64_t read_batches_ = 0;
  std::uint64_t writes_ = 0;
  std::uint64_t perm_changes_ = 0;
  std::uint64_t naks_ = 0;
};

}  // namespace mnm::mem
