// An ibverbs-flavoured access layer, mirroring how the paper maps its model
// onto RDMA hardware (§7 "RDMA in practice"):
//
//  * Each memory host has an `RdmaDevice` (NIC + DRAM).
//  * Registered memory regions carry an access level and a generated rkey;
//    deregistering an MR immediately invalidates its rkey — this is how
//    permissions are revoked dynamically ("p can revoke permissions
//    dynamically by simply deregistering the memory region").
//  * Destroying a region deregisters its MRs and frees its registers in the
//    device's DRAM; an op in flight at the destroy naks at the NIC, like
//    any stale-rkey access.
//  * Protection domains tie queue pairs to registrations: a QP may only use
//    rkeys whose MR lives in the same PD.
//  * Queue pairs belong to one remote process; one-sided reads/writes posted
//    on a QP are checked *at the NIC* (the arrival midpoint of the
//    operation), so a revocation that lands before the request arrives naks
//    it — the timing the Cheap Quorum / Protected Memory Paxos races rely
//    on.
//
// `VerbsMemory` adapts a device to `mem::MemoryIface`, implementing the
// model's regions/permissions in terms of per-process PDs, MRs and rkeys.
// Every algorithm in src/core can run over either backend; tests do both.

#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "src/common.hpp"
#include "src/mem/memory.hpp"
#include "src/sim/executor.hpp"
#include "src/sim/oneshot.hpp"
#include "src/sim/rng.hpp"
#include "src/sim/sync.hpp"
#include "src/sim/task.hpp"
#include "src/util/flat_map.hpp"

namespace mnm::verbs {

using PdId = std::uint32_t;
using QpId = std::uint32_t;
using RKey = std::uint64_t;

struct Access {
  bool remote_read = false;
  bool remote_write = false;
};

/// NIC + DRAM of one memory host.
class RdmaDevice {
 public:
  RdmaDevice(sim::Executor& exec, MemoryId id, std::uint64_t rkey_seed,
             sim::Time op_delay = sim::kMemoryOpDelay);

  MemoryId id() const { return id_; }

  // --- Control plane (host CPU; instantaneous in the simulator — the paper
  // charges delays only to network round trips). ---
  PdId alloc_pd();

  /// Allocate the next write-signal scope id (see mem::ScopeSignals).
  mem::ScopeId new_scope() { return scopes_.add(); }

  /// Register registers matching `prefixes`/`exact` into `pd` with `access`,
  /// in write scope `scope`. Returns the new rkey. Registrations may overlap
  /// (§7: "the capability of registering overlapping memory regions").
  RKey register_mr(PdId pd, std::vector<std::string> prefixes, Access access,
                   std::vector<std::string> exact = {},
                   mem::ScopeId scope = mem::kDefaultScope);

  /// Invalidate an rkey. Idempotent; returns false if unknown.
  bool deregister_mr(RKey rkey);

  /// Free every register `cover` covers (host-side, instantaneous).
  void free_registers(const mem::RegisterCover& cover) {
    cover.erase_from(registers_);
  }

  /// Create an RC queue pair in `pd`, owned by remote process `owner`.
  QpId create_qp(PdId pd, ProcessId owner);

  // --- Data plane (one-sided verbs; one op_delay round trip, permission
  // checks executed when the request reaches the NIC). ---
  sim::Task<mem::Status> post_write(QpId qp, ProcessId caller, RKey rkey,
                                    std::string reg, Bytes value);
  sim::Task<mem::ReadResult> post_read(QpId qp, ProcessId caller, RKey rkey,
                                       std::string reg);
  /// Doorbell-batched scatter-gather read: one posted work request covering
  /// all of `regs`, NIC-checked per slot at arrival, one completion.
  sim::Task<std::vector<mem::ReadResult>> post_read_many(
      QpId qp, ProcessId caller, RKey rkey, std::vector<std::string> regs);

  /// Bumped at the NIC-side effect point of every applied write through an
  /// MR of `scope`.
  sim::VersionSignal& write_signal(mem::ScopeId scope) {
    return scopes_.at(scope);
  }

  void crash() { crashed_ = true; }
  bool crashed() const { return crashed_; }

  // Introspection for tests. poke bumps the scope of every MR covering `reg`.
  std::optional<Bytes> peek(const std::string& reg) const;
  void poke(const std::string& reg, Bytes value);
  bool rkey_valid(RKey rkey) const { return mrs_.contains(rkey); }
  std::size_t mrs_held() const { return mrs_.size(); }
  std::size_t registers_held() const { return registers_.size(); }

  std::uint64_t posted_writes() const { return writes_; }
  std::uint64_t posted_reads() const { return reads_; }
  std::uint64_t posted_read_batches() const { return read_batches_; }
  std::uint64_t nic_naks() const { return naks_; }

 private:
  struct Mr {
    PdId pd;
    mem::RegisterCover cover;
    Access access;
    mem::ScopeId scope;
  };
  struct Qp {
    PdId pd;
    ProcessId owner;
  };

  /// NIC-side check executed at request arrival: the MR the access goes
  /// through, or nullptr when it is refused.
  const Mr* allowed(QpId qp, ProcessId caller, RKey rkey,
                    const std::string& reg, bool is_write) const;

  sim::Executor* exec_;
  MemoryId id_;
  sim::Time op_delay_;
  sim::Rng rkey_rng_;
  bool crashed_ = false;

  PdId next_pd_ = 1;
  QpId next_qp_ = 1;
  std::set<PdId> pds_;
  std::map<QpId, Qp> qps_;
  std::map<RKey, Mr> mrs_;
  std::map<std::string, Bytes> registers_;
  mem::ScopeSignals scopes_;

  std::uint64_t writes_ = 0;
  std::uint64_t reads_ = 0;
  std::uint64_t read_batches_ = 0;
  std::uint64_t naks_ = 0;
};

/// Adapter: the model's memory interface implemented over an RdmaDevice,
/// using one protection domain + queue pair per process and per-process MR
/// registrations whose access levels encode the region permission — the
/// exact construction §7 describes.
class VerbsMemory : public mem::MemoryIface {
 public:
  VerbsMemory(sim::Executor& exec, std::unique_ptr<RdmaDevice> device,
              std::vector<ProcessId> processes);

  MemoryId id() const override { return device_->id(); }
  RdmaDevice& device() { return *device_; }

  /// Mirror mem::Memory::new_scope / create_region; a region's scope rides
  /// on every MR registered for it.
  mem::ScopeId new_scope() { return device_->new_scope(); }
  RegionId create_region(std::vector<std::string> prefixes,
                         mem::Permission perm,
                         mem::LegalChangeFn legal = mem::static_permissions(),
                         std::vector<std::string> exact = {},
                         mem::ScopeId scope = mem::kDefaultScope);

  /// Mirror mem::Memory::destroy_region: deregister the region's MRs, free
  /// its registers on the device and forget it. Its id is never reused.
  void destroy_region(RegionId region);
  std::size_t regions_held() const { return regions_.size(); }

  sim::Task<mem::Status> write(ProcessId caller, RegionId region,
                               std::string reg, Bytes value) override;
  sim::Task<mem::ReadResult> read(ProcessId caller, RegionId region,
                                  std::string reg) override;
  sim::Task<std::vector<mem::ReadResult>> read_many(
      ProcessId caller, RegionId region,
      std::vector<std::string> regs) override;

  sim::VersionSignal& write_signal(mem::ScopeId scope) override {
    return device_->write_signal(scope);
  }

  /// Control-plane permission change: the host kernel evaluates legalChange
  /// (§7: "this should be done in the OS kernel"), deregisters stale MRs and
  /// registers replacements with fresh rkeys. Costs one op round trip.
  sim::Task<mem::Status> change_permission(ProcessId caller, RegionId region,
                                           mem::Permission proposed) override;

  /// Accepted permission changes, counted at the host-side effect point
  /// like mem::Memory::permission_changes.
  std::uint64_t permission_changes() const { return perm_changes_; }

 private:
  struct RegionState {
    mem::RegisterCover cover;
    mem::Permission perm;
    mem::LegalChangeFn legal;
    mem::ScopeId scope = mem::kDefaultScope;
    std::map<ProcessId, RKey> rkeys;  // per-process registration
  };

  void install_registrations(RegionState& rs);

  /// The live region `id`, or nullptr.
  RegionState* find_region(RegionId id) const {
    const auto* r = regions_.find(id);
    return r == nullptr ? nullptr : r->get();
  }

  sim::Executor* exec_;
  std::unique_ptr<RdmaDevice> device_;
  std::vector<ProcessId> processes_;
  std::map<ProcessId, PdId> pds_;
  std::map<ProcessId, QpId> qps_;
  // The live regions, boxed as in mem::Memory.
  util::FlatMap<RegionId, std::unique_ptr<RegionState>> regions_;
  RegionId next_region_ = 1;
  std::uint64_t perm_changes_ = 0;
};

}  // namespace mnm::verbs
