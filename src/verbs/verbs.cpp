#include "src/verbs/verbs.hpp"

#include <stdexcept>

namespace mnm::verbs {

RdmaDevice::RdmaDevice(sim::Executor& exec, MemoryId id, std::uint64_t rkey_seed,
                       sim::Time op_delay)
    : exec_(&exec),
      id_(id),
      op_delay_(op_delay),
      rkey_rng_(rkey_seed),
      scopes_(exec) {}

bool RdmaDevice::Mr::covers(const std::string& reg) const {
  for (const auto& p : prefixes) {
    if (reg.size() >= p.size() && reg.compare(0, p.size(), p) == 0) return true;
  }
  for (const auto& e : exact) {
    if (reg == e) return true;
  }
  return false;
}

PdId RdmaDevice::alloc_pd() {
  const PdId pd = next_pd_++;
  pds_.insert(pd);
  return pd;
}

RKey RdmaDevice::register_mr(PdId pd, std::vector<std::string> prefixes,
                             Access access, std::vector<std::string> exact,
                             mem::ScopeId scope) {
  if (!pds_.contains(pd)) throw std::invalid_argument("register_mr: unknown PD");
  if (!scopes_.contains(scope)) {
    throw std::invalid_argument("register_mr: unknown scope");
  }
  RKey rkey;
  do {
    rkey = rkey_rng_.next();
  } while (rkey == 0 || mrs_.contains(rkey));
  mrs_.emplace(rkey,
               Mr{pd, std::move(prefixes), std::move(exact), access, scope});
  return rkey;
}

bool RdmaDevice::deregister_mr(RKey rkey) { return mrs_.erase(rkey) > 0; }

QpId RdmaDevice::create_qp(PdId pd, ProcessId owner) {
  if (!pds_.contains(pd)) throw std::invalid_argument("create_qp: unknown PD");
  const QpId qp = next_qp_++;
  qps_.emplace(qp, Qp{pd, owner});
  return qp;
}

const RdmaDevice::Mr* RdmaDevice::allowed(QpId qp, ProcessId caller,
                                          RKey rkey, const std::string& reg,
                                          bool is_write) const {
  const auto qit = qps_.find(qp);
  if (qit == qps_.end() || qit->second.owner != caller) return nullptr;
  const auto mit = mrs_.find(rkey);
  if (mit == mrs_.end()) return nullptr;  // deregistered ⇒ stale rkey
  const Mr& mr = mit->second;
  if (mr.pd != qit->second.pd) return nullptr;  // PD mismatch
  if (!mr.covers(reg)) return nullptr;
  const bool ok = is_write ? mr.access.remote_write : mr.access.remote_read;
  return ok ? &mr : nullptr;
}

sim::Task<mem::Status> RdmaDevice::post_write(QpId qp, ProcessId caller,
                                              RKey rkey, std::string reg,
                                              Bytes value) {
  sim::OneShot<mem::Status> done(*exec_);
  struct Op {
    QpId qp;
    ProcessId caller;
    RKey rkey;
    std::string reg;
    Bytes value;
    std::optional<mem::Status> outcome;
  };
  auto op = sim::Rc<Op>::make(Op{qp, caller, rkey, std::move(reg),
                                 std::move(value), std::nullopt});

  exec_->schedule_after(op_delay_ / 2, [this, op] {
    if (crashed_) return;
    const Mr* mr = allowed(op->qp, op->caller, op->rkey, op->reg,
                           /*is_write=*/true);
    if (mr == nullptr) {
      ++naks_;
      op->outcome = mem::Status::kNak;
      return;
    }
    ++writes_;
    registers_[op->reg] = std::move(op->value);
    op->outcome = mem::Status::kAck;
    scopes_.at(mr->scope).bump();
  });
  exec_->schedule_after(op_delay_, [this, done, op]() mutable {
    if (crashed_ || !op->outcome.has_value()) return;
    done.fulfill(*op->outcome);
  });

  co_return co_await done.wait();
}

sim::Task<mem::ReadResult> RdmaDevice::post_read(QpId qp, ProcessId caller,
                                                 RKey rkey, std::string reg) {
  sim::OneShot<mem::ReadResult> done(*exec_);
  struct Op {
    QpId qp;
    ProcessId caller;
    RKey rkey;
    std::string reg;
    std::optional<mem::ReadResult> outcome;
  };
  auto op = sim::Rc<Op>::make(Op{qp, caller, rkey, std::move(reg), std::nullopt});

  exec_->schedule_after(op_delay_ / 2, [this, op] {
    if (crashed_) return;
    if (!allowed(op->qp, op->caller, op->rkey, op->reg, /*is_write=*/false)) {
      ++naks_;
      op->outcome = mem::ReadResult{mem::Status::kNak, {}};
      return;
    }
    ++reads_;
    const auto it = registers_.find(op->reg);
    op->outcome = mem::ReadResult{
        mem::Status::kAck, it == registers_.end() ? util::bottom() : it->second};
  });
  exec_->schedule_after(op_delay_, [this, done, op]() mutable {
    if (crashed_ || !op->outcome.has_value()) return;
    done.fulfill(std::move(*op->outcome));
  });

  co_return co_await done.wait();
}

sim::Task<std::vector<mem::ReadResult>> RdmaDevice::post_read_many(
    QpId qp, ProcessId caller, RKey rkey, std::vector<std::string> regs) {
  sim::OneShot<std::vector<mem::ReadResult>> done(*exec_);
  struct Op {
    QpId qp;
    ProcessId caller;
    RKey rkey;
    std::vector<std::string> regs;
    std::optional<std::vector<mem::ReadResult>> outcome;
  };
  auto op =
      sim::Rc<Op>::make(Op{qp, caller, rkey, std::move(regs), std::nullopt});

  exec_->schedule_after(op_delay_ / 2, [this, op] {
    if (crashed_) return;
    ++read_batches_;
    std::vector<mem::ReadResult> out;
    out.reserve(op->regs.size());
    for (const auto& reg : op->regs) {
      if (!allowed(op->qp, op->caller, op->rkey, reg, /*is_write=*/false)) {
        ++naks_;
        out.push_back(mem::ReadResult{mem::Status::kNak, {}});
        continue;
      }
      ++reads_;
      const auto it = registers_.find(reg);
      out.push_back(mem::ReadResult{
          mem::Status::kAck,
          it == registers_.end() ? util::bottom() : it->second});
    }
    op->outcome = std::move(out);
  });
  exec_->schedule_after(op_delay_, [this, done, op]() mutable {
    if (crashed_ || !op->outcome.has_value()) return;
    done.fulfill(std::move(*op->outcome));
  });

  co_return co_await done.wait();
}

std::optional<Bytes> RdmaDevice::peek(const std::string& reg) const {
  const auto it = registers_.find(reg);
  if (it == registers_.end()) return std::nullopt;
  return it->second;
}

void RdmaDevice::poke(const std::string& reg, Bytes value) {
  registers_[reg] = std::move(value);
  std::vector<mem::ScopeId> holders;
  for (const auto& [rkey, mr] : mrs_) {
    if (mr.covers(reg)) holders.push_back(mr.scope);
  }
  scopes_.bump_each(std::move(holders));
}

// ---------------------------------------------------------------------------
// VerbsMemory
// ---------------------------------------------------------------------------

VerbsMemory::VerbsMemory(sim::Executor& exec, std::unique_ptr<RdmaDevice> device,
                         std::vector<ProcessId> processes)
    : exec_(&exec), device_(std::move(device)), processes_(std::move(processes)) {
  for (ProcessId p : processes_) {
    const PdId pd = device_->alloc_pd();
    pds_.emplace(p, pd);
    qps_.emplace(p, device_->create_qp(pd, p));
  }
}

void VerbsMemory::install_registrations(RegionState& rs) {
  // Tear down stale rkeys, then register one MR per process whose access
  // level encodes its rights in the region permission (§7's construction).
  for (auto& [p, rkey] : rs.rkeys) device_->deregister_mr(rkey);
  rs.rkeys.clear();
  for (ProcessId p : processes_) {
    const bool r = rs.perm.can_read(p);
    const bool w = rs.perm.can_write(p);
    if (!r && !w) continue;
    rs.rkeys.emplace(p, device_->register_mr(pds_.at(p), rs.prefixes,
                                             Access{r, w}, rs.exact, rs.scope));
  }
}

RegionId VerbsMemory::create_region(std::vector<std::string> prefixes,
                                    mem::Permission perm,
                                    mem::LegalChangeFn legal,
                                    std::vector<std::string> exact,
                                    mem::ScopeId scope) {
  if (!perm.disjoint()) {
    throw std::invalid_argument("VerbsMemory::create_region: non-disjoint");
  }
  const RegionId rid = next_region_++;
  auto [it, ok] = regions_.emplace(
      rid, RegionState{std::move(prefixes), std::move(exact), std::move(perm),
                       std::move(legal), scope, {}});
  (void)ok;
  install_registrations(it->second);
  return rid;
}

sim::Task<mem::Status> VerbsMemory::write(ProcessId caller, RegionId region,
                                          std::string reg, Bytes value) {
  const auto it = regions_.find(region);
  if (it == regions_.end()) co_return mem::Status::kNak;
  const auto kit = it->second.rkeys.find(caller);
  // No registration for this process: post with a null rkey so the nak still
  // costs a round trip at the NIC, like a stale-rkey write would.
  const RKey rkey = kit == it->second.rkeys.end() ? 0 : kit->second;
  co_return co_await device_->post_write(qps_.at(caller), caller, rkey,
                                         std::move(reg), std::move(value));
}

sim::Task<mem::ReadResult> VerbsMemory::read(ProcessId caller, RegionId region,
                                             std::string reg) {
  const auto it = regions_.find(region);
  if (it == regions_.end()) co_return mem::ReadResult{mem::Status::kNak, {}};
  const auto kit = it->second.rkeys.find(caller);
  const RKey rkey = kit == it->second.rkeys.end() ? 0 : kit->second;
  co_return co_await device_->post_read(qps_.at(caller), caller, rkey,
                                        std::move(reg));
}

sim::Task<std::vector<mem::ReadResult>> VerbsMemory::read_many(
    ProcessId caller, RegionId region, std::vector<std::string> regs) {
  // Mirror read() exactly: an unknown region naks immediately without
  // touching the device; a known region with no registration for this
  // process posts with a null rkey so the NIC-side naks still cost the
  // round trip, like a stale-rkey read would.
  const auto it = regions_.find(region);
  if (it == regions_.end()) {
    co_return std::vector<mem::ReadResult>(regs.size(),
                                           mem::ReadResult{mem::Status::kNak, {}});
  }
  const auto kit = it->second.rkeys.find(caller);
  const RKey rkey = kit == it->second.rkeys.end() ? 0 : kit->second;
  co_return co_await device_->post_read_many(qps_.at(caller), caller, rkey,
                                             std::move(regs));
}

sim::Task<mem::Status> VerbsMemory::change_permission(ProcessId caller,
                                                      RegionId region,
                                                      mem::Permission proposed) {
  sim::OneShot<mem::Status> done(*exec_);
  struct Op {
    ProcessId caller;
    RegionId region;
    mem::Permission proposed;
    std::optional<mem::Status> outcome;
  };
  auto op = sim::Rc<Op>::make(Op{caller, region, std::move(proposed), std::nullopt});

  // The request travels to the host (half an op delay), where the kernel
  // evaluates legalChange and re-registers; the ack travels back.
  exec_->schedule_after(sim::kMemoryOpDelay / 2, [this, op] {
    if (device_->crashed()) return;
    const auto it = regions_.find(op->region);
    if (it == regions_.end() || !op->proposed.disjoint() ||
        !it->second.legal(op->caller, op->region, it->second.perm, op->proposed)) {
      op->outcome = mem::Status::kNak;
      return;
    }
    it->second.perm = std::move(op->proposed);
    install_registrations(it->second);
    op->outcome = mem::Status::kAck;
  });
  exec_->schedule_after(sim::kMemoryOpDelay, [this, done, op]() mutable {
    if (device_->crashed() || !op->outcome.has_value()) return;
    done.fulfill(*op->outcome);
  });

  co_return co_await done.wait();
}

const mem::Permission& VerbsMemory::region_permission(RegionId region) const {
  const auto it = regions_.find(region);
  if (it == regions_.end()) throw std::out_of_range("VerbsMemory::region_permission");
  return it->second.perm;
}

}  // namespace mnm::verbs
