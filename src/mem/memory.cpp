#include "src/mem/memory.hpp"

#include <stdexcept>

namespace mnm::mem {

Memory::Memory(sim::Executor& exec, MemoryId id, sim::Time op_delay)
    : exec_(&exec), id_(id), op_delay_(op_delay), scopes_(exec) {}

bool RegisterCover::covers(const std::string& reg) const {
  for (const auto& p : prefixes) {
    if (reg.starts_with(p)) return true;
  }
  for (const auto& e : exact) {
    if (reg == e) return true;
  }
  return false;
}

void RegisterCover::erase_from(std::map<std::string, Bytes>& registers) const {
  for (const auto& p : prefixes) {
    auto it = registers.lower_bound(p);
    while (it != registers.end() && it->first.starts_with(p)) {
      it = registers.erase(it);
    }
  }
  for (const auto& e : exact) registers.erase(e);
}

RegionId Memory::create_region(std::vector<std::string> prefixes,
                               Permission perm, LegalChangeFn legal,
                               std::vector<std::string> exact,
                               ScopeId scope) {
  if (!perm.disjoint()) {
    throw std::invalid_argument("Memory::create_region: R/W/RW must be disjoint");
  }
  if (!scopes_.contains(scope)) {
    throw std::invalid_argument("Memory::create_region: unknown scope");
  }
  const RegionId id = next_region_++;
  regions_[id] = std::make_unique<Region>(
      Region{{std::move(prefixes), std::move(exact)}, std::move(perm),
             std::move(legal), scope});
  return id;
}

void Memory::destroy_region(RegionId region) {
  const Region* r = find_region(region);
  if (r == nullptr) return;
  r->cover.erase_from(registers_);
  regions_.erase(region);
}

sim::Task<Status> Memory::write(ProcessId caller, RegionId region,
                                std::string reg, Bytes value) {
  sim::OneShot<Status> done(*exec_);
  const sim::Time effect_at = op_delay_ / 2;  // arrival at the memory
  // Op state lives in one pooled node so the two scheduled callbacks below
  // capture a pointer, not the register name and value (keeps every event
  // inside InlineFn's inline budget).
  struct Op {
    ProcessId caller;
    RegionId region;
    std::string reg;
    Bytes value;
    std::optional<Status> outcome;
  };
  auto op = sim::Rc<Op>::make(Op{caller, region, std::move(reg),
                                 std::move(value), std::nullopt});

  exec_->schedule_after(effect_at, [this, op] {
    if (crashed_) return;  // request lost inside the dead memory
    const Region* r = find_region(op->region);
    if (r == nullptr || !r->cover.covers(op->reg) ||
        !r->perm.can_write(op->caller)) {
      ++naks_;
      op->outcome = Status::kNak;
      return;
    }
    ++writes_;
    registers_[op->reg] = std::move(op->value);
    op->outcome = Status::kAck;
    scopes_.at(r->scope).bump();
  });
  exec_->schedule_after(op_delay_, [this, done, op]() mutable {
    if (crashed_ || !op->outcome.has_value()) return;  // response never leaves
    done.fulfill(*op->outcome);
  });

  co_return co_await done.wait();
}

sim::Task<ReadResult> Memory::read(ProcessId caller, RegionId region,
                                   std::string reg) {
  sim::OneShot<ReadResult> done(*exec_);
  const sim::Time effect_at = op_delay_ / 2;
  struct Op {
    ProcessId caller;
    RegionId region;
    std::string reg;
    std::optional<ReadResult> outcome;
  };
  auto op = sim::Rc<Op>::make(Op{caller, region, std::move(reg), std::nullopt});

  exec_->schedule_after(effect_at, [this, op] {
    if (crashed_) return;
    const Region* r = find_region(op->region);
    if (r == nullptr || !r->cover.covers(op->reg) ||
        !r->perm.can_read(op->caller)) {
      ++naks_;
      op->outcome = ReadResult{Status::kNak, {}};
      return;
    }
    ++reads_;
    const auto it = registers_.find(op->reg);
    op->outcome = ReadResult{Status::kAck,
                             it == registers_.end() ? util::bottom() : it->second};
  });
  exec_->schedule_after(op_delay_, [this, done, op]() mutable {
    if (crashed_ || !op->outcome.has_value()) return;
    done.fulfill(std::move(*op->outcome));
  });

  co_return co_await done.wait();
}

sim::Task<std::vector<ReadResult>> Memory::read_many(
    ProcessId caller, RegionId region, std::vector<std::string> regs) {
  sim::OneShot<std::vector<ReadResult>> done(*exec_);
  const sim::Time effect_at = op_delay_ / 2;
  struct Op {
    ProcessId caller;
    RegionId region;
    std::vector<std::string> regs;
    std::optional<std::vector<ReadResult>> outcome;
  };
  auto op = sim::Rc<Op>::make(Op{caller, region, std::move(regs), std::nullopt});

  // One effect point for the whole batch: every slot is evaluated against
  // the region permission at the same instant, and the caller pays one
  // round trip instead of regs.size() of them.
  exec_->schedule_after(effect_at, [this, op] {
    if (crashed_) return;
    ++read_batches_;
    const Region* r = find_region(op->region);
    std::vector<ReadResult> out;
    out.reserve(op->regs.size());
    const bool readable = r != nullptr && r->perm.can_read(op->caller);
    for (const auto& reg : op->regs) {
      if (!readable || !r->cover.covers(reg)) {
        ++naks_;
        out.push_back(ReadResult{Status::kNak, {}});
        continue;
      }
      ++reads_;
      const auto it = registers_.find(reg);
      out.push_back(ReadResult{
          Status::kAck, it == registers_.end() ? util::bottom() : it->second});
    }
    op->outcome = std::move(out);
  });
  exec_->schedule_after(op_delay_, [this, done, op]() mutable {
    if (crashed_ || !op->outcome.has_value()) return;
    done.fulfill(std::move(*op->outcome));
  });

  co_return co_await done.wait();
}

sim::Task<Status> Memory::change_permission(ProcessId caller, RegionId region,
                                            Permission proposed) {
  sim::OneShot<Status> done(*exec_);
  const sim::Time effect_at = op_delay_ / 2;
  struct Op {
    ProcessId caller;
    RegionId region;
    Permission proposed;
    std::optional<Status> outcome;
  };
  auto op = sim::Rc<Op>::make(Op{caller, region, std::move(proposed), std::nullopt});

  exec_->schedule_after(effect_at, [this, op] {
    if (crashed_) return;
    Region* r = find_region(op->region);
    // §3: the system evaluates legalChange to decide whether the change
    // takes effect or becomes a no-op. A refused change still *returns* (it
    // is a no-op, not a hang) — we report it as nak so callers can tell.
    if (r == nullptr || !op->proposed.disjoint() ||
        !r->legal(op->caller, op->region, r->perm, op->proposed)) {
      ++naks_;
      op->outcome = Status::kNak;
      return;
    }
    ++perm_changes_;
    r->perm = std::move(op->proposed);
    op->outcome = Status::kAck;
  });
  exec_->schedule_after(op_delay_, [this, done, op]() mutable {
    if (crashed_ || !op->outcome.has_value()) return;
    done.fulfill(*op->outcome);
  });

  co_return co_await done.wait();
}

std::optional<Bytes> Memory::peek(const std::string& reg) const {
  const auto it = registers_.find(reg);
  if (it == registers_.end()) return std::nullopt;
  return it->second;
}

void Memory::poke(const std::string& reg, Bytes value) {
  registers_[reg] = std::move(value);
  std::vector<ScopeId> holders;
  regions_.for_each([&](RegionId, const std::unique_ptr<Region>& r) {
    if (r->cover.covers(reg)) holders.push_back(r->scope);
  });
  scopes_.bump_each(std::move(holders));
}

const Permission& Memory::region_permission(RegionId region) const {
  const Region* r = find_region(region);
  if (r == nullptr) throw std::out_of_range("Memory::region_permission");
  return r->perm;
}

bool Memory::region_contains(RegionId region, const std::string& reg) const {
  const Region* r = find_region(region);
  return r != nullptr && r->cover.covers(reg);
}

}  // namespace mnm::mem
