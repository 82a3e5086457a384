// Per-process memory view implementing crash semantics for processes.
//
// The model (§3) says a crashed process "stops taking steps forever". In the
// simulator a process is a tree of coroutines; freezing it is implemented at
// its interaction points: the network drops sends/deliveries of crashed
// processes (src/net), and this wrapper makes every memory operation issued
// after the crash hang forever, so the process's coroutines suspend at their
// next step and never run again. (In-flight operations complete — a real
// crash cannot retract an RDMA request already on the wire.)

#pragma once

#include <memory>

#include "src/mem/memory.hpp"
#include "src/sim/executor.hpp"
#include "src/sim/oneshot.hpp"

namespace mnm::harness {

class ProcessView final : public mem::MemoryIface {
 private:
  // Defined before its uses below: an awaitable that never resumes (a
  // OneShot that is never fulfilled), freezing the calling coroutine.
  template <typename R>
  auto hang() {
    return sim::OneShot<R>(*exec_).wait();
  }

 public:
  ProcessView(sim::Executor& exec, mem::MemoryIface& inner,
              std::shared_ptr<const bool> alive)
      : exec_(&exec), inner_(&inner), alive_(std::move(alive)) {}

  MemoryId id() const override { return inner_->id(); }

  sim::Task<mem::Status> write(ProcessId caller, RegionId region,
                               std::string reg, Bytes value) override {
    if (!*alive_) co_return co_await hang<mem::Status>();
    co_return co_await inner_->write(caller, region, std::move(reg),
                                     std::move(value));
  }

  sim::Task<mem::ReadResult> read(ProcessId caller, RegionId region,
                                  std::string reg) override {
    if (!*alive_) co_return co_await hang<mem::ReadResult>();
    co_return co_await inner_->read(caller, region, std::move(reg));
  }

  sim::Task<std::vector<mem::ReadResult>> read_many(
      ProcessId caller, RegionId region,
      std::vector<std::string> regs) override {
    if (!*alive_) co_return co_await hang<std::vector<mem::ReadResult>>();
    co_return co_await inner_->read_many(caller, region, std::move(regs));
  }

  sim::VersionSignal& write_signal(mem::ScopeId scope) override {
    // Forwarded even when dead: a dead process's scan loop may wake, but it
    // hangs at its next memory operation, exactly like any other step. The
    // inner memory bumps at its own effect point, so the view never delays
    // a wakeup to completion.
    return inner_->write_signal(scope);
  }

  sim::Task<mem::Status> change_permission(ProcessId caller, RegionId region,
                                           mem::Permission proposed) override {
    if (!*alive_) co_return co_await hang<mem::Status>();
    co_return co_await inner_->change_permission(caller, region, std::move(proposed));
  }

 private:
  sim::Executor* exec_;
  mem::MemoryIface* inner_;
  std::shared_ptr<const bool> alive_;
};

}  // namespace mnm::harness
