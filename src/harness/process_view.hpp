// Per-process memory view implementing crash semantics for processes.
//
// The model (§3) says a crashed process "stops taking steps forever". In the
// simulator a process is a tree of coroutines; freezing it is implemented at
// its interaction points: the network drops sends/deliveries of crashed
// processes (src/net), and this wrapper makes the process's memory steps
// hang. An operation issued after the crash hangs at once. One in flight at
// the crash still takes effect at the memory — a real crash cannot retract
// an RDMA request already on the wire — but the process never resumes from
// it, so it cannot decide or write again on the strength of its answer.
//
// The alive flag belongs to the process, not to one incarnation: every
// incarnation of a process shares its views, and a rejoin sets the flag back
// to true. A crashed incarnation's operation that completes after the rejoin
// would therefore resume it with the process's permissions, which is why
// crash-and-rejoin is limited to the message engines until each incarnation
// gets views of its own (ROADMAP item 12).

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

  /// One memory step: issued only while the process is alive, and resumed
  /// from only if it still is when the memory answers.
  template <typename R>
  sim::Task<R> step(sim::Task<R> op) {
    if (*alive_) {
      R out = co_await std::move(op);
      if (*alive_) co_return out;
    }
    co_return co_await hang<R>();
  }

 public:
  ProcessView(sim::Executor& exec, mem::MemoryIface& inner,
              std::shared_ptr<const bool> alive)
      : exec_(&exec), inner_(&inner), alive_(std::move(alive)) {}

  MemoryId id() const override { return inner_->id(); }

  sim::Task<mem::Status> write(ProcessId caller, RegionId region,
                               std::string reg, Bytes value) override {
    return step(
        inner_->write(caller, region, std::move(reg), std::move(value)));
  }

  sim::Task<mem::ReadResult> read(ProcessId caller, RegionId region,
                                  std::string reg) override {
    return step(inner_->read(caller, region, std::move(reg)));
  }

  sim::Task<std::vector<mem::ReadResult>> read_many(
      ProcessId caller, RegionId region,
      std::vector<std::string> regs) override {
    return step(inner_->read_many(caller, region, std::move(regs)));
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
    return step(
        inner_->change_permission(caller, region, std::move(proposed)));
  }

 private:
  sim::Executor* exec_;
  mem::MemoryIface* inner_;
  std::shared_ptr<const bool> alive_;
};

}  // namespace mnm::harness
