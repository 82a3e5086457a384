// Ω failure detector (eventual leader election).
//
// The paper's liveness arguments assume the standard Ω oracle: eventually
// all correct processes trust the same correct process forever (§5.1,
// Algorithm 7 line 5 "Ω: failure detector that returns current leader";
// Theorem C.5). Ω is an *assumption*, not an algorithm, so we model it as a
// queryable oracle: the harness supplies a leader function over virtual
// time — typically "lowest-id process alive at t", which converges once
// crashes stop, or a scripted schedule for adversarial tests.
//
// Waiting for leadership is notification-driven: whoever changes the inputs
// of the leader function (the harness, at fault-injection events) calls
// poke(), which wakes every suspended wait_leadership immediately. A capped
// exponential-backoff re-check guards oracles whose schedule changes without
// a poke (scripted test schedules), so a non-leader costs O(log t) + O(t /
// kBackoffCap) timer events instead of one per poll tick — and with a fixed
// leader and prompt pokes, effectively none.

#pragma once

#include <algorithm>
#include <functional>

#include "src/common.hpp"
#include "src/sim/executor.hpp"
#include "src/sim/select.hpp"
#include "src/sim/sync.hpp"
#include "src/sim/task.hpp"

namespace mnm::core {

class Omega {
 public:
  using LeaderFn = std::function<ProcessId(sim::Time now)>;

  /// Fallback re-check ceiling for un-poked leader changes.
  static constexpr sim::Time kBackoffCap = 64;

  /// Leader oracle from an arbitrary time-indexed function. Pass
  /// `poke_complete = true` (or call set_poke_complete) when every output
  /// change will be announced with poke().
  Omega(sim::Executor& exec, LeaderFn fn, bool poke_complete = false)
      : exec_(&exec),
        fn_(std::move(fn)),
        changed_(exec),
        poke_complete_(poke_complete) {}

  /// Fixed leader forever (the common-case benchmark configuration). The
  /// output never changes, so waits need no re-check fallback at all.
  static Omega fixed(sim::Executor& exec, ProcessId leader) {
    return Omega(exec, [leader](sim::Time) { return leader; }, true);
  }

  /// Declare that every change of the leader function's output is announced
  /// with poke() (the harness pokes at its fault-injection events). Waits
  /// then suspend with no fallback timer: zero events while nothing changes.
  void set_poke_complete(bool v) { poke_complete_ = v; }

  ProcessId leader() const { return fn_(exec_->now()); }
  bool trusts(ProcessId p) const { return leader() == p; }

  /// Notify suspended waiters that the leader function's output may have
  /// changed (the harness pokes at crash events).
  void poke() { changed_.bump(); }

  /// The change signal itself, for composing with other wait sources.
  sim::VersionSignal& changed() { return changed_; }

  /// Suspend until this process is the leader ("wait until Ω == p",
  /// Alg. 7 line 9). Wakes on poke(); the fallback re-check starts at one
  /// delay and doubles up to kBackoffCap.
  sim::Task<void> wait_leadership(ProcessId self) {
    sim::Time backoff = 1;
    while (!trusts(self)) {
      sim::Select sel(*exec_);
      sel.on(changed_, changed_.version());
      if (!poke_complete_) sel.until(exec_->now() + backoff);
      (void)co_await sel;
      backoff = std::min(backoff * 2, kBackoffCap);
    }
  }

  /// As wait_leadership, but also returns (possibly without leadership) once
  /// `stop` opens — the proposers' "wait until Ω == p or we already decided".
  sim::Task<void> wait_leadership_or(ProcessId self, sim::Gate& stop) {
    sim::Time backoff = 1;
    while (!trusts(self) && !stop.is_open()) {
      sim::Select sel(*exec_);
      sel.on(stop).on(changed_, changed_.version());
      if (!poke_complete_) sel.until(exec_->now() + backoff);
      (void)co_await sel;
      backoff = std::min(backoff * 2, kBackoffCap);
    }
  }

 private:
  sim::Executor* exec_;
  LeaderFn fn_;
  sim::VersionSignal changed_;
  bool poke_complete_ = false;
};

}  // namespace mnm::core
