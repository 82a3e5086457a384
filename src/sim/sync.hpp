// One-shot synchronization primitives.
//
// `Gate` is a one-shot broadcast event (used for "wait until this process
// decides"). It uses the same pooled shared-node pattern as Channel so frames
// may be torn down in any order; nodes are allocated only when a wait
// suspends.

#pragma once

#include <coroutine>
#include <cstdint>
#include <vector>

#include "src/sim/executor.hpp"
#include "src/sim/pool.hpp"
#include "src/sim/wait_node.hpp"

namespace mnm::sim {

/// One-shot broadcast gate: open() wakes all current and future waiters.
class Gate {
 public:
  explicit Gate(Executor& exec) : exec_(&exec) {}
  Gate(const Gate&) = delete;
  Gate& operator=(const Gate&) = delete;

  bool is_open() const { return open_; }

  void open() {
    if (open_) return;
    open_ = true;
    for (auto& w : waiters_) {
      exec_->schedule_at(exec_->now(), [w = std::move(w)] {
        if (!w->dead) w->handle.resume();
      });
    }
    waiters_.clear();
    detail::fire_select_watchers(*exec_, select_waiters_);
  }

  // --- Select source hooks (sim/select.hpp). ---
  bool select_ready() const { return open_; }
  void select_watch(const Rc<SelectNode>& node, std::uint32_t idx) {
    detail::add_select_watcher(select_waiters_, node, idx);
  }

  auto wait() {
    struct Awaiter {
      Gate* g;
      Rc<Waiter> w{};
      bool await_ready() const { return g->open_; }
      void await_suspend(std::coroutine_handle<> h) {
        w = Rc<Waiter>::make();
        w->handle = h;
        g->waiters_.push_back(w);
      }
      void await_resume() const {}
      ~Awaiter() {
        if (w) w->dead = true;
      }
    };
    return Awaiter{this};
  }

 private:
  struct Waiter {
    std::coroutine_handle<> handle;
    bool dead = false;
  };
  Executor* exec_;
  bool open_ = false;
  std::vector<Rc<Waiter>> waiters_;
  std::vector<std::pair<Rc<SelectNode>, std::uint32_t>> select_waiters_;
};

/// Monotone change counter with wakeups: bump() increments the version and
/// wakes every multi-source waiter registered since the last bump. Waits are
/// race-free by construction — snapshot version() *before* inspecting the
/// guarded state, then `Select::on(signal, snapshot)`: a bump that lands
/// between the snapshot and the await makes the select ready immediately,
/// so there is no lost-wakeup window. Used for memory write notifications
/// (NEB's scan loop) and Ω leadership changes.
class VersionSignal {
 public:
  explicit VersionSignal(Executor& exec) : exec_(&exec) {}
  VersionSignal(const VersionSignal&) = delete;
  VersionSignal& operator=(const VersionSignal&) = delete;

  std::uint64_t version() const { return version_; }

  void bump() {
    ++version_;
    detail::fire_select_watchers(*exec_, select_waiters_);
  }

  void select_watch(const Rc<SelectNode>& node, std::uint32_t idx) {
    detail::add_select_watcher(select_waiters_, node, idx);
  }

 private:
  Executor* exec_;
  std::uint64_t version_ = 0;
  std::vector<std::pair<Rc<SelectNode>, std::uint32_t>> select_waiters_;
};

}  // namespace mnm::sim
