// Deterministic virtual-time event loop.
//
// The executor holds a priority queue of (time, sequence) ordered events.
// `run()` pops events in order, advancing the virtual clock; ties are broken
// by insertion order, so every run with the same inputs is bit-for-bit
// deterministic. Asynchrony and adversarial schedules are expressed as delay
// functions (src/net) and scripted failures (src/harness), never as real
// nondeterminism.
//
// Hot-path invariants (see ROADMAP.md "Performance architecture"):
//  * events store their callback inline (InlineFn) — no heap allocation per
//    scheduled callback in steady state;
//  * cancellation is opt-in: `schedule_at`/`schedule_after`/`sleep`/`yield`
//    carry no cancel state at all, while `call_at`/`call_after` draw a
//    (generation-counted) cancel cell from an executor-owned free list, so
//    even cancellable timers allocate nothing once the pool is warm.
//
// TimerHandles must not outlive the Executor that issued them (they point
// into its cell pool). Handles held inside coroutine frames are fine: the
// executor destroys those frames before its own members in ~Executor.
//
// Detached tasks: `spawn` registers a Task<void> as a root. Roots that
// finish are reaped lazily; roots still suspended when the executor is
// destroyed are destroyed with it (this is how operations on crashed
// memories, which hang forever per §3, are cleaned up). A root spawned with
// an OwnedRoot can also be destroyed early by its owner (a retired slot's
// reader loop).

#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <queue>
#include <vector>

#include "src/sim/inline_fn.hpp"
#include "src/sim/task.hpp"
#include "src/sim/time.hpp"

namespace mnm::sim {

namespace detail {
/// Cancellation state for one outstanding cancellable timer. Reused across
/// timers via a free list; `gen` disambiguates a recycled cell from the
/// timer a stale TimerHandle was issued for.
struct CancelCell {
  std::uint64_t gen = 0;
  bool cancelled = false;
  CancelCell* next_free = nullptr;
};
}  // namespace detail

/// Handle used to cancel a scheduled callback (e.g. a timeout that lost the
/// race against the event it guarded).
class TimerHandle {
 public:
  TimerHandle() = default;
  void cancel() {
    if (cell_ != nullptr && cell_->gen == gen_) cell_->cancelled = true;
  }
  bool valid() const { return cell_ != nullptr && cell_->gen == gen_; }

 private:
  friend class Executor;
  TimerHandle(detail::CancelCell* cell, std::uint64_t gen)
      : cell_(cell), gen_(gen) {}
  detail::CancelCell* cell_ = nullptr;
  std::uint64_t gen_ = 0;
};

class Executor;

/// An owner's hold on a detached root (Executor::spawn(task, owner)). The
/// root runs like any other, but its owner can end it early: reset(), or
/// the handle's destructor, destroys the frame in place wherever it is
/// suspended. That schedules nothing — waiters the frame left behind are
/// flagged dead, so no source resumes it — and the frame leaves the
/// executor's root list. A root that finishes first is reaped as usual and
/// the handle empties; so does one the executor destroys at teardown. Not
/// movable: the frame points back at its handle.
class OwnedRoot {
 public:
  OwnedRoot() = default;
  OwnedRoot(const OwnedRoot&) = delete;
  OwnedRoot& operator=(const OwnedRoot&) = delete;
  ~OwnedRoot() { reset(); }

  /// True while the frame exists.
  bool active() const { return handle_ != nullptr; }
  /// Destroy the frame now, if it still exists.
  void reset();

 private:
  friend class Executor;
  Executor* exec_ = nullptr;
  std::coroutine_handle<Task<void>::promise_type> handle_ = nullptr;
  TimerHandle start_;  // the first resume, cancelled if reset() beats it
};

class Executor {
 public:
  Executor() = default;
  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;
  ~Executor();

  Time now() const { return now_; }

  /// Schedule `fn` at absolute virtual time `t` (>= now). The common case:
  /// no handle, no cancel state, no allocation.
  void schedule_at(Time t, InlineFn fn);

  /// Schedule `fn` after `delay` units (non-cancellable).
  void schedule_after(Time delay, InlineFn fn) {
    schedule_at(now_ + delay, std::move(fn));
  }

  /// Schedule `fn` at absolute virtual time `t` (>= now). Returns a handle
  /// that can cancel the callback before it fires.
  TimerHandle call_at(Time t, InlineFn fn);

  /// Schedule `fn` after `delay` units, cancellable.
  TimerHandle call_after(Time delay, InlineFn fn) {
    return call_at(now_ + delay, std::move(fn));
  }

  /// Awaitable: suspend the current coroutine for `delay` units.
  auto sleep(Time delay) {
    struct Awaiter {
      Executor* exec;
      Time delay;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) {
        exec->schedule_after(delay, [h] { h.resume(); });
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{this, delay};
  }

  /// Awaitable: reschedule the current coroutine at the current time, after
  /// all events already queued for this instant.
  auto yield() { return sleep(0); }

  /// Detach a root task; it starts at the next processed event.
  void spawn(Task<void> task);
  /// Detach a root task that `owner` may destroy before it finishes (see
  /// OwnedRoot). It starts exactly as spawn(task) would. `owner` must not
  /// hold a live root already.
  void spawn(Task<void> task, OwnedRoot& owner);

  /// Run until the event queue drains or the clock would pass `until`.
  /// Returns the number of events processed.
  std::size_t run(Time until = kTimeInfinity);

  /// Process events while `pred()` is false. Returns true if pred became
  /// true, false if the queue drained or `until` was reached first.
  bool run_until(const std::function<bool()>& pred, Time until = kTimeInfinity);

  std::size_t events_processed() const { return events_processed_; }
  std::size_t live_roots() const { return live_roots_; }

 private:
  struct Event {
    Time t;
    std::uint64_t seq;
    InlineFn fn;
    detail::CancelCell* cell;  // nullptr for non-cancellable events
    std::uint64_t gen;
  };
  struct EventCompare {
    bool operator()(const Event& a, const Event& b) const {
      if (a.t != b.t) return a.t > b.t;
      return a.seq > b.seq;
    }
  };

  friend class OwnedRoot;
  using RootHandle = std::coroutine_handle<Task<void>::promise_type>;
  struct Root {
    RootHandle handle;  // nullptr once its owner destroyed it
  };

  bool event_cancelled(const Event& ev) const {
    return ev.cell != nullptr && (ev.cell->gen != ev.gen || ev.cell->cancelled);
  }
  /// Return a consumed event's cell to the free list (bumping its
  /// generation, which invalidates outstanding handles).
  void retire_cell(Event& ev);
  detail::CancelCell* acquire_cell();

  /// Register a released task as a root and count it live.
  void add_root(RootHandle handle);
  /// Destroy an owned root in place and leave a gap in the root list.
  void destroy_root(OwnedRoot& owner);
  void reap_finished_roots();
  bool step();  // process one event; false if queue empty

  Time now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::size_t events_processed_ = 0;
  std::size_t live_roots_ = 0;
  std::priority_queue<Event, std::vector<Event>, EventCompare> queue_;
  std::deque<detail::CancelCell> cells_;  // stable addresses for handles
  detail::CancelCell* free_cells_ = nullptr;
  std::vector<Root> roots_;
  std::size_t spawns_since_reap_ = 0;
};

inline void OwnedRoot::reset() {
  if (handle_ != nullptr) exec_->destroy_root(*this);
}

}  // namespace mnm::sim
