// Quorum fan-out helper.
//
// The paper's algorithms repeatedly issue an operation to all m memories in
// parallel and continue after m − fM complete ("wait for completion of
// m - fM iterations of pfor loop", Alg. 7). Fanout spawns each sub-operation
// as a detached task and lets the caller collect the first k completions;
// stragglers — including operations hanging on crashed memories — keep
// running (or hang) harmlessly and are reaped at executor teardown.
//
// Results are tagged with the index passed to add(), so callers know which
// memory answered.

#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "src/sim/channel.hpp"
#include "src/sim/executor.hpp"
#include "src/sim/pool.hpp"
#include "src/sim/task.hpp"

namespace mnm::sim {

template <typename R>
class Fanout {
 public:
  explicit Fanout(Executor& exec)
      : exec_(&exec), results_(Rc<Channel<std::pair<std::size_t, R>>>::make(exec)) {}

  /// Launch one sub-operation, tagged with `index`.
  void add(std::size_t index, Task<R> op) {
    exec_->spawn(run_one(std::move(op), index, results_));
    ++added_;
  }

  std::size_t added() const { return added_; }

  /// The completion channel itself, for composing a fan-out with other wait
  /// sources via sim::Select (`sel.on(fanout.results())`) and draining ready
  /// completions without suspending (`fanout.results().try_recv()`).
  Channel<std::pair<std::size_t, R>>& results() { return *results_; }

  /// Await the first `k` completions (in completion order). Must not ask for
  /// more than were added; completions already consumed are not returned
  /// again, so collect() can be called repeatedly to drain stragglers.
  Task<std::vector<std::pair<std::size_t, R>>> collect(std::size_t k) {
    std::vector<std::pair<std::size_t, R>> out;
    out.reserve(k);
    while (out.size() < k) {
      out.push_back(co_await results_->recv());
    }
    co_return out;
  }

 private:
  // Parameters (not captures!) so the detached coroutine owns everything it
  // touches — lambda captures do not survive in detached coroutines.
  static Task<void> run_one(Task<R> op, std::size_t index,
                            Rc<Channel<std::pair<std::size_t, R>>> results) {
    R r = co_await std::move(op);
    results->send({index, std::move(r)});
  }

  Executor* exec_;
  Rc<Channel<std::pair<std::size_t, R>>> results_;
  std::size_t added_ = 0;
};

}  // namespace mnm::sim
