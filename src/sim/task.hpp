// Lazy coroutine task.
//
// Every process in the simulator is a coroutine returning Task<T>. Tasks are
// lazy (start suspended) and resume their awaiter on completion via symmetric
// transfer. Ownership is strictly linear: the Task object owns the coroutine
// frame and destroys it in its destructor; a parent coroutine's frame
// therefore owns its children, and destroying a root task tears down the
// whole tree. The executor (executor.hpp) only ever *resumes* handles — it
// never owns them — except for detached tasks registered via
// Executor::spawn, which the executor keeps alive until they finish, their
// OwnedRoot (if any) lets go, or the executor is destroyed.
//
// This mirrors the structure the paper's pseudocode needs: blocking reads,
// writes and waits become `co_await`, and operations on crashed memories
// simply never resume (§3: "operations ... hang without returning a
// response"), leaving the coroutine suspended until teardown.

#pragma once

#include <cassert>
#include <coroutine>
#include <cstdint>
#include <exception>
#include <utility>
#include <variant>

#include "src/sim/pool.hpp"

namespace mnm::sim {

template <typename T>
class Task;
class OwnedRoot;

namespace detail {

struct PromiseBase {
  std::coroutine_handle<> continuation;

  /// Coroutine frames are the simulator's most frequent allocation (every
  /// memory sub-op and protocol round spawns one); route them through the
  /// size-bucketed frame pool.
  static void* operator new(std::size_t n) { return frame_alloc(n); }
  static void operator delete(void* p, std::size_t n) { frame_free(p, n); }

  struct FinalAwaiter {
    bool await_ready() noexcept { return false; }
    template <typename P>
    std::coroutine_handle<> await_suspend(std::coroutine_handle<P> h) noexcept {
      auto& promise = h.promise();
      if (promise.continuation) return promise.continuation;
      return std::noop_coroutine();
    }
    void await_resume() noexcept {}
  };

  std::suspend_always initial_suspend() noexcept { return {}; }
  FinalAwaiter final_suspend() noexcept { return {}; }
};

}  // namespace detail

/// A lazy coroutine computing a T. co_await it to run it to completion.
template <typename T>
class [[nodiscard]] Task {
 public:
  struct promise_type : detail::PromiseBase {
    std::variant<std::monostate, T, std::exception_ptr> result;

    Task get_return_object() {
      return Task{std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    void return_value(T value) { result.template emplace<1>(std::move(value)); }
    void unhandled_exception() { result.template emplace<2>(std::current_exception()); }
  };

  Task() = default;
  Task(Task&& other) noexcept : handle_(std::exchange(other.handle_, nullptr)) {}
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      destroy();
      handle_ = std::exchange(other.handle_, nullptr);
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { destroy(); }

  bool valid() const { return handle_ != nullptr; }
  bool done() const { return handle_ && handle_.done(); }

  auto operator co_await() && noexcept {
    struct Awaiter {
      std::coroutine_handle<promise_type> h;
      bool await_ready() noexcept { return false; }
      std::coroutine_handle<> await_suspend(std::coroutine_handle<> cont) noexcept {
        h.promise().continuation = cont;
        return h;  // start the child (symmetric transfer)
      }
      T await_resume() {
        auto& result = h.promise().result;
        if (result.index() == 2) std::rethrow_exception(std::get<2>(result));
        assert(result.index() == 1 && "Task resumed without a value");
        return std::move(std::get<1>(result));
      }
    };
    return Awaiter{handle_};
  }

  /// For the executor / detached-task plumbing only.
  std::coroutine_handle<promise_type> release() {
    return std::exchange(handle_, nullptr);
  }

 private:
  explicit Task(std::coroutine_handle<promise_type> h) : handle_(h) {}
  void destroy() {
    if (handle_) {
      handle_.destroy();
      handle_ = nullptr;
    }
  }

  std::coroutine_handle<promise_type> handle_ = nullptr;
};

template <>
class [[nodiscard]] Task<void> {
 public:
  struct promise_type : detail::PromiseBase {
    std::exception_ptr error;
    /// Set by Executor::spawn: this root's position in the executor's root
    /// list, the handle that may destroy it early (if any), and the live
    /// count that detached-root completion decrements in O(1) instead of
    /// scanning the root list.
    std::uint32_t root_index = 0;
    OwnedRoot* owner = nullptr;
    std::size_t* live_counter = nullptr;

    Task get_return_object() {
      return Task{std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    void return_void() {
      if (live_counter != nullptr) --*live_counter;
    }
    void unhandled_exception() {
      error = std::current_exception();
      if (live_counter != nullptr) --*live_counter;
    }
  };

  Task() = default;
  Task(Task&& other) noexcept : handle_(std::exchange(other.handle_, nullptr)) {}
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      destroy();
      handle_ = std::exchange(other.handle_, nullptr);
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { destroy(); }

  bool valid() const { return handle_ != nullptr; }
  bool done() const { return handle_ && handle_.done(); }

  auto operator co_await() && noexcept {
    struct Awaiter {
      std::coroutine_handle<promise_type> h;
      bool await_ready() noexcept { return false; }
      std::coroutine_handle<> await_suspend(std::coroutine_handle<> cont) noexcept {
        h.promise().continuation = cont;
        return h;
      }
      void await_resume() {
        if (h.promise().error) std::rethrow_exception(h.promise().error);
      }
    };
    return Awaiter{handle_};
  }

  std::coroutine_handle<promise_type> release() {
    return std::exchange(handle_, nullptr);
  }

 private:
  friend struct promise_type;
  explicit Task(std::coroutine_handle<promise_type> h) : handle_(h) {}
  void destroy() {
    if (handle_) {
      handle_.destroy();
      handle_ = nullptr;
    }
  }

  std::coroutine_handle<promise_type> handle_ = nullptr;
};

}  // namespace mnm::sim
