#include "src/sim/executor.hpp"

#include <cassert>
#include <utility>

namespace mnm::sim {

Executor::~Executor() {
  // Drop all pending events first so nothing resumes a frame mid-teardown,
  // then destroy surviving root frames (which recursively destroys children
  // suspended inside them). The cell pool (cells_) outlives this body, so
  // TimerHandle::cancel calls from awaiter destructors stay safe.
  while (!queue_.empty()) queue_.pop();
  for (auto it = roots_.rbegin(); it != roots_.rend(); ++it) {
    if (it->handle) {
      // Frames destroyed mid-flight never run return_void; detach the
      // counter so teardown order cannot touch a stale pointer, and empty
      // the owner's handle so it does not destroy the frame again.
      auto& promise = it->handle.promise();
      promise.live_counter = nullptr;
      if (promise.owner != nullptr) promise.owner->handle_ = nullptr;
      it->handle.destroy();
    }
  }
}

void Executor::schedule_at(Time t, InlineFn fn) {
  assert(t >= now_ && "cannot schedule in the past");
  queue_.push(Event{t, next_seq_++, std::move(fn), nullptr, 0});
}

detail::CancelCell* Executor::acquire_cell() {
  if (free_cells_ != nullptr) {
    detail::CancelCell* c = free_cells_;
    free_cells_ = c->next_free;
    c->next_free = nullptr;
    return c;
  }
  cells_.emplace_back();
  return &cells_.back();
}

void Executor::retire_cell(Event& ev) {
  if (ev.cell == nullptr) return;
  if (ev.cell->gen != ev.gen) return;  // already recycled (shouldn't happen)
  ++ev.cell->gen;  // invalidate outstanding TimerHandles
  ev.cell->cancelled = false;
  ev.cell->next_free = free_cells_;
  free_cells_ = ev.cell;
  ev.cell = nullptr;
}

TimerHandle Executor::call_at(Time t, InlineFn fn) {
  assert(t >= now_ && "cannot schedule in the past");
  detail::CancelCell* cell = acquire_cell();
  queue_.push(Event{t, next_seq_++, std::move(fn), cell, cell->gen});
  return TimerHandle{cell, cell->gen};
}

void Executor::add_root(RootHandle handle) {
  handle.promise().root_index = static_cast<std::uint32_t>(roots_.size());
  handle.promise().live_counter = &live_roots_;
  roots_.push_back(Root{handle});
  ++live_roots_;
  if (++spawns_since_reap_ >= 1024) {
    reap_finished_roots();
    spawns_since_reap_ = 0;
  }
}

void Executor::spawn(Task<void> task) {
  auto handle = task.release();
  if (!handle) return;
  add_root(handle);
  // Start the task as a scheduled event so spawn() is safe to call from
  // anywhere, including inside another coroutine's step.
  schedule_at(now_, [handle] { handle.resume(); });
}

void Executor::spawn(Task<void> task, OwnedRoot& owner) {
  assert(!owner.active() && "OwnedRoot already holds a live root");
  auto handle = task.release();
  if (!handle) return;
  add_root(handle);
  handle.promise().owner = &owner;
  owner.exec_ = this;
  owner.handle_ = handle;
  // The same (time, seq) start as spawn(task), but cancellable: an owner
  // that lets go before the first resume leaves no event behind.
  owner.start_ = call_at(now_, [handle] { handle.resume(); });
}

void Executor::destroy_root(OwnedRoot& owner) {
  const RootHandle handle = std::exchange(owner.handle_, nullptr);
  owner.start_.cancel();
  auto& promise = handle.promise();
  roots_[promise.root_index].handle = nullptr;  // the next reap drops it
  if (!handle.done()) --live_roots_;  // it never reaches return_void
  handle.destroy();
}

void Executor::reap_finished_roots() {
  std::size_t kept = 0;
  for (Root& r : roots_) {
    if (!r.handle) continue;  // destroyed by its owner
    auto& promise = r.handle.promise();
    if (r.handle.done()) {
      if (promise.owner != nullptr) promise.owner->handle_ = nullptr;
      r.handle.destroy();
      continue;
    }
    promise.root_index = static_cast<std::uint32_t>(kept);
    roots_[kept++] = r;
  }
  roots_.resize(kept);
}

bool Executor::step() {
  while (!queue_.empty()) {
    Event ev = std::move(const_cast<Event&>(queue_.top()));
    queue_.pop();
    if (event_cancelled(ev)) {
      retire_cell(ev);
      continue;
    }
    retire_cell(ev);
    now_ = ev.t;
    ++events_processed_;
    ev.fn();
    return true;
  }
  return false;
}

std::size_t Executor::run(Time until) {
  std::size_t processed = 0;
  while (!queue_.empty()) {
    // Peek past cancelled events to find the next real one.
    if (event_cancelled(queue_.top())) {
      Event ev = std::move(const_cast<Event&>(queue_.top()));
      queue_.pop();
      retire_cell(ev);
      continue;
    }
    if (queue_.top().t > until) break;
    if (!step()) break;
    ++processed;
  }
  reap_finished_roots();
  return processed;
}

bool Executor::run_until(const std::function<bool()>& pred, Time until) {
  if (pred()) return true;
  while (!queue_.empty()) {
    if (event_cancelled(queue_.top())) {
      Event ev = std::move(const_cast<Event&>(queue_.top()));
      queue_.pop();
      retire_cell(ev);
      continue;
    }
    if (queue_.top().t > until) return false;
    if (!step()) break;
    if (pred()) return true;
  }
  return pred();
}

}  // namespace mnm::sim
