// Write-change watch over one scope of a set of memories.
//
// Pollers that re-read registers "until something shows up" (NEB's delivery
// scan, Cheap Quorum's follower loops) turn into waiters with this helper:
// snapshot() the memories' write signals, do one read pass, and if nothing
// useful surfaced, wait_change() on a sim::Select — it resumes as soon as any
// memory applies a write past the snapshot. Because the snapshot is taken
// *before* the read pass, a write that lands mid-pass re-arms the select
// immediately: no lost wakeups, no poll ticks.
//
// Scope rule: a waiter watches only the scope of the registers it reads
// (mem::ScopeId — each region belongs to one). A slot's pollers therefore
// wake on that slot's writes alone; writes in other slots, however many,
// cost them nothing. A write outside the watched scope that the pass could
// still observe would be a lost wakeup, so every region a poller reads must
// sit in the scope it watches.
//
// One Select source per memory: a watch over more memories than
// sim::Select::kMaxSources is refused at construction.

#pragma once

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "src/mem/memory.hpp"
#include "src/sim/select.hpp"
#include "src/sim/sync.hpp"
#include "src/sim/task.hpp"
#include "src/sim/time.hpp"

namespace mnm::mem {

class WriteWatch {
 public:
  WriteWatch(const std::vector<MemoryIface*>& memories, ScopeId scope) {
    if (memories.empty() || memories.size() > sim::Select::kMaxSources) {
      throw std::length_error(
          "mem::WriteWatch: needs 1..Select::kMaxSources memories");
    }
    signals_.reserve(memories.size());
    for (MemoryIface* m : memories) signals_.push_back(&m->write_signal(scope));
    seen_.assign(signals_.size(), 0);
  }

  /// Record the current write versions; call before the read pass.
  void snapshot() {
    for (std::size_t i = 0; i < signals_.size(); ++i) {
      seen_[i] = signals_[i]->version();
    }
  }

  /// Suspend until any memory's version moves past the last snapshot, or
  /// `deadline` passes (sim::kTimeInfinity: a pure change wait).
  sim::Task<void> wait_change(sim::Executor& exec, sim::Time deadline) {
    sim::Select sel(exec);
    for (std::size_t i = 0; i < signals_.size(); ++i) {
      sel.on(*signals_[i], seen_[i]);
    }
    if (deadline != sim::kTimeInfinity) sel.until(deadline);
    (void)co_await sel;
  }

 private:
  std::vector<sim::VersionSignal*> signals_;
  std::vector<std::uint64_t> seen_;
};

}  // namespace mnm::mem
