// Per-slot state over a sliding range of slot ids.
//
// A slot hub's subs and a hub engine's protocol instances live from a
// slot's first touch until the slot retires below a floor that only rises
// (core::ConsensusEngine::retire_below), so the live ids form a short range
// above the floor: the log's window plus a snapshot interval or two.
// SlotWindow keeps them in a deque indexed by id − floor. A lookup is a
// bounds check and an index, raising the floor frees every entry below it,
// and nothing walks an rb-tree.

#pragma once

#include <cassert>
#include <cstdint>
#include <deque>
#include <memory>

namespace mnm::util {

template <typename T>
class SlotWindow {
 public:
  /// Ids below the floor have retired: find() misses them and get_or_make()
  /// must not be asked for them.
  std::uint64_t floor() const { return floor_; }
  /// One past the highest id that has (or had) an entry above the floor.
  std::uint64_t end() const { return floor_ + cells_.size(); }
  /// Live entries.
  std::size_t size() const { return live_; }

  /// The entry for `id`, or nullptr if it has none.
  T* find(std::uint64_t id) const {
    if (id < floor_ || id - floor_ >= cells_.size()) return nullptr;
    return cells_[id - floor_].get();
  }

  /// The entry for `id` ≥ floor(), built by `make()` on first use.
  template <typename Make>
  T& get_or_make(std::uint64_t id, Make&& make) {
    assert(id >= floor_ && "slot below the retirement floor");
    const std::uint64_t idx = id - floor_;
    if (idx >= cells_.size()) cells_.resize(idx + 1);
    std::unique_ptr<T>& cell = cells_[idx];
    if (cell == nullptr) {
      cell = make();
      ++live_;
    }
    return *cell;
  }

  /// Destroy the entry for `id`, if it has one.
  void erase(std::uint64_t id) {
    if (id < floor_ || id - floor_ >= cells_.size()) return;
    std::unique_ptr<T>& cell = cells_[id - floor_];
    if (cell == nullptr) return;
    cell.reset();
    --live_;
  }

  /// Raise the floor to `f`, destroying every entry below it in id order.
  /// A floor at or below the current one changes nothing.
  void raise_floor(std::uint64_t f) {
    while (floor_ < f && !cells_.empty()) {
      if (cells_.front() != nullptr) --live_;
      cells_.pop_front();
      ++floor_;
    }
    if (floor_ < f) floor_ = f;
  }

 private:
  std::deque<std::unique_ptr<T>> cells_;  // cells_[i] holds id floor_ + i
  std::uint64_t floor_ = 0;
  std::size_t live_ = 0;
};

}  // namespace mnm::util
