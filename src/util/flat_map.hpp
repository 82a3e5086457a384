// Open-addressed hash table for hot-path demultiplexing.
//
// Inbox (net) and NebSlots (core) sit on every message/memory-op path and
// used to pay an rb-tree walk (std::map) per lookup. FlatMap is a minimal
// linear-probing table for integral keys: power-of-two capacity, no erase
// (demux tables only grow), values stored inline in the slot array. Lookup
// is one hash plus a short probe over contiguous memory.

#pragma once

#include <cassert>
#include <cstdint>
#include <utility>
#include <vector>

namespace mnm::util {

template <typename Key, typename Value>
class FlatMap {
 public:
  FlatMap() = default;

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Pointer to the value for `key`, or nullptr if absent.
  Value* find(Key key) {
    if (slots_.empty()) return nullptr;
    std::size_t i = probe_start(key);
    while (slots_[i].used) {
      if (slots_[i].key == key) return &slots_[i].value;
      i = (i + 1) & mask_;
    }
    return nullptr;
  }
  const Value* find(Key key) const {
    return const_cast<FlatMap*>(this)->find(key);
  }

  bool contains(Key key) const { return find(key) != nullptr; }

  /// Value for `key`, default-constructed on first use.
  Value& operator[](Key key) {
    if (Value* v = find(key)) return *v;
    if ((size_ + 1) * 4 > slots_.size() * 3) grow();
    std::size_t i = probe_start(key);
    while (slots_[i].used) i = (i + 1) & mask_;
    slots_[i].used = true;
    slots_[i].key = key;
    ++size_;
    return slots_[i].value;
  }

 private:
  struct Slot {
    bool used = false;
    Key key{};
    Value value{};
  };

  std::size_t probe_start(Key key) const {
    // Fibonacci hashing spreads sequential keys (tags, process ids) well.
    const std::uint64_t h =
        static_cast<std::uint64_t>(key) * 0x9E3779B97F4A7C15ULL;
    return static_cast<std::size_t>(h >> 32) & mask_;
  }

  void grow() {
    const std::size_t new_cap = slots_.empty() ? 16 : slots_.size() * 2;
    std::vector<Slot> old = std::move(slots_);
    slots_.clear();
    slots_.resize(new_cap);
    mask_ = new_cap - 1;
    size_ = 0;
    for (auto& s : old) {
      if (s.used) (*this)[s.key] = std::move(s.value);
    }
  }

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
};

}  // namespace mnm::util
