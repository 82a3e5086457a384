// Open-addressed hash table for hot-path demultiplexing.
//
// Inbox (net) and NebSlots (core) sit on every message/memory-op path and
// used to pay an rb-tree walk (std::map) per lookup; the memories look their
// regions up by id on every operation. FlatMap is a minimal linear-probing
// table for integral keys: power-of-two capacity, values stored inline in
// the slot array. Lookup is one hash plus a short probe over contiguous
// memory. Erase shifts the rest of its probe run back, so no tombstones
// accumulate; the capacity never shrinks.

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

  /// Remove `key`'s entry, if any.
  void erase(Key key) {
    if (slots_.empty()) return;
    std::size_t hole = probe_start(key);
    while (slots_[hole].used && slots_[hole].key != key) {
      hole = (hole + 1) & mask_;
    }
    if (!slots_[hole].used) return;
    // Backward-shift deletion: move each later entry of the run whose home
    // lies at or before the hole into it, so every entry stays reachable
    // from its home without crossing an empty slot.
    for (std::size_t j = (hole + 1) & mask_; slots_[j].used;
         j = (j + 1) & mask_) {
      const std::size_t home = probe_start(slots_[j].key);
      if (((j - home) & mask_) >= ((j - hole) & mask_)) {
        slots_[hole] = std::move(slots_[j]);
        hole = j;
      }
    }
    slots_[hole] = Slot{};
    --size_;
  }

  /// Visit every entry as fn(key, value), in slot order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const Slot& s : slots_) {
      if (s.used) fn(s.key, s.value);
    }
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
