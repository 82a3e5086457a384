// Free-list pools for the simulator's transient allocations.
//
// Two pools, both thread-local (the simulator is single-threaded; pools are
// per-thread only so parallel test shards stay independent):
//
//  * frame_alloc/frame_free — size-bucketed blocks for coroutine frames.
//    Task promise types route their frame allocation here, so spawning the
//    same coroutine shapes over and over (memory sub-ops, protocol rounds)
//    reuses a handful of warm blocks instead of hitting the heap each time.
//
//  * Rc<T> — non-atomic refcounted pointer whose nodes come from a per-type
//    free list. Channel/Gate/OneShot waiter nodes are Rc so that the
//    "shared node" teardown-safety pattern (frames may die in any order)
//    costs a pointer bump, not a shared_ptr control-block allocation plus
//    atomic traffic.

#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
#include <utility>
#include <vector>

namespace mnm::sim {

namespace detail {

inline constexpr std::size_t kFrameBucketGranularity = 64;
inline constexpr std::size_t kFrameBucketCount = 32;  // up to 2 KiB pooled

struct FreeBlock {
  FreeBlock* next;
};

inline thread_local FreeBlock* g_frame_buckets[kFrameBucketCount] = {};

}  // namespace detail

/// Pooled allocation for coroutine frames (and similar transient blocks).
inline void* frame_alloc(std::size_t n) {
  const std::size_t bucket =
      (n + detail::kFrameBucketGranularity - 1) / detail::kFrameBucketGranularity;
  if (bucket < detail::kFrameBucketCount) {
    if (detail::FreeBlock* b = detail::g_frame_buckets[bucket]) {
      detail::g_frame_buckets[bucket] = b->next;
      return b;
    }
    return ::operator new(bucket * detail::kFrameBucketGranularity);
  }
  return ::operator new(n);
}

inline void frame_free(void* p, std::size_t n) {
  const std::size_t bucket =
      (n + detail::kFrameBucketGranularity - 1) / detail::kFrameBucketGranularity;
  if (bucket < detail::kFrameBucketCount) {
    auto* b = static_cast<detail::FreeBlock*>(p);
    b->next = detail::g_frame_buckets[bucket];
    detail::g_frame_buckets[bucket] = b;
    return;
  }
  ::operator delete(p);
}

/// FIFO queue over a flat vector. Unlike std::deque it allocates nothing
/// until the first push (channels are constructed in bulk per process and
/// most never buffer), and pops are an index bump with periodic compaction.
template <typename T>
class VecQueue {
 public:
  bool empty() const { return head_ == buf_.size(); }
  std::size_t size() const { return buf_.size() - head_; }

  void push_back(T v) { buf_.push_back(std::move(v)); }

  T& front() { return buf_[head_]; }

  void pop_front() {
    ++head_;
    if (head_ == buf_.size()) {
      buf_.clear();
      head_ = 0;
    } else if (head_ >= 64 && head_ * 2 >= buf_.size()) {
      buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(head_));
      head_ = 0;
    }
  }

 private:
  std::vector<T> buf_;
  std::size_t head_ = 0;
};

/// Non-atomic refcounted pointer with pooled nodes. Single-threaded by
/// contract (see executor.hpp); nodes are recycled through a per-type
/// thread-local free list when the last reference drops.
template <typename T>
class Rc {
 public:
  Rc() = default;

  template <typename... Args>
  static Rc make(Args&&... args) {
    Box* b = acquire_box();
    ::new (static_cast<void*>(b->storage)) T(std::forward<Args>(args)...);
    b->refs = 1;
    return Rc(b);
  }

  Rc(const Rc& other) noexcept : box_(other.box_) {
    if (box_ != nullptr) ++box_->refs;
  }
  Rc(Rc&& other) noexcept : box_(other.box_) { other.box_ = nullptr; }
  Rc& operator=(const Rc& other) noexcept {
    Rc tmp(other);
    std::swap(box_, tmp.box_);
    return *this;
  }
  Rc& operator=(Rc&& other) noexcept {
    std::swap(box_, other.box_);
    return *this;
  }
  ~Rc() { release(); }

  T* get() const {
    return box_ == nullptr
               ? nullptr
               : std::launder(reinterpret_cast<T*>(box_->storage));
  }
  T* operator->() const { return get(); }
  T& operator*() const { return *get(); }
  explicit operator bool() const { return box_ != nullptr; }

  std::uint32_t use_count() const { return box_ == nullptr ? 0 : box_->refs; }

 private:
  struct Box {
    std::uint32_t refs = 0;
    Box* next_free = nullptr;
    alignas(T) unsigned char storage[sizeof(T)];
  };

  static inline thread_local Box* pool_head_ = nullptr;

  static Box* acquire_box() {
    if (pool_head_ != nullptr) {
      Box* b = pool_head_;
      pool_head_ = b->next_free;
      b->next_free = nullptr;
      return b;
    }
    return new Box();
  }

  explicit Rc(Box* b) : box_(b) {}

  void release() {
    if (box_ != nullptr && --box_->refs == 0) {
      get()->~T();
      box_->next_free = pool_head_;
      pool_head_ = box_;
    }
    box_ = nullptr;
  }

  Box* box_ = nullptr;
};

}  // namespace mnm::sim
