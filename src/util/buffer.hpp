// Refcounted immutable payload buffer.
//
// A broadcast to n processes used to serialize once and then copy the
// payload n times (once per Message) plus once more per demux hop. Buffer
// makes the serialized bytes shared: copying a Buffer bumps a refcount,
// slicing one (transport_mux stripping its tag byte) shares the same
// backing storage at an offset. The bytes are immutable once wrapped, so
// aliasing is safe by construction.
//
// Control nodes come from a free-list pool, and the backing storage is a
// moved-in Bytes, so wrapping a freshly-encoded payload allocates nothing
// in steady state beyond what the encoder itself allocated. The refcount
// is non-atomic: the simulator is single-threaded by design (see
// sim/executor.hpp), and this type inherits that contract.

#pragma once

#include <cstdint>

#include "src/util/bytes.hpp"

namespace mnm::util {

namespace detail {
struct BufferCtrl {
  std::uint32_t refs = 0;
  Bytes data;
  BufferCtrl* next_free = nullptr;
};
}  // namespace detail

class Buffer {
 public:
  Buffer() = default;

  /// Wrap `b` without copying its contents (implicit: encoders return
  /// Bytes rvalues and hand them straight to send paths).
  Buffer(Bytes&& b);  // NOLINT(google-explicit-constructor)

  /// Copying wrap — one payload copy, same as the pre-Buffer world. Implicit
  /// so cold call sites that hold a Bytes lvalue keep compiling; hot paths
  /// should move or share instead.
  Buffer(const Bytes& b);  // NOLINT(google-explicit-constructor)

  Buffer(const Buffer& other) noexcept : ctrl_(other.ctrl_), off_(other.off_), len_(other.len_) {
    if (ctrl_ != nullptr) ++ctrl_->refs;
  }
  Buffer(Buffer&& other) noexcept
      : ctrl_(other.ctrl_), off_(other.off_), len_(other.len_) {
    other.ctrl_ = nullptr;
    other.off_ = other.len_ = 0;
  }
  Buffer& operator=(const Buffer& other) noexcept {
    Buffer tmp(other);
    swap(tmp);
    return *this;
  }
  Buffer& operator=(Buffer&& other) noexcept {
    swap(other);
    return *this;
  }
  ~Buffer() { release(); }

  void swap(Buffer& other) noexcept {
    std::swap(ctrl_, other.ctrl_);
    std::swap(off_, other.off_);
    std::swap(len_, other.len_);
  }

  const std::uint8_t* data() const;
  std::size_t size() const { return len_; }
  bool empty() const { return len_ == 0; }
  std::uint8_t operator[](std::size_t i) const { return data()[i]; }

  ByteView view() const { return ByteView(data(), len_); }
  operator ByteView() const { return view(); }  // NOLINT

  /// Share the same storage from `offset` to the end — no copy.
  Buffer suffix(std::size_t offset) const;
  /// Share `count` bytes of the same storage starting at `offset` — no copy.
  Buffer slice(std::size_t offset, std::size_t count) const;

  /// Copy the viewed bytes out (for code that must own mutable Bytes).
  Bytes to_bytes() const { return util::to_bytes(view()); }

  /// Number of Buffers sharing this storage (0 for the empty buffer).
  std::size_t use_count() const { return ctrl_ == nullptr ? 0 : ctrl_->refs; }

  friend bool operator==(const Buffer& a, const Buffer& b) {
    return view_equal(a.view(), b.view());
  }
  friend bool operator==(const Buffer& a, const Bytes& b) {
    return view_equal(a.view(), ByteView(b));
  }
  friend bool operator==(const Bytes& a, const Buffer& b) { return b == a; }

  /// Nodes currently sitting in the free-list pool (test/diagnostic hook).
  static std::size_t pool_size();

 private:
  using Ctrl = detail::BufferCtrl;

  static Ctrl* acquire_node();
  static void recycle_node(Ctrl* c);
  void release();

  Ctrl* ctrl_ = nullptr;
  std::uint32_t off_ = 0;
  std::uint32_t len_ = 0;
};

}  // namespace mnm::util
