#include "src/util/buffer.hpp"

#include <cassert>
#include <limits>

namespace mnm::util {

// Thread-local free list of control nodes. Nodes are retained for the life
// of the thread; the list is bounded by the peak number of simultaneously
// live buffers, which the simulator keeps small.
static thread_local detail::BufferCtrl* g_pool_head = nullptr;
static thread_local std::size_t g_pool_count = 0;

Buffer::Ctrl* Buffer::acquire_node() {
  if (g_pool_head != nullptr) {
    Ctrl* c = g_pool_head;
    g_pool_head = c->next_free;
    --g_pool_count;
    c->next_free = nullptr;
    c->refs = 1;
    return c;
  }
  Ctrl* c = new Ctrl();
  c->refs = 1;
  return c;
}

void Buffer::recycle_node(Ctrl* c) {
  c->data = Bytes{};  // drop the backing storage, keep the node
  c->next_free = g_pool_head;
  g_pool_head = c;
  ++g_pool_count;
}

std::size_t Buffer::pool_size() { return g_pool_count; }

Buffer::Buffer(Bytes&& b) {
  if (b.empty()) return;
  assert(b.size() <= std::numeric_limits<std::uint32_t>::max());
  ctrl_ = acquire_node();
  ctrl_->data = std::move(b);
  off_ = 0;
  len_ = static_cast<std::uint32_t>(ctrl_->data.size());
}

Buffer::Buffer(const Bytes& b) : Buffer(Bytes(b)) {}

const std::uint8_t* Buffer::data() const {
  return ctrl_ == nullptr ? nullptr : ctrl_->data.data() + off_;
}

Buffer Buffer::suffix(std::size_t offset) const {
  assert(offset <= len_);
  return slice(offset, len_ - offset);
}

Buffer Buffer::slice(std::size_t offset, std::size_t count) const {
  assert(offset + count <= len_);
  Buffer out;
  if (count == 0) return out;
  out.ctrl_ = ctrl_;
  if (out.ctrl_ != nullptr) ++out.ctrl_->refs;
  out.off_ = off_ + static_cast<std::uint32_t>(offset);
  out.len_ = static_cast<std::uint32_t>(count);
  return out;
}

void Buffer::release() {
  if (ctrl_ != nullptr && --ctrl_->refs == 0) recycle_node(ctrl_);
  ctrl_ = nullptr;
  off_ = len_ = 0;
}

}  // namespace mnm::util
