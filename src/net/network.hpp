// Message-passing half of the M&M model (paper §3, "Sending messages").
//
// Directed, authenticated, reliable links between every pair of processes:
//  * Integrity — a message is received at most once, and only if it was sent:
//    the network stamps the true sender on every message, so even Byzantine
//    strategies cannot spoof a source id (they hold only their own Endpoint).
//  * No-loss — messages between correct processes are eventually delivered;
//    asynchrony is modeled by the per-link delay function, never by drops.
//
// Crashed processes stop sending and receiving. Delivery to a process that
// crashed before the message arrives is dropped (a crashed process "stops
// taking steps forever").
//
// Payloads are util::Buffer: a broadcast serializes once and every copy of
// the message shares the same refcounted bytes (see ROADMAP.md
// "Performance architecture").

#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "src/common.hpp"
#include "src/sim/channel.hpp"
#include "src/sim/executor.hpp"
#include "src/sim/time.hpp"
#include "src/util/buffer.hpp"
#include "src/util/flat_map.hpp"

namespace mnm::net {

using MsgType = std::uint32_t;

struct Message {
  ProcessId src = 0;
  ProcessId dst = 0;
  MsgType type = 0;
  util::Buffer payload;
};

/// Per-process demultiplexing inbox: one channel per message type plus a
/// catch-all for unregistered types. Algorithms sharing a process (e.g. Fast
/// & Robust's fast path and backup) each listen on their own types. The
/// type → channel table is a flat open-addressed map (one probe per
/// delivery, no rb-tree walk).
class Inbox {
 public:
  /// Direct-delivery hook: when set for a type, deliver() hands the message
  /// to the sink inside the delivery event itself instead of queueing into
  /// a channel — transports that re-wrap messages (core::NetTransport's
  /// net::Message → TMsg conversion) skip a whole pump hop per message.
  /// The sink must outlive message flow on its type.
  using Sink = std::function<void(Message&&)>;

  explicit Inbox(sim::Executor& exec) : exec_(&exec) {}

  /// Channel for a specific message type (created on first use).
  sim::Channel<Message>& channel(MsgType type) {
    std::unique_ptr<sim::Channel<Message>>& slot = channels_[type];
    if (slot == nullptr) {
      slot = std::make_unique<sim::Channel<Message>>(*exec_);
    }
    return *slot;
  }

  void set_sink(MsgType type, Sink sink) { sinks_[type] = std::move(sink); }

  void deliver(Message msg) {
    if (Sink* s = sinks_.find(msg.type); s != nullptr && *s) {
      (*s)(std::move(msg));
      return;
    }
    channel(msg.type).send(std::move(msg));
  }

 private:
  sim::Executor* exec_;
  util::FlatMap<MsgType, std::unique_ptr<sim::Channel<Message>>> channels_;
  util::FlatMap<MsgType, Sink> sinks_;
};

/// Delay (in virtual time units) for a message src → dst sent at `now`.
/// Returning larger values before a GST models partial synchrony.
using DelayFn = std::function<sim::Time(ProcessId src, ProcessId dst, sim::Time now)>;

class Network {
 public:
  Network(sim::Executor& exec, std::size_t n_processes);

  std::size_t process_count() const { return n_; }

  /// Replace the delay function (default: every message takes
  /// sim::kMessageDelay).
  void set_delay_fn(DelayFn fn) { delay_fn_ = std::move(fn); }

  /// Convenience partial-synchrony shape: messages sent before `gst` take
  /// `pre_delay`; messages sent at/after take kMessageDelay.
  void set_gst(sim::Time gst, sim::Time pre_delay);

  Inbox& inbox(ProcessId pid);

  /// Send one message. No-op if src has crashed. Delivery is scheduled per
  /// the delay function and dropped if dst has crashed by arrival.
  void send(ProcessId src, ProcessId dst, MsgType type, util::Buffer payload);

  /// Send to every process (including src itself by default — self-delivery
  /// costs the same one delay, keeping the delay accounting uniform). The
  /// payload is shared, not copied, across the n messages.
  void broadcast(ProcessId src, MsgType type, util::Buffer payload,
                 bool include_self = true);

  void crash(ProcessId pid) {
    if (pid >= 1 && pid <= n_) crashed_[pid - 1] = 1;
  }
  /// Re-admit a crashed process (crash-and-rejoin). The process resumes
  /// sending and receiving from the revive point on; messages that arrived
  /// while it was down stay dropped — the rejoining replica recovers them
  /// through the catch-up protocol, not the network.
  void revive(ProcessId pid) {
    if (pid >= 1 && pid <= n_) crashed_[pid - 1] = 0;
  }
  bool crashed(ProcessId pid) const {
    return pid >= 1 && pid <= n_ && crashed_[pid - 1] != 0;
  }

  // Metrics.
  std::uint64_t messages_sent() const { return sent_; }
  std::uint64_t messages_delivered() const { return delivered_; }

 private:
  sim::Executor* exec_;
  std::size_t n_;
  DelayFn delay_fn_;
  std::vector<std::unique_ptr<Inbox>> inboxes_;  // index pid - 1
  std::vector<std::uint8_t> crashed_;            // index pid - 1
  std::uint64_t sent_ = 0;
  std::uint64_t delivered_ = 0;
};

/// Identity-bound capability handed to one process: all sends are stamped
/// with the owner's id. This is the mechanism that makes sender spoofing
/// impossible for Byzantine strategies.
class Endpoint {
 public:
  Endpoint() = default;
  Endpoint(Network& net, ProcessId self) : net_(&net), self_(self) {}

  ProcessId self() const { return self_; }
  Network& network() const { return *net_; }

  void send(ProcessId dst, MsgType type, util::Buffer payload) const {
    net_->send(self_, dst, type, std::move(payload));
  }
  void broadcast(MsgType type, util::Buffer payload,
                 bool include_self = true) const {
    net_->broadcast(self_, type, std::move(payload), include_self);
  }
  sim::Channel<Message>& channel(MsgType type) const {
    return net_->inbox(self_).channel(type);
  }

 private:
  Network* net_ = nullptr;
  ProcessId self_ = 0;
};

}  // namespace mnm::net
