// Slot-tag namespace over ONE Transport.
//
// A replicated log runs one consensus instance per slot. Before this hub,
// every instance needed its own network tag (examples hand-allocated
// kBaseTag + slot); now a replica owns a single base transport and the hub
// frames each payload with its 8-byte slot id, demultiplexing inbound
// messages to per-slot sub-transports. Sub-transports are created on demand
// on BOTH sides: a follower that has never heard of slot s gets a buffering
// sub the moment the first message for s arrives, and the `heard` signal +
// take_heard() tell the engine's discovery loop to open the slot's
// instance, which then drains the buffered messages. That is what makes
// leader-driven pipelining work without any out-of-band slot announcement.
// Only heard slots open: a replica that rejoins mid-run and first hears
// slot 700 builds one instance, not 700.
//
// Subs retire with their slots: retire_below(f) frees every sub below f and
// raises the hub's floor, and a later frame below the floor is dropped — it
// creates no sub and lists nothing for discovery — so stray traffic cannot
// reopen a retired slot.
//
// Beside the slots run two reserved frames: the control channel (snapshot
// catch-up) and the term channel, which carries a Fast Paxos leader's one
// PREPARE for all of its group's slots and the PROMISEs that answer it
// (core::PaxosTerm). Neither lists a slot for discovery.
//
// Hot-path shape matches TransportMux: framing is one extra Writer into the
// shared broadcast buffer (still one serialize per broadcast), inbound
// stripping is a zero-copy Buffer slice, and the slot → sub table is a
// util::SlotWindow (an index from the floor, sized by the live range).

#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "src/common.hpp"
#include "src/core/transport.hpp"
#include "src/sim/executor.hpp"
#include "src/sim/sync.hpp"
#include "src/util/serde.hpp"
#include "src/util/slot_window.hpp"

namespace mnm::core {

class SlotTransportHub {
 public:
  /// Frames whose slot id is ≥ floor + guard are dropped: malformed (or
  /// Byzantine) traffic must not trick learners into opening unbounded
  /// per-slot state. The guard is relative, so a long-running group whose
  /// floor rises never reaches it.
  static constexpr Slot kDefaultGuard = Slot{1} << 20;

  /// Reserved frame id for the control channel (catch-up requests and
  /// responses between replicas — smr/catchup.hpp demuxes the two by
  /// leading tag byte). All-ones can never be a real slot — it is far above
  /// every slot guard — so the demux routes it to a dedicated sub-transport
  /// and lists nothing: control traffic must not look like slot activity to
  /// the discovery loop.
  static constexpr Slot kControlSlot = ~Slot{0};

  /// Reserved frame id for the group's leader-term channel (PaxosTerm),
  /// just below the control frame. Inbound term frames go to the on_term()
  /// handler inline in the demux loop — the term runs no reader coroutine,
  /// so a group whose leader never changes schedules nothing for it — and
  /// are dropped while no handler is set.
  static constexpr Slot kTermSlot = kControlSlot - 1;

  SlotTransportHub(sim::Executor& exec, Transport& base,
                   Slot guard = kDefaultGuard)
      : exec_(&exec), base_(&base), guard_(guard), heard_(exec) {}

  ProcessId self() const { return base_->self(); }

  /// The sub-transport for `slot` at or above the retirement floor
  /// (created on first use; a local open lists nothing for discovery).
  Transport& slot(Slot s) { return sub(s); }

  /// Free every sub below `floor` and drop later frames for those slots.
  /// Schedules nothing.
  void retire_below(Slot floor) { subs_.raise_floor(floor); }
  /// Live slot subs (the control channel's not counted).
  std::size_t subs_held() const { return subs_.size(); }

  /// Spawn the demux loop. Call exactly once, before messages flow.
  void start() { exec_->spawn(demux_loop(this)); }

  /// Bumps whenever an inbound frame creates a sub (the slot's first frame
  /// here), and only then.
  sim::VersionSignal& heard() { return heard_; }

  /// Swap into `out`, in ascending order, the slots whose subs inbound
  /// frames created since the last call (local opens are not listed).
  /// `out`'s old contents are dropped; both buffers keep their capacity.
  void take_heard(std::vector<Slot>& out) {
    out.clear();
    std::swap(out, heard_slots_);
    std::sort(out.begin(), out.end());
  }

  /// The control channel: a sub-transport on the reserved kControlSlot
  /// frame id. Created on first use; its traffic lists nothing.
  Transport& control() { return control_sub(); }

  /// The term channel for sending: a sub-transport on kTermSlot, created
  /// on first use. What it receives goes to `handler` (see on_term).
  Transport& term() {
    if (term_ == nullptr) {
      term_ = std::make_unique<Sub>(*exec_, *base_, kTermSlot);
    }
    return *term_;
  }
  void on_term(std::function<void(const TMsg&)> handler) {
    term_handler_ = std::move(handler);
  }

  static Bytes frame(Slot s, util::ByteView payload) {
    util::Writer w(payload.size() + 8);
    w.u64(s).raw(payload);
    return std::move(w).take();
  }

 private:
  class Sub : public Transport {
   public:
    Sub(sim::Executor& exec, Transport& base, Slot s)
        : base_(&base), slot_(s), incoming_(exec) {}

    ProcessId self() const override { return base_->self(); }
    std::size_t process_count() const override {
      return base_->process_count();
    }
    void send(ProcessId dst, util::Buffer payload) override {
      base_->send(dst, frame(slot_, payload));
    }
    void send_all(util::Buffer payload, bool include_self = true) override {
      // Frame once; the framed buffer is shared across the fan-out.
      base_->send_all(frame(slot_, payload), include_self);
    }
    sim::Channel<TMsg>& incoming() override { return incoming_; }

   private:
    Transport* base_;
    Slot slot_;
    sim::Channel<TMsg> incoming_;
    friend class SlotTransportHub;
  };

  Sub& sub(Slot s) {
    return subs_.get_or_make(
        s, [&] { return std::make_unique<Sub>(*exec_, *base_, s); });
  }

  Sub& control_sub() {
    if (control_ == nullptr) {
      control_ = std::make_unique<Sub>(*exec_, *base_, kControlSlot);
    }
    return *control_;
  }

  /// True for slots at or above the floor and below the guard above it.
  bool in_window(Slot s) const {
    return s >= subs_.floor() && s - subs_.floor() < guard_;
  }

  static sim::Task<void> demux_loop(SlotTransportHub* hub) {
    while (true) {
      TMsg m = co_await hub->base_->incoming().recv();
      if (m.payload.size() < 8) continue;  // malformed: drop
      std::uint64_t s = 0;
      try {
        util::Reader r(m.payload);
        s = r.u64();
      } catch (const util::SerdeError&) {
        continue;
      }
      if (s == kControlSlot) {  // control frame: route, never list
        Sub& ctl = hub->control_sub();
        m.payload = m.payload.suffix(8);
        ctl.incoming_.send(std::move(m));
        continue;
      }
      if (s == kTermSlot) {  // term frame: hand over inline, never list
        if (hub->term_handler_) {
          hub->term_handler_(TMsg{m.src, m.payload.suffix(8)});
        }
        continue;
      }
      if (!hub->in_window(s)) continue;  // retired, or past the guard: drop
      Sub* sub = hub->subs_.find(s);
      if (sub == nullptr) {  // first frame: list the slot for discovery
        sub = &hub->sub(s);
        hub->heard_slots_.push_back(s);
        hub->heard_.bump();
      }
      m.payload = m.payload.suffix(8);  // strip the slot id, zero-copy
      sub->incoming_.send(std::move(m));
    }
  }

  sim::Executor* exec_;
  Transport* base_;
  Slot guard_;
  sim::VersionSignal heard_;
  std::vector<Slot> heard_slots_;  // subs inbound frames created, unopened
  util::SlotWindow<Sub> subs_;
  std::unique_ptr<Sub> control_;
  std::unique_ptr<Sub> term_;
  std::function<void(const TMsg&)> term_handler_;
};

}  // namespace mnm::core
