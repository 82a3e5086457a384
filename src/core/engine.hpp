// core::ConsensusEngine — the uniform multi-slot consensus surface.
//
// The paper positions its protocols as drop-in engines for log replication
// systems (DARE, APUS — §1/§2), but each protocol grew its own single-shot
// propose() signature, config type, and transport/region plumbing. This
// header unifies them: an engine exposes
//
//   propose(slot, value) → Task<Decision>      (value, fast/slow path, time)
//
// for an open-ended space of slots, multiplexed over ONE base transport per
// replica (SlotTransportHub's slot-tag namespace) and ONE set of memories
// whose per-slot regions live in "s<slot>/..." namespaces (SlotRegions).
// Adapters exist for seven protocols: Paxos, Fast Paxos, Disk Paxos,
// Protected Memory Paxos, Aligned Paxos, Robust Backup(Paxos) and Fast &
// Robust. Cheap Quorum has none: it may abort, so alone it is not
// a consensus; it runs as Fast & Robust's fast path. smr::Log builds
// pipelined replication on top.
//
// Contract:
//  * propose(slot, v) resolves with the slot's decision (which may be
//    another proposer's value). Calling propose for an already-decided slot
//    at or above the retirement floor resolves immediately; below the floor
//    the decision is gone and propose never resolves.
//  * open_slot(slot) makes this replica participate passively (acceptor /
//    learner roles) without proposing; below the floor it is a no-op.
//    Message-routed engines discover and open slots automatically from
//    inbound traffic (each slot the hub hears a frame for); all-propose
//    engines (all_propose(): Robust Backup, Fast & Robust, whose traffic
//    runs through memories) require every correct replica to propose each
//    slot — smr::Log proposes that way under them.
//  * retire_below(floor) frees the consensus state of every slot below
//    `floor` (smr::Log retires a window behind its applied prefix, and
//    below an installed snapshot) and raises the floor; a retired slot
//    never reopens. Hub-routed engines free each instance once no propose
//    on it is in flight, with its reader coroutine and hub sub, and schedule
//    no event. Their deciders send each decision to every peer in one event,
//    over links that lose nothing between live processes, so an applied slot
//    still reaches every live replica; a retired acceptor's silence can
//    cost liveness, never agreement. The memory-backed ones also release
//    the freed slots to their SlotRegions pool, which destroys a slot's
//    regions on every memory once every live replica has released it. The
//    Byzantine engines keep every slot, and their regions.
//  * decisions() streams every locally decided slot exactly once, in local
//    decision order (slot order NOT guaranteed — that is the pipelining).
//    Single consumer.
//  * slot_horizon()/horizon_signal(): one past the highest slot this
//    replica knows of; grows on open/propose/inbound traffic. smr::Log's
//    leader hand-off re-proposes the open suffix [applied, horizon).
//
// Hot-path invariants preserved: engines add no per-message work beyond one
// slot-id frame (encoded into the same single broadcast buffer) and one
// indexed SlotWindow lookup; per-slot instance setup allocates, steady-state
// message flow does not.

#pragma once

#include <algorithm>
#include <coroutine>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/common.hpp"
#include "src/core/aligned_paxos.hpp"
#include "src/core/cheap_quorum.hpp"
#include "src/core/disk_paxos.hpp"
#include "src/core/fast_robust.hpp"
#include "src/core/omega.hpp"
#include "src/core/paxos.hpp"
#include "src/core/protected_memory_paxos.hpp"
#include "src/core/robust_backup.hpp"
#include "src/core/slot_hub.hpp"
#include "src/core/transport.hpp"
#include "src/crypto/signature.hpp"
#include "src/mem/memory.hpp"
#include "src/sim/channel.hpp"
#include "src/sim/executor.hpp"
#include "src/sim/sync.hpp"
#include "src/sim/task.hpp"
#include "src/util/slot_window.hpp"

namespace mnm::core {

/// What a slot decided: the value, whether the local process took a fast
/// (2-delay) path to it, and the virtual time of the local decision.
struct Decision {
  Bytes value;
  bool fast = false;
  sim::Time decided_at = 0;
};

struct SlotDecision {
  Slot slot = 0;
  Decision decision;
};

/// Per-slot memory-region namespace: "s<slot>/<base>". All of a slot's
/// region prefixes and register names live in it. Several engine instances
/// — e.g. one per KV shard, base kv::shard_ns(g) — share one set of memories
/// with disjoint namespaces by giving their pools different bases.
inline std::string slot_ns(Slot s, const std::string& base) {
  std::string out;
  out.reserve(base.size() + 22);
  out += 's';
  out += std::to_string(s);
  out += '/';
  out += base;
  return out;
}

/// Shared, lazily-populated slot → regions table. Slot s's regions live in
/// namespace ns(s) = slot_ns(s, base); `make(ns)` must create them there
/// identically (same order) on EVERY backing memory so region ids agree. It
/// runs exactly once per slot, on first touch by any replica's engine. One
/// SlotRegions instance is shared by all replicas of a group, its
/// `members`. An entry holds ids only: engines name a slot's registers from
/// ns(s).
///
/// Retirement: each member reports release(p, floor) once it has destroyed
/// its instances of every slot below `floor`, and a crashed member leaves
/// (it never steps again). Once a slot is below every remaining member's
/// floor, the pool hands its entry to `destroy`, which must destroy the
/// regions on every backing memory, and forgets it. get() below that floor
/// throws: a fresh, empty region for a decided slot could decide a
/// different value. Counting open instances instead would be unsafe, since
/// a lagging member may not have opened the slot yet. A pool without
/// `destroy` keeps every slot (the Byzantine engines' pools, whose members
/// never release).
template <typename Regions>
class SlotRegions {
 public:
  using MakeFn = std::function<Regions(const std::string& ns)>;
  using DestroyFn = std::function<void(const Regions&)>;

  SlotRegions(std::string base, MakeFn make, std::size_t members = 0,
              DestroyFn destroy = {})
      : base_(std::move(base)),
        make_(std::move(make)),
        destroy_(std::move(destroy)),
        floors_(members, 0) {}

  const Regions& get(Slot s) {
    if (s < cache_.floor()) {
      throw std::out_of_range("SlotRegions::get: slot " + std::to_string(s) +
                              " is retired");
    }
    return cache_.get_or_make(
        s, [&] { return std::make_unique<Regions>(make_(ns(s))); });
  }

  std::string ns(Slot s) const { return slot_ns(s, base_); }

  /// Member p has destroyed its instances of every slot below `floor`.
  void release(ProcessId p, Slot floor) {
    if (!destroy_) return;
    Slot& held = floors_.at(p - 1);
    held = std::max(held, floor);
    retire();
  }

  /// Member p crashed: it stops holding the floor. The last member to
  /// leave keeps it where it is.
  void leave(ProcessId p) { release(p, kLeft); }

  /// Slots below floor() are destroyed; held() entries remain above it.
  Slot floor() const { return cache_.floor(); }
  std::size_t held() const { return cache_.size(); }

 private:
  static constexpr Slot kLeft = ~Slot{0};

  void retire() {
    const Slot below = *std::min_element(floors_.begin(), floors_.end());
    if (below == kLeft) return;
    for (Slot s = cache_.floor(); s < std::min(below, cache_.end()); ++s) {
      if (const Regions* r = cache_.find(s)) destroy_(*r);
    }
    cache_.raise_floor(below);
  }

  std::string base_;
  MakeFn make_;
  DestroyFn destroy_;
  std::vector<Slot> floors_;  // index p - 1: what member p released
  util::SlotWindow<Regions> cache_;
};

class ConsensusEngine {
 public:
  explicit ConsensusEngine(sim::Executor& exec)
      : exec_(&exec), decisions_(exec), horizon_signal_(exec) {}
  ConsensusEngine(const ConsensusEngine&) = delete;
  ConsensusEngine& operator=(const ConsensusEngine&) = delete;
  virtual ~ConsensusEngine() = default;

  virtual ProcessId self() const = 0;

  /// True iff every correct replica must propose every slot (see the
  /// contract above): the NEB-stack engines.
  virtual bool all_propose() const { return false; }

  /// Spawn the engine's background loops (demux, discovery). Call exactly
  /// once before the first propose/open_slot.
  virtual void start() = 0;

  /// Ensure the slot's instance exists and participates passively.
  virtual void open_slot(Slot slot) = 0;

  /// Propose `value` for `slot`; resolves with the slot's decision.
  virtual sim::Task<Decision> propose(Slot slot, Bytes value) = 0;

  /// Free the consensus state of every slot below `floor` (see the
  /// contract above). A floor at or below the current one changes nothing.
  virtual void retire_below(Slot) {}

  /// Per-slot state this replica holds: live protocol instances, and the
  /// slot-hub subs of hub-routed engines.
  virtual std::size_t instances_held() const { return 0; }
  virtual std::size_t subs_held() const { return 0; }

  /// Locally decided slots, exactly once each, in local decision order.
  sim::Channel<SlotDecision>& decisions() { return decisions_; }

  /// The replica-to-replica control channel (snapshot catch-up requests and
  /// responses), or nullptr when the engine has no message path for it.
  /// Hub-routed engines expose the hub's reserved control frame; memory-
  /// routed Byzantine engines (Robust Backup, Fast & Robust) return
  /// nullptr — replica recovery is not supported on those backends.
  virtual Transport* control_transport() { return nullptr; }

  /// T-send decode accounting summed over this replica's slot stacks — the
  /// suffix-only-decode counters the harness RunReport surfaces. Zeros for
  /// engines without a trusted transport.
  virtual trusted::TsendStats tsend_stats() const { return {}; }

  /// One past the highest slot this replica knows of.
  Slot slot_horizon() const { return horizon_; }
  sim::VersionSignal& horizon_signal() { return horizon_signal_; }

 protected:
  void note_slot(Slot s) {
    if (s + 1 > horizon_) {
      horizon_ = s + 1;
      horizon_signal_.bump();
    }
  }

  void push_decision(Slot s, Decision d) {
    decisions_.send(SlotDecision{s, std::move(d)});
  }

  sim::Executor* exec_;
  sim::Channel<SlotDecision> decisions_;
  sim::VersionSignal horizon_signal_;
  Slot horizon_ = 0;
};

// ---------------------------------------------------------------------------
// Hub-routed engines (Paxos / Fast Paxos / Disk Paxos / PMP / Aligned) —
// per-slot protocol instances over the slot hub, differing only in their
// instance type. Every instance type exposes start(), propose(Bytes) and the
// DecisionLatch surface.
// ---------------------------------------------------------------------------

template <typename Inst>
class HubEngine : public ConsensusEngine {
 public:
  /// Message-only instances: Paxos, and Fast Paxos with
  /// config.leader_terms — slot s's instance runs under the group's
  /// PaxosTerm, whose frames ride the hub's term channel, so every stable
  /// leader decides in 2 delays.
  HubEngine(sim::Executor& exec, Transport& base, Omega& omega,
            PaxosConfig config)
      : HubEngine(exec, base,
                  [this, &exec, &omega, config](Slot s, Transport& t) {
                    return std::make_unique<Inst>(exec, t, omega, config,
                                                  term_.get(), s);
                  }) {
    if (config.leader_terms) {
      term_ = std::make_unique<PaxosTerm>(
          exec, hub_.self(), &hub_.term(), omega, config,
          [this](Slot from, const auto& visit) {
            for (Slot s = std::max(from, slots_.floor()); s < slots_.end();
                 ++s) {
              const Open* open = slots_.find(s);
              if (open != nullptr && !visit(s, *open->inst)) return;
            }
          });
      hub_.on_term(
          [this](const TMsg& m) { term_->receive(m.src, m.payload); });
    }
  }

  /// Memory-backed instances (Disk Paxos, PMP, Aligned Paxos): slot s runs
  /// in region `regions->get(s)` of namespace regions->ns(s), which the pool
  /// creates with make_disk_region (Disk Paxos) or make_pmp_region (PMP and
  /// Aligned) on every backing memory. The engine releases each slot it
  /// retires to the pool.
  HubEngine(sim::Executor& exec, std::vector<mem::MemoryIface*> memories,
            Transport& base, Omega& omega,
            std::shared_ptr<SlotRegions<RegionId>> regions)
      : HubEngine(exec, base,
                  [&exec, &omega, memories = std::move(memories),
                   regions](Slot s, Transport& t) {
                    return std::make_unique<Inst>(
                        exec, memories, DiskRegion{regions->get(s),
                                                   regions->ns(s)},
                        t, omega);
                  }) {
    regions_ = std::move(regions);
  }

  ProcessId self() const override { return hub_.self(); }

  void start() override {
    hub_.start();
    exec_->spawn(discover_loop());
  }

  void open_slot(Slot slot) override {
    if (slot < floor_ || slots_.find(slot) != nullptr) return;
    slots_.get_or_make(slot, [&] {
      auto open = std::make_unique<Open>();
      open->inst = make_(slot, hub_.slot(slot));
      open->inst->start();
      exec_->spawn(watch_decision(slot, open->inst.get()), open->watcher);
      return open;
    });
    note_slot(slot);
  }

  sim::Task<Decision> propose(Slot slot, Bytes value) override {
    if (slot < floor_) {
      // Retired: the decision is gone, and the log applied the slot.
      co_await std::suspend_always{};
    }
    open_slot(slot);
    Open& open = *slots_.find(slot);
    ++open.proposing;
    const Bytes decided = co_await open.inst->propose(std::move(value));
    const Decision d{decided, open.inst->decided_fast(),
                     open.inst->decided_at()};
    if (--open.proposing == 0 && slot < floor_) release_retired();
    co_return d;
  }

  void retire_below(Slot floor) override {
    if (floor <= floor_) return;
    floor_ = floor;
    if (term_ != nullptr) term_->retire_below(floor);
    release_retired();
  }

  std::size_t instances_held() const override { return slots_.size(); }
  std::size_t subs_held() const override { return hub_.subs_held(); }

  Transport* control_transport() override { return &hub_.control(); }

  /// The group's leader term (Fast Paxos), or nullptr.
  const PaxosTerm* term() const { return term_.get(); }

 private:
  /// Builds the slot's protocol instance over its sub-transport.
  using MakeInstanceFn =
      std::function<std::unique_ptr<Inst>(Slot, Transport&)>;

  /// One open slot: its instance, the watcher that streams its decision,
  /// and the propose() calls running on it (a retired slot waits for them).
  struct Open {
    std::unique_ptr<Inst> inst;
    sim::OwnedRoot watcher;
    std::size_t proposing = 0;
  };

  HubEngine(sim::Executor& exec, Transport& base, MakeInstanceFn make)
      : ConsensusEngine(exec), hub_(exec, base), make_(std::move(make)) {}

  /// Pushes slot s's decision into decisions() exactly once, whether it
  /// came from our own propose or from a learned DECIDE.
  sim::Task<void> watch_decision(Slot s, Inst* inst) {
    co_await inst->decision_gate().wait();
    push_decision(
        s, Decision{inst->decision(), inst->decided_fast(), inst->decided_at()});
  }

  /// Follower-side slot discovery: open each slot the hub heard a frame
  /// for, in slot order, whenever its first frame arrived (a late frame
  /// below the horizon included). Slots nobody sent for stay unopened.
  sim::Task<void> discover_loop() {
    std::vector<Slot> heard;
    while (true) {
      const std::uint64_t seen = hub_.heard().version();
      hub_.take_heard(heard);
      for (const Slot s : heard) open_slot(s);
      sim::Select sel(*exec_);
      sel.on(hub_.heard(), seen);
      (void)co_await sel;
    }
  }

  /// Destroy every retired instance no propose() is running on, then let
  /// the table and the hub drop everything below the lowest one left.
  void release_retired() {
    Slot held = floor_;
    const Slot end = std::min(floor_, slots_.end());
    for (Slot s = slots_.floor(); s < end; ++s) {
      const Open* open = slots_.find(s);
      if (open == nullptr) continue;
      if (open->proposing > 0) {
        held = std::min(held, s);
      } else {
        slots_.erase(s);
      }
    }
    slots_.raise_floor(held);
    hub_.retire_below(held);
    if (regions_ != nullptr) regions_->release(self(), held);
  }

  SlotTransportHub hub_;
  MakeInstanceFn make_;
  std::shared_ptr<SlotRegions<RegionId>> regions_;  // memory-backed only
  std::unique_ptr<PaxosTerm> term_;  // the instances point at it
  util::SlotWindow<Open> slots_;
  Slot floor_ = 0;  // retire_below's floor; slots_ may lag it (see Open)
};

using PaxosEngine = HubEngine<Paxos>;
using DiskPaxosEngine = HubEngine<DiskPaxos>;
using PmpEngine = HubEngine<ProtectedMemoryPaxos>;
using AlignedEngine = HubEngine<AlignedPaxos>;

// ---------------------------------------------------------------------------
// Byzantine-model engines (Robust Backup / Fast & Robust) — all traffic runs
// through the memories; every correct replica must propose each slot.
// ---------------------------------------------------------------------------

/// One slot's NEB regions, in a write scope of their own: ids only, as a
/// slot pool caches them.
struct NebSlotRegions {
  std::map<ProcessId, RegionId> neb;
  mem::ScopeId neb_scope = mem::kDefaultScope;
  bool operator==(const NebSlotRegions&) const = default;

  /// The regions, named in the slot's namespace `ns`.
  NebRegions neb_regions(std::string ns) const {
    return {std::move(ns), neb, neb_scope};
  }
};

/// Create a slot's NEB regions in namespace `ns` on one memory, in a fresh
/// write scope. Call it on every backing memory in the same order, so region
/// and scope ids agree across them.
template <typename MemoryT>
NebSlotRegions make_neb_slot_regions(MemoryT& memory, std::size_t n,
                                     const std::string& ns) {
  NebRegions r = make_neb_regions(memory, n, ns, memory.new_scope());
  return {std::move(r.per_process), r.scope};
}

/// Per-slot regions of a Fast & Robust slot, ids only: Cheap Quorum's plus
/// NEB's, each set in a write scope of its own.
struct FastRobustSlotRegions : NebSlotRegions {
  ProcessId cq_leader = kLeaderP1;
  RegionId cq_leader_region = 0;
  std::map<ProcessId, RegionId> cq;
  mem::ScopeId cq_scope = mem::kDefaultScope;
  bool operator==(const FastRobustSlotRegions&) const = default;

  /// Cheap Quorum's regions, named in the slot's namespace `ns`.
  CheapQuorumRegions cq_regions(std::string ns) const {
    return {std::move(ns), cq_leader, cq_leader_region, cq, cq_scope};
  }
};

/// Create a Fast & Robust slot's regions in namespace `ns` on one memory:
/// Cheap Quorum's, led by p1, in one fresh write scope, then NEB's in
/// another (see make_neb_slot_regions).
template <typename MemoryT>
FastRobustSlotRegions make_fast_robust_slot_regions(MemoryT& memory,
                                                    std::size_t n,
                                                    const std::string& ns) {
  CheapQuorumRegions cq =
      make_cq_regions(memory, n, kLeaderP1, ns, memory.new_scope());
  return {make_neb_slot_regions(memory, n, ns), cq.leader_process, cq.leader,
          std::move(cq.per_process), cq.scope};
}

/// A slot stack's propose result as the engine's Decision: Fast & Robust
/// reports its own path and time, Robust Backup its Paxos instance's.
inline Decision decision_of(FastRobustOutcome out, const FastRobustProcess&) {
  return Decision{std::move(out.value), out.fast, out.decided_at};
}
inline Decision decision_of(Bytes value, RobustBackup& rb) {
  return Decision{std::move(value), rb.paxos().decided_fast(),
                  rb.paxos().decided_at()};
}

/// NEB-backed engines (Robust Backup / Fast & Robust): one stack per slot —
/// NEB slots over the slot's regions, in the pool's namespace for the slot,
/// and the protocol process over them — differing only in how the process
/// is made. Every process type exposes start(), propose(Bytes) and
/// tsend_stats(), and has a decision_of overload.
template <typename Process, typename Regions>
class NebStackEngine : public ConsensusEngine {
 public:
  /// Builds the slot's protocol process over its regions, named in `ns`,
  /// and its NEB slots.
  using MakeProcessFn = std::function<std::unique_ptr<Process>(
      const std::string& ns, const Regions&, NebSlots&)>;

  NebStackEngine(sim::Executor& exec, std::vector<mem::MemoryIface*> memories,
                 std::shared_ptr<SlotRegions<Regions>> regions,
                 ProcessId self, MakeProcessFn make)
      : ConsensusEngine(exec),
        memories_(std::move(memories)),
        regions_(std::move(regions)),
        self_(self),
        make_(std::move(make)) {}

  ProcessId self() const override { return self_; }
  bool all_propose() const override { return true; }
  void start() override {}

  void open_slot(Slot slot) override {
    if (slots_.contains(slot)) return;
    const Regions& r = regions_->get(slot);
    const std::string ns = regions_->ns(slot);
    Stack stack;
    stack.neb_slots =
        std::make_unique<NebSlots>(*exec_, memories_, r.neb_regions(ns));
    stack.process = make_(ns, r, *stack.neb_slots);
    stack.process->start();
    slots_.emplace(slot, std::move(stack));
    note_slot(slot);
  }

  sim::Task<Decision> propose(Slot slot, Bytes value) override {
    open_slot(slot);
    Process* inst = slots_.at(slot).process.get();
    Decision d = decision_of(co_await inst->propose(std::move(value)), *inst);
    push_decision(slot, d);
    co_return d;
  }

  trusted::TsendStats tsend_stats() const override {
    trusted::TsendStats out;
    for (const auto& [slot, stack] : slots_) out += stack.process->tsend_stats();
    return out;
  }

  std::size_t instances_held() const override { return slots_.size(); }

 private:
  struct Stack {
    std::unique_ptr<NebSlots> neb_slots;
    std::unique_ptr<Process> process;
  };

  std::vector<mem::MemoryIface*> memories_;
  std::shared_ptr<SlotRegions<Regions>> regions_;
  ProcessId self_;
  MakeProcessFn make_;
  std::map<Slot, Stack> slots_;
};

/// Robust Backup(Paxos) per slot (§4.1): the slow-path-only Byzantine
/// consensus, Paxos over T-send.
class RobustBackupEngine : public NebStackEngine<RobustBackup, NebSlotRegions> {
 public:
  /// `regions` must create make_neb_slot_regions(m, n, ns) on every backing
  /// memory.
  RobustBackupEngine(sim::Executor& exec,
                     std::vector<mem::MemoryIface*> memories,
                     std::shared_ptr<SlotRegions<NebSlotRegions>> regions,
                     const crypto::KeyStore& keystore, crypto::Signer signer,
                     Omega& omega, RobustBackupConfig config)
      : NebStackEngine(
            exec, std::move(memories), std::move(regions), signer.id(),
            [&exec, &keystore, signer, &omega, config](
                const std::string&, const NebSlotRegions&, NebSlots& neb) {
              return std::make_unique<RobustBackup>(exec, neb, keystore,
                                                    signer, omega, config);
            }) {}
};

/// Fast & Robust per slot (§4.3): Cheap Quorum, with Preferential Paxos over
/// Robust Backup as the backup path. A fast decision streams at once; the
/// slot's backup stack is built only when someone panics.
class FastRobustEngine
    : public NebStackEngine<FastRobustProcess, FastRobustSlotRegions> {
 public:
  /// `regions` must create make_fast_robust_slot_regions(m, n, ns) on every
  /// backing memory.
  FastRobustEngine(sim::Executor& exec,
                   std::vector<mem::MemoryIface*> memories,
                   std::shared_ptr<SlotRegions<FastRobustSlotRegions>> regions,
                   const crypto::KeyStore& keystore, crypto::Signer signer,
                   Omega& omega, FastRobustConfig config)
      : NebStackEngine(
            exec, std::move(memories), std::move(regions), signer.id(),
            [&exec, &keystore, signer, &omega, config](
                const std::string& ns, const FastRobustSlotRegions& r,
                NebSlots& neb) {
              return std::make_unique<FastRobustProcess>(
                  exec, neb.memories(), r.cq_regions(ns), neb, keystore,
                  signer, omega, config);
            }) {}
};

}  // namespace mnm::core
