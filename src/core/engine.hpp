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
// whose per-slot regions live under "s<slot>/..." name prefixes
// (SlotRegions). Adapters exist for seven protocols: Paxos, Fast Paxos,
// Disk Paxos, Protected Memory Paxos, Aligned Paxos, Robust Backup(Paxos)
// and Fast & Robust. Cheap Quorum has none: it may abort, so alone it is not
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
//    engines (Robust Backup, Fast & Robust, whose traffic runs through
//    memories) require every correct replica to propose each slot —
//    smr::Log's all_propose mode does exactly that.
//  * retire_below(floor) frees the consensus state of every slot below
//    `floor` (smr::Log calls it once a snapshot covers those slots) and
//    raises the floor; a retired slot never reopens, whatever arrives for
//    it. Hub-routed engines free each instance once no propose on it is in
//    flight, with its reader coroutine and hub sub. Retirement schedules no
//    executor event. The Byzantine engines keep every slot (a no-op).
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

/// Per-slot memory-region namespace: "s<slot>/<base>". All per-slot
/// register names and region prefixes live under it. Memory-backed engines
/// take `base` as their config's prefix (default "dp"/"pmp") or as a
/// constructor parameter (default "cq"/"neb") so several engine instances —
/// e.g. one per KV shard, base kv::shard_ns(g, ...) — can share one set of
/// memories with disjoint region namespaces.
inline std::string slot_ns(Slot s, const std::string& base) {
  std::string out;
  out.reserve(base.size() + 22);
  out += 's';
  out += std::to_string(s);
  out += '/';
  out += base;
  return out;
}

/// Shared, lazily-populated slot → regions table. `make(slot)` must create
/// the slot's regions identically (same order) on EVERY backing memory so
/// region ids agree; it runs exactly once per slot, on first touch by any
/// replica's engine. One SlotRegions instance is shared by all replicas of
/// a cluster.
template <typename Regions>
class SlotRegions {
 public:
  explicit SlotRegions(std::function<Regions(Slot)> make)
      : make_(std::move(make)) {}

  const Regions& get(Slot s) {
    auto it = cache_.find(s);
    if (it == cache_.end()) it = cache_.emplace(s, make_(s)).first;
    return it->second;
  }

 private:
  std::function<Regions(Slot)> make_;
  std::map<Slot, Regions> cache_;
};

class ConsensusEngine {
 public:
  explicit ConsensusEngine(sim::Executor& exec)
      : exec_(&exec), decisions_(exec), horizon_signal_(exec) {}
  ConsensusEngine(const ConsensusEngine&) = delete;
  ConsensusEngine& operator=(const ConsensusEngine&) = delete;
  virtual ~ConsensusEngine() = default;

  virtual ProcessId self() const = 0;
  virtual std::size_t process_count() const = 0;

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
  template <typename Config>
  HubEngine(sim::Executor& exec, Transport& base, Omega& omega, Config config)
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
  /// in `regions->get(s)` under register prefix slot_ns(s, config.prefix).
  /// `regions->get(s)` must create that prefix's region (make_disk_region,
  /// or make_pmp_region for PMP and Aligned) on every backing memory.
  template <typename Config>
  HubEngine(sim::Executor& exec, std::vector<mem::MemoryIface*> memories,
            Transport& base, Omega& omega,
            std::shared_ptr<SlotRegions<RegionId>> regions, Config config)
      : HubEngine(exec, base,
                  [&exec, &omega, memories = std::move(memories),
                   regions = std::move(regions),
                   config = std::move(config)](Slot s, Transport& t) {
                    Config c = config;
                    c.prefix = slot_ns(s, config.prefix);
                    return std::make_unique<Inst>(exec, memories,
                                                  regions->get(s), t, omega,
                                                  std::move(c));
                  }) {}

  ProcessId self() const override { return hub_.self(); }
  std::size_t process_count() const override { return hub_.process_count(); }

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
      // Retired: the decision is gone, and a snapshot covers the slot.
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
  }

  SlotTransportHub hub_;
  MakeInstanceFn make_;
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

/// One slot's NEB regions, in a write scope of their own.
struct NebSlotRegions {
  std::map<ProcessId, RegionId> neb;
  mem::ScopeId neb_scope = mem::kDefaultScope;
};

/// Create slot `s`'s NEB regions on one memory, in a fresh write scope.
/// Call it on every backing memory in the same order, so region and scope
/// ids agree across them.
template <typename MemoryT>
NebSlotRegions make_neb_slot_regions(MemoryT& memory, std::size_t n, Slot s,
                                     const std::string& neb_ns = "neb") {
  NebSlotRegions out;
  out.neb_scope = memory.new_scope();
  out.neb = make_neb_regions(memory, n, slot_ns(s, neb_ns), out.neb_scope);
  return out;
}

/// Per-slot regions of a Fast & Robust slot: Cheap Quorum's plus NEB's,
/// each set in a write scope of its own.
struct FastRobustSlotRegions : NebSlotRegions {
  CheapQuorumRegions cq;
};

/// Create slot `s`'s Fast & Robust regions on one memory: Cheap Quorum's in
/// one fresh write scope, then NEB's in another (see make_neb_slot_regions).
template <typename MemoryT>
FastRobustSlotRegions make_fast_robust_slot_regions(
    MemoryT& memory, std::size_t n, Slot s, const std::string& cq_ns = "cq",
    const std::string& neb_ns = "neb") {
  CheapQuorumRegions cq = make_cq_regions(memory, n, kLeaderP1,
                                          slot_ns(s, cq_ns), memory.new_scope());
  return {make_neb_slot_regions(memory, n, s, neb_ns), std::move(cq)};
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
/// NEB slots over the slot's regions, under slot_ns(s, neb_ns), and the
/// protocol process over them — differing only in how the process is made.
/// Every process type exposes start(), propose(Bytes) and tsend_stats(), and
/// has a decision_of overload.
template <typename Process, typename Regions>
class NebStackEngine : public ConsensusEngine {
 public:
  /// Builds the slot's protocol process over its regions and NEB slots.
  using MakeProcessFn =
      std::function<std::unique_ptr<Process>(Slot, const Regions&, NebSlots&)>;

  NebStackEngine(sim::Executor& exec, std::vector<mem::MemoryIface*> memories,
                 std::shared_ptr<SlotRegions<Regions>> regions,
                 ProcessId self, std::size_t n, std::string neb_ns,
                 MakeProcessFn make)
      : ConsensusEngine(exec),
        memories_(std::move(memories)),
        regions_(std::move(regions)),
        self_(self),
        n_(n),
        neb_ns_(std::move(neb_ns)),
        make_(std::move(make)) {}

  ProcessId self() const override { return self_; }
  std::size_t process_count() const override { return n_; }
  void start() override {}

  void open_slot(Slot slot) override {
    if (slots_.contains(slot)) return;
    const Regions& r = regions_->get(slot);
    Stack stack;
    stack.neb_slots = std::make_unique<NebSlots>(
        *exec_, memories_, r.neb, slot_ns(slot, neb_ns_), r.neb_scope);
    stack.process = make_(slot, r, *stack.neb_slots);
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
  std::size_t n_;
  std::string neb_ns_;
  MakeProcessFn make_;
  std::map<Slot, Stack> slots_;
};

/// Robust Backup(Paxos) per slot (§4.1): the slow-path-only Byzantine
/// consensus, Paxos over T-send.
class RobustBackupEngine : public NebStackEngine<RobustBackup, NebSlotRegions> {
 public:
  /// `regions->get(s)` must create make_neb_slot_regions(m, n, s, neb_ns) on
  /// every backing memory.
  RobustBackupEngine(sim::Executor& exec,
                     std::vector<mem::MemoryIface*> memories,
                     std::shared_ptr<SlotRegions<NebSlotRegions>> regions,
                     const crypto::KeyStore& keystore, crypto::Signer signer,
                     Omega& omega, RobustBackupConfig config,
                     std::string neb_ns = "neb")
      : NebStackEngine(
            exec, std::move(memories), std::move(regions), signer.id(),
            config.n, std::move(neb_ns),
            [&exec, &keystore, signer, &omega, config](
                Slot, const NebSlotRegions&, NebSlots& neb) {
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
  /// `regions->get(s)` must create make_fast_robust_slot_regions(m, n, s,
  /// cq_ns, neb_ns) on every backing memory.
  FastRobustEngine(sim::Executor& exec,
                   std::vector<mem::MemoryIface*> memories,
                   std::shared_ptr<SlotRegions<FastRobustSlotRegions>> regions,
                   const crypto::KeyStore& keystore, crypto::Signer signer,
                   Omega& omega, FastRobustConfig config,
                   std::string cq_ns = "cq", std::string neb_ns = "neb")
      : NebStackEngine(
            exec, std::move(memories), std::move(regions), signer.id(),
            config.n, std::move(neb_ns),
            [&exec, &keystore, signer, &omega, config,
             cq_ns = std::move(cq_ns)](Slot s, const FastRobustSlotRegions& r,
                                       NebSlots& neb) {
              FastRobustConfig c = config;
              c.cheap.prefix = slot_ns(s, cq_ns);
              return std::make_unique<FastRobustProcess>(
                  exec, neb.memories(), r.cq, neb, keystore, signer, omega,
                  std::move(c));
            }) {}
};

}  // namespace mnm::core
