// smr::Log — pipelined multi-slot replication over a core::ConsensusEngine.
//
// The layer the paper's systems motivation (§1/§2: DARE, APUS) actually
// needs: a log where up to `window` slots are in flight concurrently, each
// an independent consensus instance behind the engine, with decisions
// applied to the state machine strictly in slot order no matter what order
// they commit in. One Log per replica; all replicas of a cluster share one
// engine *kind* over one transport/memory set.
//
// Two proposal modes:
//
//  * Leader-driven (default, crash-model engines): only the Ω-trusted
//    replica assigns slots, pulling queued batch payloads and keeping
//    `window` slots open past the applied prefix. Followers participate
//    passively (the engine's discovery loop opens slots heard on the wire)
//    and apply from the engine's decision stream. Leader hand-off is
//    notification-driven: when Ω changes (Omega::poke), the new leader
//    re-proposes every open slot in [applied, horizon) — adopting whatever
//    a quorum already accepted, per the engine's protocol — and takes over
//    fresh assignment from the horizon. A queued payload that loses its
//    slot to an older leader's value is re-queued at the front, so enqueued
//    batches commit unless their replica dies.
//
//  * All-propose (engines whose all_propose() is true, the Byzantine-model
//    ones): every correct replica proposes each queued payload for the next
//    slot, window-paced; callers feed every correct replica the same
//    payloads in the same order (the harness submits one workload per
//    replica, kv::Router fans each payload out in one tick), so every
//    replica proposes every slot. This is the mode Fast & Robust / Cheap
//    Quorum require, since their traffic runs through memories and passive
//    replicas could never be heard.
//
// All waits are event-driven (sim::Select over the pending/applied/Ω/
// horizon signals, snapshot-before-check); an idle log costs zero events.

#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <vector>

#include "src/common.hpp"
#include "src/core/engine.hpp"
#include "src/core/omega.hpp"
#include "src/sim/executor.hpp"
#include "src/sim/sync.hpp"
#include "src/sim/task.hpp"
#include "src/smr/catchup.hpp"

namespace mnm::smr {

/// In-order command sink. `apply` runs exactly once per command, in slot
/// order (and submission order within a slot's batch), on every correct
/// replica — the replicated-state-machine contract.
class StateMachine {
 public:
  virtual ~StateMachine() = default;
  virtual void apply(Slot slot, util::ByteView command) = 0;

  /// Recovery hooks, optional. snapshot() returns a self-contained,
  /// deterministic encoding of the machine's full state; empty means
  /// "snapshots unsupported", which disables log compaction (the Log never
  /// truncates state it could not rebuild a peer from). restore() replaces
  /// the state from a snapshot; it must be total — false (state untouched)
  /// on malformed or digest-mismatched input, never a throw — because the
  /// bytes arrive over the catch-up wire from an unverified peer.
  virtual Bytes snapshot() const { return {}; }
  virtual bool restore(util::ByteView) { return false; }

  /// Partial-state drain hook (reconfiguration): `request` is an opaque,
  /// machine-defined range descriptor; the reply is a self-validating
  /// encoding of the requested slice, or empty when this machine cannot
  /// serve it (yet). The Log stays agnostic of the bytes: Log::fetch_range
  /// re-asks after every apply until the reply is usable.
  virtual Bytes export_range(util::ByteView) const { return {}; }
};

/// Slot payload codec: a batch of commands (u32 count + length-prefixed
/// commands). The empty batch is the no-op filler; undecodable bytes (a
/// Byzantine proposer can win a slot with garbage) apply as zero commands,
/// identically on every correct replica.
Bytes encode_batch(const std::vector<Bytes>& commands);
std::vector<Bytes> decode_batch(util::ByteView raw);

/// Validation rule (applied at Log construction, documented once here):
/// `window` is clamped into [1, kMaxWindow] — a window of 0 can make no
/// progress and silently stalled before this rule existed. A window wider
/// than the queued work is simply never filled.
inline constexpr std::size_t kMaxWindow = 1 << 16;

/// The cap on a silent catch-up round, in executor time: a round ends at
/// its first usable answer and waits this long only for a round nobody
/// answers.
inline constexpr sim::Time kCatchupTimeout = 8;

struct LogConfig {
  /// Max slots between the first unapplied slot and the newest assignment.
  /// The engine's slots retire a window behind the applied prefix.
  std::size_t window = 8;
  /// Snapshot the state machine every `snapshot_interval` applied slots and
  /// compact the log below the snapshot slot (0 = never, the default). With
  /// an interval set the Log also retains applied decision payloads above
  /// the snapshot slot and serves them (plus the snapshot) to catching-up
  /// peers over the engine's control transport. Installing a peer's
  /// snapshot retires the engine's slots below it.
  Slot snapshot_interval = 0;
  /// Start in recovery: hold fresh proposals and catch up from a peer's
  /// snapshot + log suffix first (requires an engine with a control
  /// transport). The hold lifts at the first answered round whose answers
  /// were complete and left no decision stashed, or after four silent
  /// rounds. The rejoin path of a restarted replica.
  bool recover = false;
};

/// Every slot this replica applied from a decision, folded once at apply.
/// Slots installed by catch-up carry no decision metadata and fold nothing.
struct SlotStats {
  std::uint64_t commands = 0;    // commands applied from decided slots
  std::uint64_t noop_slots = 0;  // decided batch was empty / undecodable
  std::uint64_t fast_slots = 0;  // local decision took the engine's fast path
  sim::Time last_apply_at = 0;
  /// Local decision time of slot 0 (infinity until slot 0 applies here
  /// from a decision).
  sim::Time first_decided_at = sim::kTimeInfinity;
  /// Window occupancy over the slots this replica launched: open slots right
  /// after each launch / the window, summed — ratio-of-sums is the mean
  /// occupancy, and the integers fingerprint exactly.
  std::uint64_t occupancy_slots = 0;
  std::uint64_t occupancy_limit = 0;
  /// Latency samples, unsorted (percentiles cannot be folded into scalars):
  /// enqueue → local decide of every non-noop slot this replica launched and
  /// won, and enqueue → propose of every non-noop slot it launched.
  std::vector<sim::Time> won_latencies;
  std::vector<sim::Time> queue_waits;

  bool operator==(const SlotStats&) const = default;
};

class Log {
 public:
  Log(sim::Executor& exec, core::ConsensusEngine& engine, core::Omega& omega,
      StateMachine& sm, LogConfig config);

  /// Spawn the apply loop and the proposal pump. Call exactly once, after
  /// engine.start().
  void start();

  /// Queue a group of raw commands for one slot; it is encoded here, once,
  /// into the slot payload every proposal of it carries.
  void enqueue_commands(std::vector<Bytes> commands);

  /// Every correct replica proposes every slot: the engine's all_propose().
  bool all_propose() const { return engine_->all_propose(); }
  /// Slots applied to the state machine (the contiguous prefix).
  Slot applied_len() const { return applied_len_; }
  /// Nothing queued, nothing decided-but-unapplied, every slot this replica
  /// proposed is applied.
  bool quiescent() const {
    return pending_.empty() && stash_.empty() && applied_len_ >= next_slot_;
  }
  /// The fold of every slot applied so far; compaction does not touch it.
  const SlotStats& stats() const { return stats_; }
  /// Proposer records held: one per slot from [applied_len(), newest
  /// launch], so at most the window (plus a hand-off's adopted suffix), and
  /// none at quiescence or on a replica that never launches.
  std::size_t launches_held() const { return launches_.size(); }

  /// True while the recovery hold is on: the log is catching up from a
  /// peer and pump_leader does not assign fresh slots yet.
  bool recovering() const { return recovering_; }

  /// Stop proposing and serving: pump loops exit at their next wakeup and
  /// the control loop stops answering. For quarantining a superseded
  /// incarnation of a replica whose coroutines the executor still owns —
  /// loops blocked on a channel recv stay suspended but inert.
  void halt();

  /// Fetch a machine-defined range slice from this replica's machine
  /// (reconfiguration drain): returns StateMachine::export_range(request)
  /// once it is non-empty and `valid` accepts it, re-asking after every
  /// apply (a catch-up install included). Sends nothing. Returns empty
  /// only if this log halts first.
  sim::Task<Bytes> fetch_range(Bytes request,
                               std::function<bool(util::ByteView)> valid);

  std::uint64_t snapshots_taken() const { return snapshots_taken_; }
  std::uint64_t snapshots_installed() const { return snapshots_installed_; }
  std::uint64_t slots_truncated() const { return slots_truncated_; }
  std::uint64_t catchup_bytes() const { return catchup_bytes_; }
  std::uint64_t catchup_rejected() const { return catchup_rejected_; }

 private:
  struct Pending {
    Bytes payload;  // the encoded batch; empty for a no-op filler
    sim::Time enqueued_at = 0;
  };
  /// Proposer-side record of one slot, held from launch to apply.
  struct Launch {
    bool launched = false;       // false: a gap below a later launch
    bool won = false;            // our payload was decided (drive saw it)
    sim::Time enqueued_at = 0;
    sim::Time proposed_at = 0;
    /// Open slots right after this launch — the occupancy SlotStats reads.
    std::size_t in_flight = 0;
  };

  sim::Task<void> apply_loop();
  sim::Task<void> pump_leader();
  sim::Task<void> pump_all();
  /// One slot proposal; on loss (another value decided) re-queues the
  /// group at the front when `retry`.
  sim::Task<void> drive(Slot slot, Pending group, bool retry);
  /// Demux of the engine's control transport: answers catch-up requests
  /// (when this log retains state to serve) and installs responses (when
  /// recovering or gap-repairing).
  sim::Task<void> control_loop();
  /// Recovery driver: broadcasts a catch-up request and waits for the first
  /// answer (at most kCatchupTimeout). An answered round that leaves the
  /// log incomplete — a capped or rejected answer, or a stashed decision
  /// past a gap — asks again at once; a complete one lifts the hold, as do
  /// four silent rounds. It then keeps watch for stalled gaps (slots
  /// decided before this replica rejoined never re-broadcast their DECIDE —
  /// only a re-request fills them).
  sim::Task<void> catchup_driver();

  /// The proposer record of unapplied slot `s` (created on first touch).
  Launch& launch_record(Slot s);
  /// Drop the proposer record of slot applied_len_, which is leaving the
  /// window, closing its window seat if it was launched here.
  Launch retire_launch();
  Pending take_pending_or_noop();
  void requeue_front(Pending group);
  void launch(Slot slot, Pending p, bool retry);
  void apply_slot(Slot slot, const core::Decision& d);
  /// Count one more applied slot: retire the engine's slots a window
  /// behind it, then snapshot + compact when the interval says so.
  void advance();
  /// Drop retained payloads and stash entries below `s`.
  void compact_below(Slot s);
  void serve_catchup(ProcessId dst, Slot from);
  void install_catchup(const CatchupResponse& resp, std::size_t wire_bytes);
  /// Apply one caught-up slot payload (no decision metadata, no fold).
  void install_slot(Slot s, const Bytes& payload);
  void drain_stash();

  sim::Executor* exec_;
  core::ConsensusEngine* engine_;
  core::Omega* omega_;
  StateMachine* sm_;
  LogConfig config_;

  std::deque<Pending> pending_;
  sim::VersionSignal pending_signal_;
  std::map<Slot, core::Decision> stash_;  // decided, awaiting in-order apply
  sim::VersionSignal stash_signal_;       // bumps on stash insert (gap watch)
  std::deque<Launch> launches_;  // launches_[i] describes slot applied_len_ + i
  SlotStats stats_;
  Slot applied_len_ = 0;
  Slot next_slot_ = 0;
  std::size_t open_slots_ = 0;  // launched here, not yet applied
  sim::VersionSignal applied_signal_;
  bool started_ = false;

  // Recovery / compaction state. retained_ holds applied decision payloads
  // for slots [snapshot_slot_, applied_len_) — the suffix a peer can catch
  // up from — and only when snapshot_interval > 0.
  std::map<Slot, Bytes> retained_;
  Bytes snapshot_;        // latest state-machine snapshot (ours or installed)
  Slot snapshot_slot_ = 0;  // slots covered by snapshot_
  bool recovering_ = false;
  sim::VersionSignal recovering_signal_;
  bool halted_ = false;
  // Bumps on every catch-up response (and on halt): a round waits on it.
  sim::VersionSignal response_signal_;
  // False once a response of the current round was capped at
  // kMaxCatchupSlots or carried a snapshot the machine rejected.
  bool answers_complete_ = true;
  std::uint64_t snapshots_taken_ = 0;
  std::uint64_t snapshots_installed_ = 0;
  std::uint64_t slots_truncated_ = 0;
  // Compaction counts slots from truncated_upto_ to each snapshot slot. A
  // catch-up install into a log holding no slot of its own above that point
  // (none applied from a decision or launched here since) slides it past
  // the installed prefix, so caught-up slots never count as truncated.
  Slot truncated_upto_ = 0;
  bool own_above_truncation_ = false;
  std::uint64_t catchup_bytes_ = 0;
  std::uint64_t catchup_rejected_ = 0;
};

}  // namespace mnm::smr
