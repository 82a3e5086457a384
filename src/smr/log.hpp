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
//  * All-propose (`all_propose`, Byzantine-model engines): every correct
//    replica proposes its own candidate payload (or a no-op filler once its
//    queue drains) for each of `fixed_slots` slots, window-paced. This is
//    the mode Fast & Robust / Cheap Quorum require, since their traffic
//    runs through memories and passive replicas could never be heard.
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
#include "src/smr/tuner.hpp"

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
  /// serve it (yet). The Log stays agnostic of the bytes — it only carries
  /// them between a requester (Log::fetch_range) and serving peers over the
  /// control channel. Must be total: the request arrives from the wire.
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
/// progress and silently stalled before this rule existed. `fixed_slots`
/// needs no clamp (a window wider than the slot target is simply never
/// filled), but all_propose with fixed_slots == 0 drives nothing; callers
/// wanting a dynamic all-propose workload set a cap and noop_fillers=false.
inline constexpr std::size_t kMaxWindow = 1 << 16;

/// Recovery/gap-repair request cadence and range-fetch response deadline,
/// in executor time.
inline constexpr sim::Time kCatchupTimeout = 8;

struct LogConfig {
  /// Max slots between the first unapplied slot and the newest assignment.
  /// With auto-tuning (ReplicaConfig::tune.enabled) this is the *initial*
  /// setting; the pump reads the tuner's live, clamped value per slot.
  std::size_t window = 8;
  /// Every replica proposes every slot (required by Byzantine engines).
  bool all_propose = false;
  /// all_propose only: total slots to drive (each replica must use the
  /// same value).
  Slot fixed_slots = 0;
  /// all_propose only: when true (the default — the fixed-workload harness
  /// shape), an empty queue proposes the no-op filler so every slot up to
  /// fixed_slots completes. When false, the pump waits for queued work
  /// before opening a slot — the dynamic-workload shape (kv::Router fans
  /// the same payload out to every correct replica in the same tick, so
  /// queues advance in lockstep and fillers are never needed). fixed_slots
  /// is then just a cap, not a target.
  bool noop_fillers = true;
  /// Snapshot the state machine every `snapshot_interval` applied slots and
  /// compact the log below the snapshot slot (0 = never, the default — the
  /// pre-snapshot behavior, byte-for-byte). With an interval set the Log
  /// also retains applied decision payloads above the snapshot slot and
  /// serves them (plus the snapshot) to catching-up peers over the engine's
  /// control transport, and it retires the engine's slots a snapshot behind
  /// (ConsensusEngine::retire_below): after each compaction, below the
  /// previous snapshot slot; after a catch-up install, below the installed
  /// one.
  Slot snapshot_interval = 0;
  /// Start in recovery: hold fresh proposals and catch up from a peer's
  /// snapshot + log suffix first (requires an engine with a control
  /// transport). The rejoin path of a restarted replica.
  bool recover = false;
  /// Answer range-snapshot requests (StateMachine::export_range) on the
  /// control channel and allow fetch_range() — the drain leg of live
  /// resharding. Off by default so non-reconfiguration runs spawn exactly
  /// the coroutines they always did, byte-for-byte.
  bool serve_ranges = false;
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
  /// after each launch / the live window limit it launched under, summed —
  /// ratio-of-sums is the mean occupancy, and the integers fingerprint
  /// exactly.
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

  /// Queue a batch payload (encode_batch) for replication.
  void enqueue(Bytes payload);
  /// Queue a group of raw commands. Unlike enqueue(), the group is encoded
  /// at *launch* time, so the pump may merge consecutive groups into one
  /// slot payload up to the tuner's live batch size — the continuous-
  /// batching path auto-tuned Replicas feed.
  void enqueue_commands(std::vector<Bytes> commands);

  /// Attach the live window/batch controller (owned by the Replica; may be
  /// disabled, in which case the static config governs). Call before
  /// start().
  void set_tuner(Tuner* tuner) { tuner_ = tuner; }
  /// The in-flight limit the pump is currently honoring.
  std::size_t live_window() const {
    return tuner_ != nullptr && tuner_->enabled() ? tuner_->window()
                                                  : config_.window;
  }

  std::size_t pending() const { return pending_.size(); }
  /// Commands queued behind the window (opaque enqueue() payloads count as
  /// one command each — exact on the enqueue_commands() path the tuner
  /// actually observes).
  std::uint64_t pending_commands() const { return pending_cmds_; }
  /// Slots applied to the state machine (the contiguous prefix).
  Slot applied_len() const { return applied_len_; }
  /// One past the highest slot this replica has proposed for.
  Slot proposed_upto() const { return next_slot_; }
  /// Nothing queued, nothing decided-but-unapplied, every slot this replica
  /// proposed is applied.
  bool quiescent() const {
    return pending_.empty() && stash_.empty() && applied_len_ >= next_slot_;
  }
  sim::VersionSignal& applied_signal() { return applied_signal_; }
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

  /// Fetch a machine-defined range slice from this group (reconfiguration
  /// drain; requires serve_ranges). Tries the local machine first; while it
  /// cannot serve, broadcasts a RangeSnapRequest on the control channel
  /// each kCatchupTimeout and returns the first response `valid` accepts
  /// (invalid responses — a Byzantine peer can answer with garbage — are
  /// counted against catchup_rejected and skipped). Engines without a
  /// control transport poll the local machine on the applied signal
  /// instead. Returns empty only if this log halts first.
  sim::Task<Bytes> fetch_range(Bytes request,
                               std::function<bool(util::ByteView)> valid);

  std::uint64_t snapshots_taken() const { return snapshots_taken_; }
  std::uint64_t snapshots_installed() const { return snapshots_installed_; }
  std::uint64_t slots_truncated() const { return slots_truncated_; }
  std::uint64_t catchup_bytes() const { return catchup_bytes_; }
  std::uint64_t catchup_rejected() const { return catchup_rejected_; }
  /// Range-snapshot responses this log served to drain requesters.
  std::uint64_t ranges_served() const { return ranges_served_; }
  /// Range-snapshot response bytes consumed by fetch_range here.
  std::uint64_t range_bytes() const { return range_bytes_; }

 private:
  struct Pending {
    Bytes payload;               // pre-encoded batch; empty on the raw path
    std::vector<Bytes> cmds;     // raw commands (enqueue_commands path)
    sim::Time enqueued_at = 0;
  };
  /// Proposer-side record of one slot, held from launch to apply.
  struct Launch {
    bool launched = false;       // false: a gap below a later launch
    bool won = false;            // our payload was decided (drive saw it)
    sim::Time enqueued_at = 0;
    sim::Time proposed_at = 0;
    /// Open slots right after this launch, and the live window limit it
    /// launched under — the occupancy signal the tuner and SlotStats read.
    std::size_t in_flight = 0;
    std::size_t window_limit = 0;
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
  /// Recovery driver: broadcasts catch-up requests until level with a peer,
  /// then keeps watch for stalled gaps (slots decided before this replica
  /// rejoined never re-broadcast their DECIDE — only a re-request fills
  /// them).
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
  /// Snapshot + compact when the interval says so (no-op otherwise).
  void maybe_snapshot();
  /// Drop retained payloads and stash entries below `s`.
  void compact_below(Slot s);
  void serve_catchup(ProcessId dst, Slot from);
  void serve_range(ProcessId dst, const RangeSnapRequest& req);
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
  std::uint64_t pending_cmds_ = 0;
  sim::VersionSignal pending_signal_;
  std::map<Slot, core::Decision> stash_;  // decided, awaiting in-order apply
  sim::VersionSignal stash_signal_;       // bumps on stash insert (gap watch)
  std::deque<Launch> launches_;  // launches_[i] describes slot applied_len_ + i
  SlotStats stats_;
  Slot applied_len_ = 0;
  Slot next_slot_ = 0;
  std::size_t open_slots_ = 0;  // launched here, not yet applied
  sim::VersionSignal applied_signal_;
  Tuner* tuner_ = nullptr;
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
  std::uint64_t responses_seen_ = 0;
  // Range-drain state: responses for the live fetch_range round, keyed by
  // its cookie (stale rounds' responses are dropped on cookie mismatch).
  std::uint64_t range_cookie_seq_ = 0;
  std::uint64_t live_range_cookie_ = 0;
  std::vector<Bytes> range_responses_;
  sim::VersionSignal range_signal_;
  std::uint64_t ranges_served_ = 0;
  std::uint64_t range_bytes_ = 0;
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
