// Classic single-decree Paxos (Lamport, "The Part-Time Parliament") over the
// Transport abstraction, tolerating fP < n/2 crash failures, and the
// message-side rules the other crash protocols compose with it.
//
// Roles in the paper's uses:
//  * It is the crash-tolerant algorithm A that Robust Backup(A) transforms
//    into a Byzantine-tolerant one (§4.1, Definition 2) — run it over
//    trusted::TrustedTransport and the transformation is literal.
//  * With `leader_terms` it is the message-passing "Fast Paxos" baseline
//    [38] the paper contrasts with Protected Memory Paxos in §1: 2 delays,
//    majority resilience (n ≥ 2fP+1), messages only. That is a stable
//    leader's steady state, not Lamport's client-driven fast rounds, whose
//    any-proposer fast quorums need n > 3f; the paper's comparison is about
//    the leader-driven common case. A leader runs phase 1 once per term for
//    every slot of its group, as Multi-Paxos does (Lamport, "Paxos Made
//    Simple", §3; PaxosTerm below), and each slot then runs phase 2 alone:
//    2 delays under any stable leader, and p1 holds term 0 from the start.
//    Without it, the conservative 4-delay two-phase baseline.
//
// One copy of each shared rule lives here:
//  * the ballot rule: ballot b is owned by process (b mod n) + 1; p1's first
//    ballot is 0, which acceptors implicitly pre-promise (promised starts
//    at 0) — that is p1's term 0;
//  * the acceptor, run by every Paxos process, by Aligned Paxos's process
//    agents and by the Robust Backup validator's replay (paxos_validator.*);
//  * the value-choice rule, also applied to Disk Paxos blocks and to the
//    values a term's PROMISE quorum reports;
//  * the decision latch every crash protocol exposes to the engines.

#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <vector>

#include "src/common.hpp"
#include "src/core/omega.hpp"
#include "src/core/transport.hpp"
#include "src/sim/executor.hpp"
#include "src/sim/sync.hpp"
#include "src/sim/task.hpp"
#include "src/util/serde.hpp"

namespace mnm::core {

// Wire format shared with the trusted-history validator
// (trusted_messaging.*), which replays Paxos messages.
enum class PaxosKind : std::uint8_t {
  kPrepare = 1,
  kPromise = 2,
  kAccept = 3,
  kAccepted = 4,
  kNack = 5,
  kDecide = 6,
};

struct PaxosMsg {
  PaxosKind kind = PaxosKind::kNack;
  std::uint64_t ballot = 0;
  // For kPromise: the highest ballot at which the acceptor accepted a value
  // (meaningful when has_value). For kNack: the ballot the acceptor promised.
  // For kAccept/kDecide: `value` carries data.
  std::uint64_t acc_ballot = 0;
  bool has_value = false;
  Bytes value;

  Bytes encode() const;
  static std::optional<PaxosMsg> decode(util::ByteView raw);
  bool operator==(const PaxosMsg&) const = default;
};

/// The process that owns `ballot`.
inline ProcessId ballot_owner(std::uint64_t ballot, std::size_t n) {
  return static_cast<ProcessId>(ballot % n) + 1;
}

/// `self`'s ballot in the first round above every ballot seen.
inline std::uint64_t next_ballot(std::uint64_t max_seen, std::size_t n,
                                 ProcessId self) {
  return (max_seen / n + 1) * n + (self - 1);
}

/// The Paxos acceptor (phases 1b and 2b).
struct PaxosAcceptor {
  std::uint64_t promised = 0;
  std::optional<std::uint64_t> acc_ballot;
  Bytes acc_value;

  /// The answer to a PREPARE (PROMISE, reporting the accepted pair) or an
  /// ACCEPT (ACCEPTED); NACK, carrying the promise, for a ballot below
  /// max(promised, group) — `group` is the leader-term promise the slot's
  /// group made (PaxosTerm), 0 outside a term group. Advances the state
  /// unless it NACKs.
  PaxosMsg answer(const PaxosMsg& request, std::uint64_t group = 0);
};

/// The value-choice rule (phase 2a): adopt the value of the highest-ballot
/// accepted pair a phase-1 quorum reports, the first on ties. `value` starts
/// as the proposer's own input, which stands when no report carries one.
struct ValueChoice {
  Bytes value;
  bool adopted = false;
  std::uint64_t ballot = 0;

  void offer(bool has_value, std::uint64_t acc_ballot, const Bytes& v) {
    if (has_value && (!adopted || acc_ballot > ballot)) {
      adopted = true;
      ballot = acc_ballot;
      value = v;
    }
  }
};

/// An instance's decision: latched once, by the proposer that chose it or
/// from a learned DECIDE, and read by the engine adapters.
class DecisionLatch {
 public:
  bool decided() const { return value_.has_value(); }
  const Bytes& decision() const { return *value_; }
  sim::Time decided_at() const { return at_; }
  /// True iff this process decided as the proposer of its protocol's
  /// 2-delay round (a Fast Paxos slot's phase 2 under a term already held,
  /// PMP's single write). Learners report false.
  bool decided_fast() const { return fast_; }
  sim::Gate& decision_gate() { return gate_; }

 protected:
  explicit DecisionLatch(sim::Executor& exec) : exec_(&exec), gate_(exec) {}

  /// Latch `value`, unless already decided.
  void decide(util::ByteView value, bool fast = false);

 private:
  sim::Executor* exec_;
  std::optional<Bytes> value_;
  sim::Time at_ = 0;
  bool fast_ = false;
  sim::Gate gate_;
};

/// Paxos's timing and mode; the process count is its transport's.
struct PaxosConfig {
  /// How long a proposer waits for a quorum of replies before retrying.
  sim::Time round_timeout = 40;
  /// Backoff between failed rounds.
  sim::Time retry_backoff = 10;
  /// Leader terms (Fast Paxos): one phase 1 per leader for every slot of the
  /// group, with p1 holding term 0 from the start (PaxosTerm). Off, every
  /// round runs both phases.
  bool leader_terms = false;
};

// ---------------------------------------------------------------------------
// Leader terms.
// ---------------------------------------------------------------------------

/// The term frame's message kinds (the slot hub's kTermSlot frame).
enum class PaxosTermKind : std::uint8_t {
  kPrepare = 1,
  kPromise = 2,
  kNack = 3,
};

/// One pair an acceptor accepted in one slot, as a PROMISE reports it.
struct SlotAccepted {
  Slot slot = 0;
  std::uint64_t ballot = 0;
  Bytes value;
  bool operator==(const SlotAccepted&) const = default;
};

struct PaxosTermMsg {
  PaxosTermKind kind = PaxosTermKind::kNack;
  std::uint64_t ballot = 0;
  /// kPrepare: `from`, the first slot the term asks for. kPromise: the
  /// acceptor's retirement floor. kNack: the ballot the acceptor promised.
  std::uint64_t mark = 0;
  /// kPromise only: the accepted pairs, in strictly ascending slot order.
  std::vector<SlotAccepted> accepted;

  Bytes encode() const;
  /// Strict and total: nullopt on an unknown kind, a pair count the bytes
  /// present cannot hold, pairs out of slot order, or trailing bytes.
  static std::optional<PaxosTermMsg> decode(util::ByteView raw);
  bool operator==(const PaxosTermMsg&) const = default;
};

class Paxos;

/// One replica's leader term over a group of Paxos slot instances: phase 1
/// once per leader for an unbounded suffix of slots.
///
///  * Acceptor side: one group-level promise. A term PREPARE(b, from) above
///    it raises it to b and is answered by one PROMISE carrying the
///    acceptor's retirement floor and every (slot, ballot, value) it accepted
///    at or above max(from, floor). Every slot instance of the group honours
///    the promise, those created later included, so it covers [from, ∞) —
///    and the slots below `from` too, which the leader has decided: a
///    promise only restricts, and one ballot for the whole group keeps it
///    monotone. A retired acceptor cannot report its retired slots, so the
///    leader's term starts at the highest floor its quorum reports; a slot
///    below that runs a two-phase round of its own.
///  * Proposer side: a slot round of a leader without a term sends one
///    PREPARE(b, from = the first slot this replica has not decided); every
///    round of the group waits on the same PROMISE quorum. A covered slot
///    then runs phase 2 at b, adopting the value the quorum reported for it
///    (ValueChoice). Each slot runs a term's ballot once: its retry after a
///    timeout runs a two-phase round of its own. A NACK at the term's ballot
///    ends the term, and so does losing Ω; the NACKed round retries at once
///    (no backoff) and establishes a new term above every ballot seen. A
///    refused PREPARE is sent again above the refusal while Ω still names
///    this process.
///  * p1 holds term 0 from the start, with nothing reported: the acceptors'
///    implicit promise of ballot 0. A rejoined p1 holds it too, until a
///    refused ACCEPT or a catch-up from a peer shows the group went on.
///  * Ballots: a term's ballot exceeds every ballot this process has used in
///    any slot, and a slot's own ballot exceeds every term ballot it has
///    held, so no ballot ever carries two values in one slot.
///
/// Inbound term frames arrive through receive(), called inline by whoever
/// demultiplexes them (the slot hub's term handler): the term runs no
/// coroutine of its own, so a group whose leader never changes schedules
/// nothing for it.
class PaxosTerm {
 public:
  /// How a slot round's phase 1 goes.
  struct Entry {
    enum Kind : std::uint8_t {
      kOwnPhase1,  // no term covers the round: run both phases
      kPhase2,     // run phase 2 at `ballot`
      kRetry,      // establishing a term failed: the round fails
    };
    Kind kind = kOwnPhase1;
    std::uint64_t ballot = 0;
    /// The term was held before the round began (a 2-delay round).
    bool fast = false;
  };

  /// The group's live slot instances at or above `from`, in slot order:
  /// calls visit(s, instance) for each until visit returns false.
  using Members = std::function<void(
      Slot from, const std::function<bool(Slot, const Paxos&)>& visit)>;

  /// `channel` carries term frames to and from every process of the group,
  /// and `members` lists the group's instances; a lone instance passes
  /// neither, and its only term is p1's term 0.
  PaxosTerm(sim::Executor& exec, ProcessId self, Transport* channel,
            Omega& omega, const PaxosConfig& config, Members members = {});

  /// Slots below `floor` have retired (this replica applied them, or
  /// installed a peer's snapshot covering them). A floor above a slot this
  /// replica never decided means it caught up from a peer: the group went
  /// on without it, under some other leader for all it knows, so an
  /// implicit term 0 ends — and if Ω names this replica it establishes a
  /// term at once, before its first ACCEPT would be refused.
  void retire_below(Slot floor);

  /// Handle one inbound term frame from `src`.
  void receive(ProcessId src, util::ByteView payload);

  /// The group-level promise every slot instance honours.
  std::uint64_t promised() const { return promised_; }
  /// The floor for a slot's own ballot: above every group-level ballot
  /// seen — term PREPAREs, NACKed promises and terms this process held.
  std::uint64_t max_seen() const { return std::max(promised_, seen_); }
  /// Note a ballot a slot round used (`own`) or was NACKed with.
  void saw(std::uint64_t ballot, bool own);

  /// Phase 1 of slot `s`'s round, by the term: establishes one first if
  /// none is held. `tried` is the term ballot the slot already ran, if any;
  /// the value the term's quorum reported for the slot is offered to
  /// `choice`.
  sim::Task<Entry> enter(Slot s, std::optional<std::uint64_t> tried,
                         ValueChoice& choice);
  /// A NACK at `ballot`: the term ends if it is the one held.
  void end(std::uint64_t ballot);
  /// Ω no longer names this process: the term ends.
  void resign() { held_.reset(); }

  /// No term is held or being established, and one can be (the group has
  /// a term channel): a round that failed because its term ended retries
  /// at once instead of backing off.
  bool vacant() const {
    return channel_ != nullptr && !held_.has_value() &&
           !establishing_.has_value();
  }
  /// The held term's ballot, if any.
  std::optional<std::uint64_t> ballot() const;
  /// Term PREPAREs this process has sent.
  std::uint64_t prepares_sent() const { return prepares_sent_; }

 private:
  struct Reported {
    std::uint64_t ballot = 0;
    Bytes value;
  };
  struct Held {
    std::uint64_t ballot = 0;
    Slot base = 0;  // the first slot the term covers
    std::map<Slot, Reported> reports;
  };
  struct Establishing {
    Held term;
    Slot from = 0;
    sim::Time deadline = 0;
    std::vector<bool> promised;  // index p - 1: p's PROMISE counted
    std::size_t promises = 0;
  };

  void establish();
  void on_promise(ProcessId src, PaxosTermMsg msg);
  void settle(std::optional<Held> term);
  /// The first slot at or above the floor this replica has not decided.
  Slot first_undecided() const;

  sim::Executor* exec_;
  ProcessId self_;
  Transport* channel_;
  Omega* omega_;
  PaxosConfig config_;
  Members members_;
  Slot floor_ = 0;
  std::uint64_t promised_ = 0;
  std::uint64_t seen_ = 0;  // see max_seen()
  std::uint64_t used_ = 0;  // the highest ballot a slot round used
  std::optional<Held> held_;
  std::optional<Establishing> establishing_;
  sim::VersionSignal settled_;  // an establishment succeeded or failed
  std::uint64_t prepares_sent_ = 0;
};

class Paxos : public DecisionLatch {
 public:
  /// `term` is the leader term of the group this instance runs slot `slot`
  /// in (the Fast Paxos engine's), or nullptr: then every round runs both
  /// phases.
  Paxos(sim::Executor& exec, Transport& transport, Omega& omega,
        PaxosConfig config, PaxosTerm* term = nullptr, Slot slot = 0);

  /// Spawn the message-handling loop. Call exactly once before propose.
  /// The loop lives as long as this instance.
  void start();

  /// Propose `value`; resolves with the decided value (§3 consensus:
  /// uniform agreement, validity; termination under Ω).
  sim::Task<Bytes> propose(Bytes value);

  const PaxosAcceptor& acceptor() const { return acceptor_; }

 private:
  /// How a phase ended: a quorum, or not — with the promise a NACK
  /// carried (0 for a timeout).
  struct Heard {
    bool quorum = false;
    std::uint64_t nacked = 0;
  };

  sim::Task<void> dispatch_loop();
  /// One inbound message: answer it as the acceptor, latch a DECIDE, or
  /// hand a reply to the round waiting for it.
  void handle(ProcessId src, const PaxosMsg& msg);
  sim::Task<bool> run_round(const Bytes& input);
  /// Wait for a quorum of `kind` replies to `ballot`, offering each reported
  /// accepted pair to `choice` (if any); no quorum on a NACK or at the
  /// timeout.
  sim::Task<Heard> hear_back(std::uint64_t ballot, PaxosKind kind,
                             ValueChoice* choice);

  sim::Executor* exec_;
  Transport* transport_;
  Omega* omega_;
  PaxosConfig config_;
  PaxosAcceptor acceptor_;
  PaxosTerm* term_ = nullptr;
  Slot slot_ = 0;

  // Proposer state.
  std::uint64_t max_ballot_seen_ = 0;
  std::optional<std::uint64_t> term_ballot_;  // the term ballot this slot ran
  sim::Channel<std::pair<ProcessId, PaxosMsg>> replies_;
  bool started_ = false;
  sim::OwnedRoot reader_;  // dispatch_loop; destroyed first
};

}  // namespace mnm::core
