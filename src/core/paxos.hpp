// Classic single-decree Paxos (Lamport, "The Part-Time Parliament") over the
// Transport abstraction, tolerating fP < n/2 crash failures, and the
// message-side rules the other crash protocols compose with it.
//
// Roles in the paper's uses:
//  * It is the crash-tolerant algorithm A that Robust Backup(A) transforms
//    into a Byzantine-tolerant one (§4.1, Definition 2) — run it over
//    trusted::TrustedTransport and the transformation is literal.
//  * With `skip_phase1_for_p1` it is the message-passing "Fast Paxos"
//    baseline [38] the paper contrasts with Protected Memory Paxos in §1:
//    2 delays, majority resilience (n ≥ 2fP+1), messages only. That is the
//    leader's phase-1 skip (the stable-leader steady state), not Lamport's
//    client-driven fast rounds, whose any-proposer fast quorums need
//    n > 3f; the paper's comparison is about the leader-driven common case.
//    Without it, the conservative 4-delay two-phase baseline.
//
// One copy of each shared rule lives here:
//  * the ballot rule: ballot b is owned by process (b mod n) + 1; p1's first
//    ballot is 0, which acceptors implicitly pre-promise (promised starts
//    at 0), making the phase-1 skip safe;
//  * the acceptor, run by every Paxos process, by Aligned Paxos's process
//    agents and by the Robust Backup validator's replay (paxos_validator.*);
//  * the value-choice rule, also applied to Disk Paxos blocks;
//  * the decision latch every crash protocol exposes to the engines.

#pragma once

#include <cstdint>
#include <optional>

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
  /// ACCEPT (ACCEPTED); NACK, carrying `promised`, for a ballot below it.
  /// Advances the state unless it NACKs.
  PaxosMsg answer(const PaxosMsg& request);
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
  /// 2-delay round (Fast Paxos's ballot-0 skip, PMP's single write).
  /// Learners report false.
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

struct PaxosConfig {
  std::size_t n = 3;
  /// How long a proposer waits for a quorum of replies before retrying.
  sim::Time round_timeout = 40;
  /// Backoff between failed rounds.
  sim::Time retry_backoff = 10;
  /// Allow p1 to skip phase 1 at ballot 0 (2-delay fast path).
  bool skip_phase1_for_p1 = false;
};

class Paxos : public DecisionLatch {
 public:
  Paxos(sim::Executor& exec, Transport& transport, Omega& omega,
        PaxosConfig config);

  /// Spawn the message-handling loop. Call exactly once before propose.
  /// The loop lives as long as this instance.
  void start();

  /// Propose `value`; resolves with the decided value (§3 consensus:
  /// uniform agreement, validity; termination under Ω).
  sim::Task<Bytes> propose(Bytes value);

 private:
  sim::Task<void> dispatch_loop();
  sim::Task<bool> run_round(const Bytes& input, bool fast_first);
  /// Wait for a quorum of `kind` replies to `ballot`, offering each reported
  /// accepted pair to `choice` (if any); false on a NACK or at the timeout.
  sim::Task<bool> hear_back(std::uint64_t ballot, PaxosKind kind,
                            ValueChoice* choice);

  sim::Executor* exec_;
  Transport* transport_;
  Omega* omega_;
  PaxosConfig config_;
  PaxosAcceptor acceptor_;

  // Proposer state.
  std::uint64_t max_ballot_seen_ = 0;
  bool used_fast_ballot_ = false;
  sim::Channel<std::pair<ProcessId, PaxosMsg>> replies_;
  bool started_ = false;
  sim::OwnedRoot reader_;  // dispatch_loop; destroyed first
};

}  // namespace mnm::core
