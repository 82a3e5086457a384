#include "src/core/paxos.hpp"

#include <cassert>

namespace mnm::core {

Bytes PaxosMsg::encode() const {
  util::Writer w(1 + 8 + 8 + 1 + 4 + value.size());
  w.u8(static_cast<std::uint8_t>(kind))
      .u64(ballot)
      .u64(acc_ballot)
      .boolean(has_value)
      .bytes(value);
  return std::move(w).take();
}

std::optional<PaxosMsg> PaxosMsg::decode(util::ByteView raw) {
  try {
    util::Reader r(raw);
    PaxosMsg m;
    const std::uint8_t kind = r.u8();
    if (kind < 1 || kind > 6) return std::nullopt;
    m.kind = static_cast<PaxosKind>(kind);
    m.ballot = r.u64();
    m.acc_ballot = r.u64();
    m.has_value = r.boolean();
    m.value = r.bytes();
    r.expect_end();
    return m;
  } catch (const util::SerdeError&) {
    return std::nullopt;
  }
}

PaxosMsg PaxosAcceptor::answer(const PaxosMsg& request) {
  if (request.ballot < promised) {
    return PaxosMsg{PaxosKind::kNack, request.ballot, promised, false, {}};
  }
  promised = request.ballot;
  if (request.kind == PaxosKind::kPrepare) {
    return PaxosMsg{PaxosKind::kPromise, request.ballot, acc_ballot.value_or(0),
                    acc_ballot.has_value(), acc_value};
  }
  acc_ballot = request.ballot;
  acc_value = request.value;
  return PaxosMsg{PaxosKind::kAccepted, request.ballot, 0, false, {}};
}

void DecisionLatch::decide(util::ByteView value, bool fast) {
  if (decided()) return;
  value_ = util::to_bytes(value);
  at_ = exec_->now();
  fast_ = fast;
  gate_.open();
}

Paxos::Paxos(sim::Executor& exec, Transport& transport, Omega& omega,
             PaxosConfig config)
    : DecisionLatch(exec),
      exec_(&exec),
      transport_(&transport),
      omega_(&omega),
      config_(config),
      replies_(exec) {}

void Paxos::start() {
  assert(!started_ && "Paxos::start called twice");
  started_ = true;
  exec_->spawn(dispatch_loop(), reader_);
}

sim::Task<void> Paxos::dispatch_loop() {
  while (true) {
    TMsg raw = co_await transport_->incoming().recv();
    const auto msg = PaxosMsg::decode(raw.payload);
    if (!msg.has_value()) continue;  // malformed (possibly Byzantine) — drop
    switch (msg->kind) {
      case PaxosKind::kPrepare:
      case PaxosKind::kAccept:
        max_ballot_seen_ = std::max(max_ballot_seen_, msg->ballot);
        transport_->send(raw.src, acceptor_.answer(*msg).encode());
        break;
      case PaxosKind::kDecide:
        decide(msg->value);
        break;
      case PaxosKind::kPromise:
      case PaxosKind::kAccepted:
      case PaxosKind::kNack:
        replies_.send({raw.src, *msg});
        break;
    }
  }
}

sim::Task<bool> Paxos::hear_back(std::uint64_t ballot, PaxosKind kind,
                                 ValueChoice* choice) {
  const sim::Time deadline = exec_->now() + config_.round_timeout;
  for (std::size_t replies = 0; replies < majority(config_.n);) {
    auto reply = co_await replies_.recv_until(deadline);
    if (!reply.has_value()) co_return false;  // timeout
    const PaxosMsg& m = reply->second;
    if (m.ballot != ballot) continue;  // stale round
    if (m.kind == PaxosKind::kNack) co_return false;
    if (m.kind != kind) continue;
    ++replies;
    if (choice != nullptr) choice->offer(m.has_value, m.acc_ballot, m.value);
  }
  co_return true;
}

sim::Task<bool> Paxos::run_round(const Bytes& input, bool fast_first) {
  // The fast round is p1's ballot 0, whose phase 1 is implicit.
  std::uint64_t ballot = 0;
  ValueChoice choice{input};
  if (!fast_first) {
    // Phase 1: prepare / promise, at a fresh ballot above everything seen.
    ballot = next_ballot(max_ballot_seen_, config_.n, transport_->self());
    max_ballot_seen_ = ballot;
    transport_->send_all(PaxosMsg{PaxosKind::kPrepare, ballot, 0, false, {}}
                             .encode());
    if (!co_await hear_back(ballot, PaxosKind::kPromise, &choice)) {
      co_return false;
    }
  }

  // Phase 2: accept / accepted.
  transport_->send_all(
      PaxosMsg{PaxosKind::kAccept, ballot, 0, true, choice.value}.encode());
  if (!co_await hear_back(ballot, PaxosKind::kAccepted, nullptr)) {
    co_return false;
  }

  // Chosen. Decide and tell everyone.
  decide(choice.value, fast_first);
  transport_->send_all(
      PaxosMsg{PaxosKind::kDecide, ballot, 0, true, choice.value}.encode(),
      /*include_self=*/false);
  co_return true;
}

sim::Task<Bytes> Paxos::propose(Bytes value) {
  assert(started_ && "Paxos::propose before start()");
  const ProcessId self = transport_->self();
  while (!decided()) {
    if (omega_->trusts(self)) {
      const bool fast = config_.skip_phase1_for_p1 && self == kLeaderP1 &&
                        !used_fast_ballot_;
      used_fast_ballot_ = used_fast_ballot_ || fast;
      const bool ok = co_await run_round(value, fast);
      if (ok) break;
      co_await exec_->sleep(config_.retry_backoff);
    } else {
      // Event-driven: woken by an Ω poke or by our own DECIDE.
      co_await omega_->wait_leadership_or(self, decision_gate());
    }
  }
  co_return decision();
}

}  // namespace mnm::core
