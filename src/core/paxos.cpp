#include "src/core/paxos.hpp"

#include <cassert>

#include "src/sim/select.hpp"

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

PaxosMsg PaxosAcceptor::answer(const PaxosMsg& request, std::uint64_t group) {
  const std::uint64_t floor = std::max(promised, group);
  if (request.ballot < floor) {
    return PaxosMsg{PaxosKind::kNack, request.ballot, floor, false, {}};
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

// ---------------------------------------------------------------------------
// Term frames.
// ---------------------------------------------------------------------------

namespace {
/// The smallest encoded pair: slot, ballot and an empty value's length.
constexpr std::size_t kMinPairBytes = 8 + 8 + 4;
}  // namespace

Bytes PaxosTermMsg::encode() const {
  std::size_t size = 1 + 8 + 8;
  if (kind == PaxosTermKind::kPromise) {
    size += 4;
    for (const SlotAccepted& a : accepted) size += kMinPairBytes + a.value.size();
  }
  util::Writer w(size);
  w.u8(static_cast<std::uint8_t>(kind)).u64(ballot).u64(mark);
  if (kind == PaxosTermKind::kPromise) {
    w.u32(static_cast<std::uint32_t>(accepted.size()));
    for (const SlotAccepted& a : accepted) {
      w.u64(a.slot).u64(a.ballot).bytes(a.value);
    }
  }
  return std::move(w).take();
}

std::optional<PaxosTermMsg> PaxosTermMsg::decode(util::ByteView raw) {
  try {
    util::Reader r(raw);
    PaxosTermMsg m;
    const std::uint8_t kind = r.u8();
    if (kind < 1 || kind > 3) return std::nullopt;
    m.kind = static_cast<PaxosTermKind>(kind);
    m.ballot = r.u64();
    m.mark = r.u64();
    if (m.kind == PaxosTermKind::kPromise) {
      // The count is attacker-controlled: it may not claim more pairs than
      // the bytes present can hold, so it cannot pre-size past them.
      const std::uint32_t count = r.u32();
      if (count > r.remaining() / kMinPairBytes) return std::nullopt;
      m.accepted.reserve(count);
      for (std::uint32_t i = 0; i < count; ++i) {
        SlotAccepted a;
        a.slot = r.u64();
        a.ballot = r.u64();
        a.value = r.bytes();
        if (!m.accepted.empty() && a.slot <= m.accepted.back().slot) {
          return std::nullopt;
        }
        m.accepted.push_back(std::move(a));
      }
    }
    r.expect_end();
    return m;
  } catch (const util::SerdeError&) {
    return std::nullopt;
  }
}

// ---------------------------------------------------------------------------
// PaxosTerm.
// ---------------------------------------------------------------------------

PaxosTerm::PaxosTerm(sim::Executor& exec, ProcessId self, Transport* channel,
                     Omega& omega, const PaxosConfig& config, Members members)
    : exec_(&exec),
      self_(self),
      channel_(channel),
      omega_(&omega),
      config_(config),
      members_(std::move(members)),
      settled_(exec) {
  // Term 0: the acceptors' implicit promise of ballot 0, p1's from the
  // start, reporting nothing.
  if (self == kLeaderP1) held_ = Held{};
}

void PaxosTerm::retire_below(Slot floor) {
  const bool went_on = floor > first_undecided();
  floor_ = std::max(floor_, floor);
  if (!held_.has_value()) return;
  held_->reports.erase(held_->reports.begin(),
                       held_->reports.lower_bound(floor_));
  if (went_on && held_->ballot == 0) {
    held_.reset();
    if (channel_ != nullptr && !establishing_.has_value() &&
        omega_->trusts(self_)) {
      establish();
    }
  }
}

std::optional<std::uint64_t> PaxosTerm::ballot() const {
  if (!held_.has_value()) return std::nullopt;
  return held_->ballot;
}

void PaxosTerm::saw(std::uint64_t ballot, bool own) {
  if (own) {
    used_ = std::max(used_, ballot);
  } else {
    seen_ = std::max(seen_, ballot);
  }
}

Slot PaxosTerm::first_undecided() const {
  Slot s = floor_;
  if (members_) {
    members_(floor_, [&s](Slot slot, const Paxos& inst) {
      if (slot != s || !inst.decided()) return false;
      ++s;
      return true;
    });
  }
  return s;
}

void PaxosTerm::receive(ProcessId src, util::ByteView payload) {
  std::optional<PaxosTermMsg> msg = PaxosTermMsg::decode(payload);
  // Malformed, or a lone instance's term with no channel to answer on.
  if (!msg.has_value() || channel_ == nullptr) return;
  switch (msg->kind) {
    case PaxosTermKind::kPrepare: {
      seen_ = std::max(seen_, msg->ballot);
      // Strictly above the promise: a ballot is never granted twice, not
      // even to a rejoined incarnation of its owner that forgot using it.
      if (msg->ballot <= promised_) {
        channel_->send(src, PaxosTermMsg{PaxosTermKind::kNack, msg->ballot,
                                         promised_, {}}
                                .encode());
        return;
      }
      promised_ = msg->ballot;
      PaxosTermMsg promise{PaxosTermKind::kPromise, msg->ballot, floor_, {}};
      if (members_) {
        members_(std::max(msg->mark, floor_),
                 [&promise](Slot slot, const Paxos& inst) {
                   const PaxosAcceptor& a = inst.acceptor();
                   if (a.acc_ballot.has_value()) {
                     promise.accepted.push_back(
                         {slot, *a.acc_ballot, a.acc_value});
                   }
                   return true;
                 });
      }
      channel_->send(src, promise.encode());
      return;
    }
    case PaxosTermKind::kPromise:
      on_promise(src, *std::move(msg));
      return;
    case PaxosTermKind::kNack:
      seen_ = std::max(seen_, msg->mark);
      if (establishing_.has_value() &&
          establishing_->term.ballot == msg->ballot) {
        settle(std::nullopt);
        // Still the leader: ask again at once, above the refusal.
        if (omega_->trusts(self_)) establish();
      }
      return;
  }
}

void PaxosTerm::on_promise(ProcessId src, PaxosTermMsg msg) {
  if (!establishing_.has_value() || establishing_->term.ballot != msg.ballot ||
      src < 1 || src > channel_->process_count() ||
      establishing_->promised[src - 1]) {
    return;  // stale, foreign or repeated
  }
  Establishing& e = *establishing_;
  e.promised[src - 1] = true;
  // Slots below a promiser's floor are retired there: it cannot report
  // them, so the term starts above them.
  e.term.base = std::max(e.term.base, msg.mark);
  for (SlotAccepted& a : msg.accepted) {
    if (a.slot < e.from) continue;
    // The value-choice rule per slot: highest ballot, the first on ties.
    auto [it, fresh] = e.term.reports.try_emplace(a.slot);
    if (fresh || a.ballot > it->second.ballot) {
      it->second = Reported{a.ballot, std::move(a.value)};
    }
  }
  if (++e.promises < majority(channel_->process_count())) return;
  Held term = std::move(e.term);
  term.reports.erase(term.reports.begin(), term.reports.lower_bound(term.base));
  settle(std::move(term));
}

void PaxosTerm::settle(std::optional<Held> term) {
  held_ = std::move(term);
  establishing_.reset();
  settled_.bump();
}

void PaxosTerm::establish() {
  Establishing e;
  const std::size_t n = channel_->process_count();
  e.term.ballot = next_ballot(std::max(max_seen(), used_), n, self_);
  e.from = first_undecided();
  e.term.base = e.from;
  e.deadline = exec_->now() + config_.round_timeout;
  e.promised.assign(n, false);
  seen_ = std::max(seen_, e.term.ballot);
  const Bytes prepare =
      PaxosTermMsg{PaxosTermKind::kPrepare, e.term.ballot, e.from, {}}.encode();
  establishing_ = std::move(e);
  ++prepares_sent_;
  channel_->send_all(prepare);
}

sim::Task<PaxosTerm::Entry> PaxosTerm::enter(Slot s,
                                             std::optional<std::uint64_t> tried,
                                             ValueChoice& choice) {
  const bool fast = held_.has_value();
  if (!held_.has_value() && !establishing_.has_value()) {
    if (channel_ == nullptr) co_return Entry{};
    establish();
  }
  while (establishing_.has_value()) {
    const std::uint64_t ballot = establishing_->term.ballot;
    const std::uint64_t v = settled_.version();
    sim::Select sel(*exec_);
    sel.on(settled_, v).until(establishing_->deadline);
    if (co_await sel == sim::Select::kTimedOut &&
        establishing_.has_value() && establishing_->term.ballot == ballot) {
      settle(std::nullopt);  // no quorum in time
    }
  }
  if (!held_.has_value()) co_return Entry{Entry::kRetry};
  if (s < held_->base || tried == held_->ballot) co_return Entry{};
  if (auto it = held_->reports.find(s); it != held_->reports.end()) {
    choice.offer(true, it->second.ballot, it->second.value);
    held_->reports.erase(it);
  }
  co_return Entry{Entry::kPhase2, held_->ballot, fast};
}

void PaxosTerm::end(std::uint64_t ballot) {
  if (held_.has_value() && held_->ballot == ballot) held_.reset();
}

// ---------------------------------------------------------------------------
// Paxos.
// ---------------------------------------------------------------------------

Paxos::Paxos(sim::Executor& exec, Transport& transport, Omega& omega,
             PaxosConfig config, PaxosTerm* term, Slot slot)
    : DecisionLatch(exec),
      exec_(&exec),
      transport_(&transport),
      omega_(&omega),
      config_(config),
      term_(term),
      slot_(slot),
      replies_(exec) {}

void Paxos::start() {
  assert(!started_ && "Paxos::start called twice");
  started_ = true;
  exec_->spawn(dispatch_loop(), reader_);
}

sim::Task<void> Paxos::dispatch_loop() {
  while (true) {
    TMsg raw = co_await transport_->incoming().recv();
    // Malformed (possibly Byzantine) messages are dropped.
    if (const auto msg = PaxosMsg::decode(raw.payload)) handle(raw.src, *msg);
  }
}

void Paxos::handle(ProcessId src, const PaxosMsg& msg) {
  switch (msg.kind) {
    case PaxosKind::kPrepare:
    case PaxosKind::kAccept:
      max_ballot_seen_ = std::max(max_ballot_seen_, msg.ballot);
      transport_->send(
          src, acceptor_.answer(msg, term_ != nullptr ? term_->promised() : 0)
                   .encode());
      break;
    case PaxosKind::kDecide:
      decide(msg.value);
      break;
    case PaxosKind::kPromise:
    case PaxosKind::kAccepted:
    case PaxosKind::kNack:
      replies_.send({src, msg});
      break;
  }
}

sim::Task<Paxos::Heard> Paxos::hear_back(std::uint64_t ballot, PaxosKind kind,
                                         ValueChoice* choice) {
  const sim::Time deadline = exec_->now() + config_.round_timeout;
  const std::size_t quorum = majority(transport_->process_count());
  for (std::size_t replies = 0; replies < quorum;) {
    auto reply = co_await replies_.recv_until(deadline);
    if (!reply.has_value()) co_return Heard{};  // timeout
    const PaxosMsg& m = reply->second;
    if (m.ballot != ballot) continue;  // stale round
    if (m.kind == PaxosKind::kNack) co_return Heard{false, m.acc_ballot};
    if (m.kind != kind) continue;
    ++replies;
    if (choice != nullptr) choice->offer(m.has_value, m.acc_ballot, m.value);
  }
  co_return Heard{true};
}

sim::Task<bool> Paxos::run_round(const Bytes& input) {
  ValueChoice choice{input};
  PaxosTerm::Entry entry;
  if (term_ != nullptr) entry = co_await term_->enter(slot_, term_ballot_, choice);
  if (entry.kind == PaxosTerm::Entry::kRetry) co_return false;
  std::uint64_t ballot = entry.ballot;
  if (entry.kind == PaxosTerm::Entry::kPhase2) {
    term_ballot_ = ballot;  // the term's phase 1 stands for this slot
  } else {
    // Phase 1: prepare / promise, at a fresh ballot above everything seen.
    ballot = next_ballot(
        std::max(max_ballot_seen_, term_ != nullptr ? term_->max_seen() : 0),
        transport_->process_count(), transport_->self());
    max_ballot_seen_ = ballot;
    if (term_ != nullptr) term_->saw(ballot, /*own=*/true);
    transport_->send_all(PaxosMsg{PaxosKind::kPrepare, ballot, 0, false, {}}
                             .encode());
    const Heard heard = co_await hear_back(ballot, PaxosKind::kPromise, &choice);
    if (!heard.quorum) {
      if (term_ != nullptr) term_->saw(heard.nacked, /*own=*/false);
      co_return false;
    }
  }

  // Phase 2: accept / accepted.
  transport_->send_all(
      PaxosMsg{PaxosKind::kAccept, ballot, 0, true, choice.value}.encode());
  const Heard heard = co_await hear_back(ballot, PaxosKind::kAccepted, nullptr);
  if (!heard.quorum) {
    if (term_ != nullptr && heard.nacked > 0) {
      term_->saw(heard.nacked, /*own=*/false);
      term_->end(ballot);  // a rival promised above: the term is over
    }
    co_return false;
  }

  // Chosen. Decide and tell everyone.
  decide(choice.value, entry.fast);
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
      if (co_await run_round(value)) break;
      // A round whose term ended retries at once: its next try establishes
      // a term above the NACK. Any other failure backs off.
      if (term_ == nullptr || !term_->vacant()) {
        co_await exec_->sleep(config_.retry_backoff);
      }
    } else {
      if (term_ != nullptr) term_->resign();  // losing Ω ends the term
      // Event-driven: woken by an Ω poke or by our own DECIDE.
      co_await omega_->wait_leadership_or(self, decision_gate());
    }
  }
  co_return decision();
}

}  // namespace mnm::core
