#include "src/core/aligned_paxos.hpp"

#include "src/sim/fanout.hpp"
#include "src/sim/select.hpp"

namespace mnm::core {

namespace {
/// How long a proposer waits for a combined majority before retrying.
constexpr sim::Time kRoundTimeout = 40;
/// Backoff between failed rounds.
constexpr sim::Time kRetryBackoff = 8;
}  // namespace

AlignedPaxos::AlignedPaxos(sim::Executor& exec,
                           std::vector<mem::MemoryIface*> memories,
                           const DiskRegion& region, Transport& transport,
                           Omega& omega)
    : DecisionLatch(exec),
      exec_(&exec),
      transport_(&transport),
      omega_(&omega),
      self_(transport.self()),
      n_(transport.process_count()),
      memories_(exec, std::move(memories), region.id, self_, n_,
                region.ns + "pmp/slot", /*dynamic=*/true),
      replies_(exec) {}

void AlignedPaxos::start() { exec_->spawn(dispatch_loop(), reader_); }

sim::Task<void> AlignedPaxos::dispatch_loop() {
  while (true) {
    const TMsg raw = co_await transport_->incoming().recv();
    if (raw.payload.empty()) continue;
    if (raw.payload[0] == kMuxDecide) {
      decide(util::ByteView(raw.payload).subspan(1));
      continue;
    }
    const auto msg = PaxosMsg::decode(raw.payload);
    if (!msg.has_value()) continue;  // malformed — drop
    switch (msg->kind) {
      case PaxosKind::kPrepare:
      case PaxosKind::kAccept:
        max_seen_ = std::max(max_seen_, msg->ballot);
        transport_->send(raw.src, acceptor_.answer(*msg).encode());
        break;
      case PaxosKind::kPromise:
      case PaxosKind::kAccepted:
      case PaxosKind::kNack:
        replies_.send({raw.src, *msg});
        break;
      case PaxosKind::kDecide:
        break;  // not part of Aligned's wire protocol
    }
  }
}

template <typename R, typename MemOk>
sim::Task<bool> AlignedPaxos::hear_back(
    sim::Channel<std::pair<std::size_t, R>>& mem_ch, std::uint64_t ballot,
    PaxosKind kind, ValueChoice* choice, MemOk mem_ok) {
  // One suspension per wait, woken by whichever source signals first in
  // executor (time, seq) order — a round costs O(responses) events, not
  // O(timeout / poll) timer ticks. Queued memory answers drain before
  // process replies.
  const std::size_t quorum = majority(n_ + memories_.size());
  const sim::Time deadline = exec_->now() + kRoundTimeout;
  std::size_t answers = 0;
  while (answers < quorum) {
    if (auto answer = mem_ch.try_recv()) {
      if (!mem_ok(answer->second)) co_return false;
      ++answers;
      continue;
    }
    if (auto reply = replies_.try_recv()) {
      const PaxosMsg& msg = reply->second;
      if (msg.ballot != ballot) continue;
      if (msg.kind == PaxosKind::kNack) {
        max_seen_ = std::max(max_seen_, msg.acc_ballot);
        co_return false;
      }
      if (msg.kind != kind) continue;
      ++answers;
      if (choice != nullptr) {
        choice->offer(msg.has_value, msg.acc_ballot, msg.value);
      }
      continue;
    }
    sim::Select sel(*exec_);
    sel.on(mem_ch).on(replies_).until(deadline);
    if (co_await sel == sim::Select::kTimedOut) co_return false;
  }
  co_return true;
}

sim::Task<Bytes> AlignedPaxos::propose(Bytes v) {
  while (!decided()) {
    co_await omega_->wait_leadership_or(self_, decision_gate());
    if (decided()) break;

    const std::uint64_t ballot = next_ballot(max_seen_, n_, self_);
    max_seen_ = ballot;
    ValueChoice choice{v};

    // ---- Phase 1 against every agent (communicate1 / hearback1). ----
    sim::Fanout<DiskMemories::Scan> mem_fan(*exec_);
    for (std::size_t i = 0; i < memories_.size(); ++i) {
      mem_fan.add(i, memories_.phase(i, DiskBlock{ballot, 0, false, {}}));
    }
    transport_->send_all(
        PaxosMsg{PaxosKind::kPrepare, ballot, 0, false, {}}.encode());
    const auto fold = [&](const DiskMemories::Scan& scan) {
      return DiskMemories::fold(scan, ballot, max_seen_, &choice);
    };
    if (!co_await hear_back(mem_fan.results(), ballot, PaxosKind::kPromise,
                            &choice, fold)) {
      co_await exec_->sleep(kRetryBackoff);
      continue;
    }

    // ---- Phase 2 against every agent (communicate2 / analyze2). ----
    const DiskBlock commit{ballot, ballot, true, choice.value};
    sim::Fanout<mem::Status> mem2_fan(*exec_);
    for (std::size_t i = 0; i < memories_.size(); ++i) {
      mem2_fan.add(i, memories_.write(i, commit));
    }
    transport_->send_all(
        PaxosMsg{PaxosKind::kAccept, ballot, 0, true, choice.value}.encode());
    const auto acked = [](mem::Status st) { return st == mem::Status::kAck; };
    if (!co_await hear_back(mem2_fan.results(), ballot, PaxosKind::kAccepted,
                            nullptr, acked)) {
      co_await exec_->sleep(kRetryBackoff);
      continue;
    }

    decide(choice.value);
    transport_->send_all(TransportMux::frame(kMuxDecide, choice.value),
                         /*include_self=*/false);
  }

  co_return decision();
}

}  // namespace mnm::core
