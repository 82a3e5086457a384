#include "src/core/preferential_paxos.hpp"

#include <set>

#include "src/util/serde.hpp"

namespace mnm::core {

Bytes PrioInput::encode() const {
  util::Writer w(12 + value.size() + proof.size() + leader_sig.size());
  w.bytes(value).bytes(proof).bytes(leader_sig);
  return std::move(w).take();
}

std::optional<PrioInput> PrioInput::decode(util::ByteView raw) {
  try {
    util::Reader r(raw);
    PrioInput p;
    p.value = r.bytes();
    p.proof = r.bytes();
    p.leader_sig = r.bytes();
    r.expect_end();
    return p;
  } catch (const util::SerdeError&) {
    return std::nullopt;
  }
}

PreferentialPaxos::PreferentialPaxos(sim::Executor& exec, Transport& setup,
                                     Paxos& paxos, PriorityFn priority)
    : exec_(&exec),
      setup_(&setup),
      paxos_(&paxos),
      priority_(std::move(priority)) {}

sim::Task<PrioInput> PreferentialPaxos::propose(PrioInput input) {
  // Set-up phase (Algorithm 8): T-send our input to all, wait for n − fP
  // inputs (our own arrives through the same broadcast path), adopt the
  // highest-priority one.
  setup_->send_all(input.encode());

  PrioInput best = input;
  int best_priority = priority_(input);
  std::set<ProcessId> senders;
  const std::size_t n = setup_->process_count();
  const std::size_t needed = n - (n - 1) / 2;
  while (senders.size() < needed) {
    TMsg m = co_await setup_->incoming().recv();
    const auto candidate = PrioInput::decode(m.payload);
    if (!candidate.has_value()) continue;       // Byzantine junk: not an input
    if (!senders.insert(m.src).second) continue;  // one input per process
    const int p = priority_(*candidate);
    if (p > best_priority) {
      best_priority = p;
      best = *candidate;
    }
  }

  // Embedded Robust Backup(Paxos) on the adopted input.
  const Bytes decided = co_await paxos_->propose(best.encode());
  const auto out = PrioInput::decode(decided);
  // The decided bytes came through Paxos validity from some process's
  // encoded input; decode failure would mean a correct process proposed
  // garbage, which cannot happen.
  co_return out.value_or(PrioInput{decided, {}, {}});
}

}  // namespace mnm::core
