#include "src/smr/replica.hpp"

#include <algorithm>

namespace mnm::smr {

sim::Time latency_percentile(const std::vector<sim::Time>& sorted, double p) {
  if (sorted.empty()) return 0;
  const std::size_t idx = static_cast<std::size_t>(
      static_cast<double>(sorted.size() - 1) * p / 100.0);
  return sorted[idx];
}

Replica::Replica(sim::Executor& exec, core::ConsensusEngine& engine,
                 core::Omega& omega, StateMachine& sm, ReplicaConfig config)
    : log_(exec, engine, omega, sm, config.log), config_(config) {
  // Same validation rule as LogConfig::window (see kMaxWindow): a batch of
  // 0 flushed nothing and grew the open batch without bound.
  config_.batch = std::clamp<std::size_t>(config_.batch, 1, kMaxWindow);
}

void Replica::submit(Bytes command) {
  open_batch_.push_back(std::move(command));
  if (open_batch_.size() >= config_.batch) flush();
}

void Replica::flush() {
  log_.enqueue_commands(std::move(open_batch_));
  open_batch_.clear();
}

}  // namespace mnm::smr
