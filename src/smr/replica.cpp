#include "src/smr/replica.hpp"

#include <algorithm>

namespace mnm::smr {

namespace {

/// The controller's effective config: the static window/batch settings are
/// its starting point, and leader-driven mode is required (all_propose
/// replicas must keep their queues in lockstep, which per-replica live
/// batching would break — force the tuner off there).
TunerConfig make_tuner_config(const ReplicaConfig& config) {
  TunerConfig t = config.tune;
  t.enabled = t.enabled && !config.log.all_propose;
  t.window = config.log.window;
  t.batch = config.batch;
  return t;
}

}  // namespace

sim::Time latency_percentile(const std::vector<sim::Time>& sorted, double p) {
  if (sorted.empty()) return 0;
  const std::size_t idx = static_cast<std::size_t>(
      static_cast<double>(sorted.size() - 1) * p / 100.0);
  return sorted[idx];
}

Replica::Replica(sim::Executor& exec, core::ConsensusEngine& engine,
                 core::Omega& omega, StateMachine& sm, ReplicaConfig config)
    : tuner_(make_tuner_config(config)),
      log_(exec, engine, omega, sm, config.log),
      config_(config) {
  // Same validation rule as LogConfig::window (see kMaxWindow): a batch of
  // 0 flushed nothing and grew the open batch without bound.
  config_.batch = std::clamp<std::size_t>(config_.batch, 1, kMaxWindow);
  log_.set_tuner(&tuner_);
}

void Replica::submit(Bytes command) {
  open_batch_.push_back(std::move(command));
  if (open_batch_.size() >= live_batch()) flush();
}

void Replica::flush() {
  // The pump encodes at launch; with the tuner on it merges consecutive
  // groups up to the live batch, so flushing early costs no batching power.
  log_.enqueue_commands(std::move(open_batch_));
  open_batch_.clear();
}

}  // namespace mnm::smr
