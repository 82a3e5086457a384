// smr::Replica — the client-facing end of the replication stack.
//
// submit(cmd) batches commands into groups of up to `batch` commands per
// slot (the amortization every log replication system leans on: one
// consensus round commits many commands), and each flush hands the open
// group to smr::Log::enqueue_commands, which encodes it into one slot
// payload. The Log's SlotStats fold carries the per-slot counts and
// latency samples. One Replica per process; the replicated state machine
// is pluggable.

#pragma once

#include <cstdint>
#include <vector>

#include "src/common.hpp"
#include "src/smr/log.hpp"

namespace mnm::smr {

struct ReplicaConfig {
  /// Max commands packed into one slot payload. Clamped into [1, kMaxWindow]
  /// at construction (same rule as LogConfig::window: 0 misbehaved
  /// quietly).
  std::size_t batch = 4;
  LogConfig log{};
};

/// Index-based percentile over a latency list sorted ascending (p in
/// 0..100, fractional percentiles like 99.9 included; zero when empty).
/// The single definition every harness percentile uses.
sim::Time latency_percentile(const std::vector<sim::Time>& sorted, double p);

class Replica {
 public:
  Replica(sim::Executor& exec, core::ConsensusEngine& engine,
          core::Omega& omega, StateMachine& sm, ReplicaConfig config);

  /// Spawn the log's loops. Call exactly once, after engine.start().
  void start() { log_.start(); }

  /// Queue a command; auto-flushes a full batch into the log.
  void submit(Bytes command);
  /// Flush a partially filled batch.
  void flush();

  Log& log() { return log_; }
  const Log& log() const { return log_; }
  /// No open batch, nothing pending, every proposed slot applied.
  bool idle() const { return open_batch_.empty() && log_.quiescent(); }

 private:
  Log log_;
  ReplicaConfig config_;
  std::vector<Bytes> open_batch_;
};

}  // namespace mnm::smr
