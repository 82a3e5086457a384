// smr::Replica — the client-facing end of the replication stack.
//
// submit(cmd) batches commands into groups of up to `batch` commands per
// slot (the amortization every log replication system leans on: one
// consensus round commits many commands), and each flush hands the open
// group to smr::Log::enqueue_commands, which encodes it when the slot
// launches. The Log's SlotStats fold carries the per-slot counts and
// latency samples. One Replica per process; the replicated state machine
// is pluggable.
//
// With `tune.enabled` (auto-tuning) the replica owns an smr::Tuner and
// window/batch become live, clamped settings instead of constants: the
// tuner starts from the configured window/batch, the Log's pump reads the
// live window per slot and merges queued groups up to the live batch,
// and kv::Router consults flush_hold() to decide flush-now vs
// pack-more. Requires leader-driven mode (all_propose forces the tuner
// off — per-replica live batching would break the lockstep queues the
// Byzantine engines need).

#pragma once

#include <cstdint>
#include <vector>

#include "src/common.hpp"
#include "src/smr/log.hpp"
#include "src/smr/tuner.hpp"

namespace mnm::smr {

struct ReplicaConfig {
  /// Max commands packed into one slot payload. Clamped into [1, kMaxWindow]
  /// at construction (same rule as LogConfig::window: 0 misbehaved
  /// quietly). With tune.enabled this is the tuner's *initial* batch.
  std::size_t batch = 4;
  LogConfig log{};
  /// Auto-tuning switch + bounds. tune.window/tune.batch are overwritten
  /// with the configured log.window/batch at construction so the static
  /// settings are the controller's starting point — one knob, not two.
  TunerConfig tune{};
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

  /// True while flushing a partial batch now would only queue it behind an
  /// already-saturated window — the pack-more signal kv::Router's flush
  /// task waits out (always false with auto-tuning off, so fixed configs
  /// keep the one-yield flush behavior bit-for-bit).
  bool flush_hold() const {
    return tuner_.enabled() && !open_batch_.empty() &&
           open_batch_.size() < tuner_.batch() && log_.pending() > 0;
  }

  Log& log() { return log_; }
  const Log& log() const { return log_; }
  const Tuner& tuner() const { return tuner_; }
  /// Live batch limit (the tuner's when enabled, the config constant
  /// otherwise).
  std::size_t live_batch() const {
    return tuner_.enabled() ? tuner_.batch() : config_.batch;
  }
  /// No open batch, nothing pending, every proposed slot applied.
  bool idle() const { return open_batch_.empty() && log_.quiescent(); }

 private:
  Tuner tuner_;  // before log_: the log holds a pointer to it
  Log log_;
  ReplicaConfig config_;
  std::vector<Bytes> open_batch_;
};

}  // namespace mnm::smr
