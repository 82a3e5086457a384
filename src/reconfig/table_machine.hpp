// reconfig::TableMachine — the replicated state machine of the config group.
//
// One dedicated consensus group (its own engine instances behind a
// TransportMux sub and the "cfg/" region namespace, reusing
// core::ConsensusEngine unchanged) decides a totally ordered sequence of
// ConfigChange records. Every correct replica applies them through this
// machine: a change that passes apply_change() advances the table one
// epoch; a stale or invalid change is rejected deterministically (counted,
// never a throw out of apply — slots can be won with arbitrary bytes).
//
// The table sink is how the cluster-level actors (kv::Router via
// reconfig::TableView, reconfig::Migrator) learn decided epochs: every
// replica applies every change, each calls the sink, the view keeps the
// first delivery per epoch. Snapshot/restore make the config group
// compactable and rejoinable exactly like a KV shard: a rejoiner installs
// the post-split table from a peer's snapshot before chasing the tip.

#pragma once

#include <cstdint>
#include <functional>

#include "src/common.hpp"
#include "src/kv/shard.hpp"
#include "src/reconfig/change.hpp"
#include "src/smr/log.hpp"

namespace mnm::reconfig {

class TableMachine : public smr::StateMachine {
 public:
  /// Called once per *accepted* change, with the new table (its epoch is
  /// the change's base_epoch + 1) and the change that produced it.
  using TableSink =
      std::function<void(const kv::ShardTable&, const ConfigChange&)>;

  explicit TableMachine(kv::ShardTable initial)
      : table_(std::move(initial)) {}

  void set_table_sink(TableSink sink) { sink_ = std::move(sink); }

  void apply(Slot slot, util::ByteView command) override;

  /// Deterministic full-state codec (table + counters + checksum trailer);
  /// total inverse that fails closed on malformed bytes or a bad checksum.
  Bytes snapshot() const override;
  bool restore(util::ByteView raw) override;

  const kv::ShardTable& table() const { return table_; }

  /// FNV-1a over the table and the accept/reject history — the config
  /// group's cross-replica agreement fingerprint.
  std::uint64_t state_hash() const;

  std::uint64_t changes_applied() const { return applied_; }
  /// Stale (base_epoch mismatch — includes re-proposed duplicates) or
  /// structurally invalid changes, rejected deterministically.
  std::uint64_t changes_rejected() const { return rejected_; }
  /// Commands that failed decode_config_change.
  std::uint64_t malformed() const { return malformed_; }

 private:
  kv::ShardTable table_;
  TableSink sink_;
  std::uint64_t applied_ = 0;
  std::uint64_t rejected_ = 0;
  std::uint64_t malformed_ = 0;
};

}  // namespace mnm::reconfig
