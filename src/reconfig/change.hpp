// reconfig::ConfigChange — one decided step of the shard-routing history.
//
// The config group (a dedicated consensus group, see reconfig::TableMachine)
// decides a totally ordered sequence of these records; each accepted record
// produces the next epoch's kv::ShardTable. Three shapes, all expressed as
// (kind, src, dst):
//
//  * split  — move the upper half of src's buckets (one more hash bit) to
//             dst. dst == table.groups activates a brand-new group
//             (add-shard); a src owning a single bucket first doubles the
//             bucket array, which preserves routing exactly.
//  * merge  — move every bucket src owns to dst; src keeps its group id but
//             owns nothing afterwards.
//
// Application is CAS-style: a change carries the epoch it was computed
// against (`base_epoch`) and applies iff the table is still at that epoch.
// A re-proposed duplicate (client retry, leader hand-off re-propose) sees a
// bumped epoch and is rejected deterministically on every correct replica —
// the exactly-once rule for configuration, without sessions.
//
// The codec is strict and total, mirroring the catch-up decoder-hygiene
// rules: malformed bytes decode to nullopt, never a throw out of apply.

#pragma once

#include <cstdint>
#include <optional>

#include "src/common.hpp"
#include "src/kv/shard.hpp"

namespace mnm::reconfig {

enum class ChangeKind : std::uint8_t {
  kSplit = 1,
  kMerge = 2,
};

struct ConfigChange {
  ChangeKind kind = ChangeKind::kSplit;
  /// Table epoch this change was computed against; the change applies iff
  /// the table is still at this epoch (deterministic stale-reject).
  std::uint64_t base_epoch = 0;
  std::uint32_t src = 0;  // group losing buckets (split) / absorbed (merge)
  std::uint32_t dst = 0;  // group gaining buckets; == groups ⇒ add-shard

  bool operator==(const ConfigChange&) const = default;
};

Bytes encode_config_change(const ConfigChange& c);
/// Strict decode; nullopt on bad kind byte, truncation or trailing bytes.
std::optional<ConfigChange> decode_config_change(util::ByteView raw);

/// Apply `c` to `t`: the next epoch's table, or nullopt when the change is
/// stale (base_epoch mismatch) or structurally invalid (unknown groups,
/// src == dst, src owns nothing, split past the bucket cap). Deterministic
/// and side-effect free — every correct replica of the config group computes
/// the same accept/reject verdict.
std::optional<kv::ShardTable> apply_change(const kv::ShardTable& t,
                                           const ConfigChange& c);

}  // namespace mnm::reconfig
