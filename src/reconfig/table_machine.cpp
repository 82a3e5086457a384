#include "src/reconfig/table_machine.hpp"

#include <utility>

#include "src/util/serde.hpp"

namespace mnm::reconfig {

void TableMachine::apply(Slot, util::ByteView command) {
  const std::optional<ConfigChange> c = decode_config_change(command);
  if (!c.has_value()) {
    ++malformed_;  // no-op, deterministically, on every correct replica
    return;
  }
  std::optional<kv::ShardTable> next = apply_change(table_, *c);
  if (!next.has_value()) {
    ++rejected_;  // stale (duplicate re-propose) or invalid: no-op
    return;
  }
  table_ = *std::move(next);
  ++applied_;
  if (sink_) sink_(table_, *c);
}

std::uint64_t TableMachine::state_hash() const {
  std::uint64_t h = kv::shard_table_hash(table_);
  h = util::fnv1a_u64(h, applied_);
  h = util::fnv1a_u64(h, rejected_);
  h = util::fnv1a_u64(h, malformed_);
  return h;
}

Bytes TableMachine::snapshot() const {
  const Bytes table = encode_shard_table(table_);
  util::Writer w(4 + table.size() + 8 * 4);
  // Checksum trailer, as in the KV codec: any corruption fails closed on
  // restore.
  w.bytes(table).u64(applied_).u64(rejected_).u64(malformed_).checksum();
  return std::move(w).take();
}

bool TableMachine::restore(util::ByteView raw) {
  const std::optional<util::ByteView> body = util::checked_body(raw);
  if (!body.has_value()) return false;
  std::optional<kv::ShardTable> table;
  std::uint64_t applied = 0, rejected = 0, malformed = 0;
  try {
    util::Reader r(*body);
    table = kv::decode_shard_table(r.bytes_view());
    applied = r.u64();
    rejected = r.u64();
    malformed = r.u64();
    r.expect_end();
  } catch (const util::SerdeError&) {
    return false;
  }
  if (!table.has_value()) return false;
  table_ = *std::move(table);
  applied_ = applied;
  rejected_ = rejected;
  malformed_ = malformed;
  // Deliberately no sink call: restore() runs on a rejoiner installing a
  // peer's snapshot — the cluster-level view already saw these epochs from
  // the replicas that applied them live.
  return true;
}

}  // namespace mnm::reconfig
