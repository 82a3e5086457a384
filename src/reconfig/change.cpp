#include "src/reconfig/change.hpp"

#include <vector>

#include "src/util/serde.hpp"

namespace mnm::reconfig {

Bytes encode_config_change(const ConfigChange& c) {
  util::Writer w(1 + 8 + 4 + 4);
  w.u8(static_cast<std::uint8_t>(c.kind))
      .u64(c.base_epoch)
      .u32(c.src)
      .u32(c.dst);
  return std::move(w).take();
}

std::optional<ConfigChange> decode_config_change(util::ByteView raw) {
  try {
    util::Reader r(raw);
    const std::uint8_t kind = r.u8();
    if (kind < static_cast<std::uint8_t>(ChangeKind::kSplit) ||
        kind > static_cast<std::uint8_t>(ChangeKind::kMerge)) {
      return std::nullopt;
    }
    ConfigChange c;
    c.kind = static_cast<ChangeKind>(kind);
    c.base_epoch = r.u64();
    c.src = r.u32();
    c.dst = r.u32();
    r.expect_end();
    return c;
  } catch (const util::SerdeError&) {
    return std::nullopt;
  }
}

std::optional<kv::ShardTable> apply_change(const kv::ShardTable& t,
                                           const ConfigChange& c) {
  if (!valid_shard_table(t)) return std::nullopt;
  if (c.base_epoch != t.epoch) return std::nullopt;  // stale (or duplicate)
  if (c.src == c.dst) return std::nullopt;
  if (c.src >= t.groups) return std::nullopt;

  kv::ShardTable next = t;
  next.epoch = t.epoch + 1;

  switch (c.kind) {
    case ChangeKind::kSplit: {
      // dst may be an existing group or exactly the next id (add-shard).
      if (c.dst > t.groups || c.dst >= kv::kMaxTableGroups) {
        return std::nullopt;
      }
      if (c.dst == t.groups) next.groups = t.groups + 1;
      std::vector<std::size_t> owned;
      for (std::size_t i = 0; i < next.buckets.size(); ++i) {
        if (next.buckets[i] == c.src) owned.push_back(i);
      }
      if (owned.empty()) return std::nullopt;  // nothing to split
      if (owned.size() == 1) {
        // One bucket cannot halve: double the array first. new[i] =
        // old[i mod B] preserves routing ((h mod 2B) mod B == h mod B), so
        // the doubling itself moves no keys; the reassignment below then
        // splits src's key set by one more hash bit.
        const std::size_t b = next.buckets.size();
        if (2 * b > kv::kMaxTableBuckets) return std::nullopt;
        next.buckets.resize(2 * b);
        for (std::size_t i = 0; i < b; ++i) next.buckets[b + i] = next.buckets[i];
        owned.push_back(owned[0] + b);
      }
      // Move the upper half (ascending bucket order) of src's buckets.
      for (std::size_t i = owned.size() - owned.size() / 2;
           i < owned.size(); ++i) {
        next.buckets[owned[i]] = c.dst;
      }
      break;
    }
    case ChangeKind::kMerge: {
      if (c.dst >= t.groups) return std::nullopt;
      bool moved = false;
      for (std::uint32_t& b : next.buckets) {
        if (b == c.src) {
          b = c.dst;
          moved = true;
        }
      }
      if (!moved) return std::nullopt;  // src already owns nothing
      break;
    }
  }
  if (!valid_shard_table(next)) return std::nullopt;
  return next;
}

}  // namespace mnm::reconfig
