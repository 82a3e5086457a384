// kv::ShardMap / kv::ShardTable — routing policy of the sharded store.
//
// Two routing models share one hash (FNV-1a over the key bytes):
//
//  * ShardMap — static hash partitioning, shard i owns every key whose hash
//    maps to i mod N. The frozen-at-construction model every pre-reconfig
//    run keeps, byte-for-byte.
//  * ShardTable — the *versioned* model behind dynamic reconfiguration
//    (src/reconfig/): an epoch-stamped bucket→group table. A key hashes to
//    bucket h mod B and the table names the owning consensus group. The
//    initial table with N groups has N buckets owned identity-style, so it
//    routes exactly like ShardMap(N); a split doubles the bucket array
//    (new[i] = old[i mod B], which provably preserves routing: (h mod 2B)
//    mod B == h mod B) and then reassigns half of the source group's
//    buckets — one more hash bit — to the destination group.
//
// Each shard/group is one independent consensus group (its own engine
// instances per replica, its own SlotTransportHub slot namespace over a
// TransportMux sub, its own slot-prefixed memory regions via shard_ns), so
// any of the seven paper protocols can back any shard and groups commit in
// parallel. Everything routing-side funnels through shard_of so the policy
// has exactly one home; ShardTable lookups take the table by const
// reference — the table is never copied on the per-op hot path.
//
// The ShardTable codec is strict and total (tables travel through the
// config group's consensus log and through snapshots): malformed bytes
// decode to nullopt deterministically, counts are capped and pre-sizing is
// byte-bounded, trailing garbage is rejected.

#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/common.hpp"

namespace mnm::kv {

class ShardMap {
 public:
  explicit ShardMap(std::size_t shards) : shards_(shards == 0 ? 1 : shards) {}

  std::size_t shards() const { return shards_; }

  static std::uint64_t key_hash(util::ByteView key) {
    return util::fnv1a(util::kFnvBasis, key);
  }

  std::size_t shard_of(util::ByteView key) const {
    return static_cast<std::size_t>(key_hash(key) % shards_);
  }

 private:
  std::size_t shards_;
};

/// Caps on the versioned table: bucket counts double on single-bucket
/// splits, so 4096 buckets supports 12 doublings from one shard; groups are
/// bounded by the TransportMux tag byte (shard groups + the config group
/// must fit in 256 tags).
inline constexpr std::size_t kMaxTableBuckets = 1 << 12;
inline constexpr std::size_t kMaxTableGroups = 256;

/// Epoch-stamped bucket→group routing table. Value type; the epoch
/// increments once per accepted ConfigChange (src/reconfig/), never
/// in-place — routing at epoch e is immutable history.
struct ShardTable {
  std::uint64_t epoch = 0;
  /// Number of consensus groups the table can name (ids [0, groups)); a
  /// group may own zero buckets (pre-activation destination of a split, or
  /// a merged-away source).
  std::uint32_t groups = 1;
  /// buckets[i] = owning group of every key with key_hash(key) % size == i.
  std::vector<std::uint32_t> buckets;

  /// The table that routes exactly like ShardMap(shards): `shards` buckets,
  /// bucket i owned by group i, epoch 0.
  static ShardTable initial(std::size_t shards);

  bool operator==(const ShardTable&) const = default;
};

/// Structural validity: at least one bucket, counts within caps, every
/// bucket names a group < groups. Decoders reject tables that fail this.
bool valid_shard_table(const ShardTable& t);

/// Hash bucket of `key` under `t` (t.buckets must be non-empty).
inline std::size_t bucket_of(const ShardTable& t, util::ByteView key) {
  return static_cast<std::size_t>(ShardMap::key_hash(key) %
                                  t.buckets.size());
}

/// Owning group of `key` under `t` — THE routing policy point of the
/// versioned model. Takes the table by const reference: no copies on the
/// per-op hot path.
inline std::size_t shard_of(const ShardTable& t, util::ByteView key) {
  return static_cast<std::size_t>(t.buckets[bucket_of(t, key)]);
}

/// Deterministic fingerprint of a table (epoch + groups + bucket array),
/// FNV-1a folded — what the config-group agreement check and the
/// determinism suite pin.
std::uint64_t shard_table_hash(const ShardTable& t);

Bytes encode_shard_table(const ShardTable& t);
/// Strict total decode: nullopt on truncation, trailing bytes, counts over
/// the caps, or a bucket naming a group ≥ groups. Pre-sizing is bounded by
/// the bytes actually present. Never throws.
std::optional<ShardTable> decode_shard_table(util::ByteView raw);

/// Per-shard memory-region namespace: "g<group>/<base>". Composed with
/// core::slot_ns by each shard's SlotRegions pool, a shard's slot-s regions
/// live under "s<slot>/g<group>/<base>" — disjoint across groups on the
/// same memories, exactly like the per-slot prefixes within a group.
inline std::string shard_ns(std::size_t group, const char* base) {
  std::string out;
  out.reserve(24);
  out += 'g';
  out += std::to_string(group);
  out += '/';
  out += base;
  return out;
}

/// The config group's region namespace: "cfg/<base>" — disjoint from every
/// "g<i>/" shard namespace on the same memories.
inline std::string config_ns(const char* base) {
  std::string out;
  out.reserve(16);
  out += "cfg/";
  out += base;
  return out;
}

}  // namespace mnm::kv
