// KV state codec — machine snapshots, range drains, and the payloads behind
// the reconfiguration admin operations (Op::kSeal / kInstall / kPurge).
//
//  * RangeSpec names a set of hash buckets at a config epoch, against a
//    stated table size: the seal and purge payloads, and the request the
//    Migrator's drain passes to a source replica's export_range.
//  * RangeSnapshot is the drained state of a sealed range: the (key, value)
//    pairs and locks of the moving buckets plus the source machine's full
//    session table (merged max-seq at the destination, so a retry
//    straddling the epoch flip still deduplicates).
//
// Snapshots (StateMachine::snapshot) and drains share one section-tagged
// layout: a run of sections `u8 tag, u32 len, body` with strictly
// ascending tags, each written iff its body is non-empty, then a u64 FNV-1a
// checksum over every preceding byte. Equal states encode to identical
// bytes, so the bytes fingerprint themselves. The decoders are strict and
// total: these bytes travel through consensus slots (a Byzantine proposer
// can win a slot with arbitrary bytes) and over the control wire from
// unverified peers. A checksum mismatch, an unknown, repeated or descending
// tag, an empty section, a len that does not frame its body, records out
// of canonical order and trailing bytes all yield nullopt. Nothing here
// throws out of apply.

#pragma once

#include <array>
#include <cstdint>
#include <initializer_list>
#include <optional>
#include <utility>
#include <vector>

#include "src/common.hpp"
#include "src/kv/command.hpp"
#include "src/kv/shard.hpp"
#include "src/util/serde.hpp"

namespace mnm::kv {

/// A set of hash buckets under a table of `table_buckets` buckets, at
/// config epoch `epoch`. Bucket lists are strictly ascending (canonical
/// form; decoders reject anything else).
struct RangeSpec {
  std::uint64_t epoch = 0;
  std::uint32_t table_buckets = 1;  // bucket-array size the ids index into
  std::vector<std::uint32_t> buckets;

  bool operator==(const RangeSpec&) const = default;
};

Bytes encode_range_spec(const RangeSpec& spec);
/// Strict decode: nullopt on truncation, trailing bytes, zero/oversized
/// table, an empty / unsorted / out-of-range bucket list. Never throws.
std::optional<RangeSpec> decode_range_spec(util::ByteView raw);

/// One client session: the last applied seq with its cached reply, and the
/// *prepare mark* — seq and outcome of the newest TxnPrepare this session
/// applied (prepare_seq 0 = none). Decision records never overwrite the
/// mark, so a replayed prepare's outcome survives later same-session
/// records (see StateMachine).
struct SessionRecord {
  ClientId client = 0;
  std::uint64_t last_seq = 0;
  Reply reply;
  std::uint64_t prepare_seq = 0;
  Status prepare_status = Status::kOk;

  bool operator==(const SessionRecord&) const = default;
};

/// One held transaction lock: the pending write buffered at prepare,
/// applied on commit, discarded on abort. The guard fields record the
/// prepare's full payload so a re-prepare by the same (txn, owner) is
/// idempotent only when byte-identical. Locks migrate with their bucket,
/// so a 2PC transaction can straddle a live reshard.
struct LockRecord {
  Bytes key;
  std::uint64_t txn = 0;
  ClientId owner = 0;      // coordinator session holding the lock
  std::uint8_t write = 1;  // txn::WriteKind of the pending mutation
  Bytes value;             // pending kPut payload (empty for kDel)
  bool has_expected = false;  // prepare carried an optimistic guard
  Bytes expected;             // guard value (empty when !has_expected)

  bool operator==(const LockRecord&) const = default;
};

/// The drained state of a sealed range: pairs in key order, sessions in
/// client order, locks in key order — canonical, so equal drains are
/// byte-identical.
struct RangeSnapshot {
  RangeSpec spec;
  std::vector<std::pair<Bytes, Bytes>> pairs;
  std::vector<SessionRecord> sessions;
  std::vector<LockRecord> locks;

  bool operator==(const RangeSnapshot&) const = default;
};

Bytes encode_range_snapshot(const RangeSnapshot& snap);
/// Strict decode + checksum check: nullopt on any malformed byte — state
/// never partially imports.
std::optional<RangeSnapshot> decode_range_snapshot(util::ByteView raw);

// --- The shared section layout -------------------------------------------

enum Section : std::uint8_t {
  kPairsSection = 1,      // bytes key, bytes value — keys ascending
  kSessionsSection = 2,   // SessionRecords — clients ascending
  kLocksSection = 3,      // LockRecords — keys ascending
  kPartitionSection = 4,  // snapshots: u32 group, u64 epoch, bytes owned
  kAppliedSection = 5,    // snapshots: u64 ops_applied
  kStatsSection = 6,      // snapshots: statistics counters
  kRangeSection = 7,      // drains: the RangeSpec
};
inline constexpr std::size_t kSectionCount = 8;

/// Append section `tag` with the bytes `body()` writes to `w`; dropped
/// again when it wrote none.
template <class Body>
void put_section(util::Writer& w, Section tag, Body&& body) {
  const std::size_t at = w.size();
  w.u8(tag).u32(0);
  body();
  const std::size_t len = w.size() - at - 5;
  if (len == 0) {
    w.truncate(at);
  } else {
    w.patch_u32(at + 1, static_cast<std::uint32_t>(len));
  }
}
void put_session(util::Writer& w, const SessionRecord& s);
void put_lock(util::Writer& w, const LockRecord& l);

/// Section bodies by tag; an absent section is an empty view.
using Sections = std::array<util::ByteView, kSectionCount>;
/// Check the checksum trailer and split the framing; nullopt on any
/// violation, or a tag outside `allowed`.
std::optional<Sections> split_sections(util::ByteView raw,
                                       std::initializer_list<Section> allowed);
/// Parse the pairs, sessions and locks sections into `out`; false on a
/// malformed or non-canonical record.
bool get_records(const Sections& s, RangeSnapshot& out);

}  // namespace mnm::kv
