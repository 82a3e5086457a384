#include "src/kv/range.hpp"

#include <algorithm>

namespace mnm::kv {

namespace {

/// The only statuses a TxnPrepare can produce — what a prepare mark carries.
bool prepare_status_valid(std::uint8_t status) {
  const auto st = static_cast<Status>(status);
  return st == Status::kOk || st == Status::kTxnConflict ||
         st == Status::kTxnAborted;
}

bool valid_spec(const RangeSpec& spec) {
  if (spec.table_buckets == 0 || spec.table_buckets > kMaxTableBuckets) {
    return false;
  }
  if (spec.buckets.empty() || spec.buckets.size() > spec.table_buckets) {
    return false;
  }
  for (std::size_t i = 0; i < spec.buckets.size(); ++i) {
    if (spec.buckets[i] >= spec.table_buckets) return false;
    if (i > 0 && spec.buckets[i] <= spec.buckets[i - 1]) return false;
  }
  return true;
}

SessionRecord get_session(util::Reader& r) {
  SessionRecord s;
  s.client = r.u64();
  s.last_seq = r.u64();
  const std::uint8_t status = r.u8();
  s.reply.value = r.bytes();
  s.prepare_seq = r.u64();
  const std::uint8_t prepare_status = r.u8();
  // Only committed outcomes are cacheable (status_persistable); a mark holds
  // a prepare outcome, and no mark holds the default.
  if (!status_persistable(status) || !prepare_status_valid(prepare_status) ||
      (s.prepare_seq == 0 &&
       prepare_status != static_cast<std::uint8_t>(Status::kOk))) {
    throw util::SerdeError("session record: bad status");
  }
  s.reply.status = static_cast<Status>(status);
  s.prepare_status = static_cast<Status>(prepare_status);
  return s;
}

LockRecord get_lock(util::Reader& r) {
  LockRecord l;
  l.key = r.bytes();
  l.txn = r.u64();
  l.owner = r.u64();
  l.write = r.u8();
  l.value = r.bytes();
  l.has_expected = r.boolean();
  l.expected = r.bytes();
  // Canonical form: no guard ⇒ no guard bytes.
  if (l.write < 1 || l.write > 2 || (!l.has_expected && !l.expected.empty())) {
    throw util::SerdeError("lock record: non-canonical");
  }
  return l;
}

}  // namespace

Bytes encode_range_spec(const RangeSpec& spec) {
  util::Writer w(8 + 4 + 4 + 4 * spec.buckets.size());
  w.u64(spec.epoch).u32(spec.table_buckets).u32(
      static_cast<std::uint32_t>(spec.buckets.size()));
  for (const std::uint32_t b : spec.buckets) w.u32(b);
  return std::move(w).take();
}

std::optional<RangeSpec> decode_range_spec(util::ByteView raw) {
  try {
    util::Reader r(raw);
    RangeSpec spec;
    spec.epoch = r.u64();
    spec.table_buckets = r.u32();
    const std::uint32_t count = r.u32();
    if (count == 0 || count > kMaxTableBuckets) return std::nullopt;
    // Peer-controlled count: bound the pre-size by the bytes present.
    spec.buckets.reserve(std::min<std::size_t>(count, r.remaining() / 4));
    for (std::uint32_t i = 0; i < count; ++i) spec.buckets.push_back(r.u32());
    r.expect_end();
    if (!valid_spec(spec)) return std::nullopt;
    return spec;
  } catch (const util::SerdeError&) {
    return std::nullopt;
  }
}

void put_session(util::Writer& w, const SessionRecord& s) {
  w.u64(s.client).u64(s.last_seq).u8(static_cast<std::uint8_t>(s.reply.status));
  w.bytes(s.reply.value).u64(s.prepare_seq);
  w.u8(static_cast<std::uint8_t>(s.prepare_status));
}

void put_lock(util::Writer& w, const LockRecord& l) {
  w.bytes(l.key).u64(l.txn).u64(l.owner).u8(l.write).bytes(l.value);
  w.boolean(l.has_expected).bytes(l.expected);
}

std::optional<Sections> split_sections(util::ByteView raw,
                                       std::initializer_list<Section> allowed) {
  const std::optional<util::ByteView> body = util::checked_body(raw);
  if (!body.has_value()) return std::nullopt;
  Sections out{};
  try {
    util::Reader r(*body);
    std::uint8_t last = 0;
    while (!r.at_end()) {
      const std::uint8_t tag = r.u8();
      if (tag <= last || std::find(allowed.begin(), allowed.end(), tag) ==
                             allowed.end()) {
        return std::nullopt;  // repeated, descending or unknown
      }
      last = tag;
      out[tag] = r.bytes_view();  // throws when len overruns the blob
      if (out[tag].empty()) return std::nullopt;  // empty ⇒ never written
    }
  } catch (const util::SerdeError&) {
    return std::nullopt;
  }
  return out;
}

bool get_records(const Sections& s, RangeSnapshot& out) {
  try {
    for (util::Reader r(s[kPairsSection]); !r.at_end();) {
      Bytes k = r.bytes();
      if (!out.pairs.empty() && k <= out.pairs.back().first) return false;
      Bytes v = r.bytes();
      out.pairs.emplace_back(std::move(k), std::move(v));
    }
    for (util::Reader r(s[kSessionsSection]); !r.at_end();) {
      SessionRecord rec = get_session(r);
      if (!out.sessions.empty() && rec.client <= out.sessions.back().client) {
        return false;
      }
      out.sessions.push_back(std::move(rec));
    }
    for (util::Reader r(s[kLocksSection]); !r.at_end();) {
      LockRecord rec = get_lock(r);
      if (!out.locks.empty() && rec.key <= out.locks.back().key) return false;
      out.locks.push_back(std::move(rec));
    }
  } catch (const util::SerdeError&) {
    return false;
  }
  return true;
}

Bytes encode_range_snapshot(const RangeSnapshot& snap) {
  util::Writer w(256);
  put_section(w, kPairsSection, [&] {
    for (const auto& [k, v] : snap.pairs) w.bytes(k).bytes(v);
  });
  put_section(w, kSessionsSection, [&] {
    for (const SessionRecord& s : snap.sessions) put_session(w, s);
  });
  put_section(w, kLocksSection, [&] {
    for (const LockRecord& l : snap.locks) put_lock(w, l);
  });
  put_section(w, kRangeSection, [&] { w.raw(encode_range_spec(snap.spec)); });
  return std::move(w.checksum()).take();
}

std::optional<RangeSnapshot> decode_range_snapshot(util::ByteView raw) {
  const std::optional<Sections> s =
      split_sections(raw, {kPairsSection, kSessionsSection, kLocksSection,
                           kRangeSection});
  RangeSnapshot snap;
  if (!s.has_value() || !get_records(*s, snap)) return std::nullopt;
  std::optional<RangeSpec> spec = decode_range_spec((*s)[kRangeSection]);
  if (!spec.has_value()) return std::nullopt;
  snap.spec = *std::move(spec);
  return snap;
}

}  // namespace mnm::kv
