#include "src/core/trusted_messaging.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>

namespace mnm::core::trusted {

void HistoryEntry::encode_into(util::Writer& w) const {
  w.u8(static_cast<std::uint8_t>(kind)).u64(k).u32(peer).bytes(payload).bytes(chain);
  sig.encode(w);
}

Bytes HistoryEntry::encode() const {
  util::Writer w(1 + 8 + 4 + 8 + payload.size() + chain.size() + 8 + sig.mac.size());
  encode_into(w);
  return std::move(w).take();
}

std::optional<HistoryEntry> HistoryEntry::decode(util::Reader& r) {
  try {
    HistoryEntry e;
    const std::uint8_t kind = r.u8();
    if (kind != 1 && kind != 2) return std::nullopt;
    e.kind = static_cast<Kind>(kind);
    e.k = r.u64();
    e.peer = r.u32();
    e.payload = r.bytes();
    e.chain = r.bytes();
    e.sig = crypto::Signature::decode(r);
    return e;
  } catch (const util::SerdeError&) {
    return std::nullopt;
  }
}

namespace {
/// Append one length-prefixed entry encoding to `w` — the single owner of
/// the entry framing shared by encode_history and the incremental
/// per-transport encoding.
void append_prefixed_entry(util::Writer& w, const HistoryEntry& e) {
  const std::size_t at = w.size();
  w.u32(0);
  e.encode_into(w);
  w.patch_u32(at, static_cast<std::uint32_t>(w.size() - at - 4));
}
}  // namespace

Bytes encode_history(const History& h) {
  // One pre-sized buffer; each entry is written in place behind a patched
  // length prefix instead of being encoded into its own temporary.
  std::size_t estimate = 4;
  for (const auto& e : h) {
    estimate += 4 + 1 + 8 + 4 + 8 + e.payload.size() + e.chain.size() + 8 +
                e.sig.mac.size();
  }
  util::Writer w(estimate);
  w.u32(static_cast<std::uint32_t>(h.size()));
  for (const auto& e : h) append_prefixed_entry(w, e);
  return std::move(w).take();
}

Bytes chain_entry(const Bytes& prev_chain, HistoryEntry::Kind kind,
                  std::uint64_t k, ProcessId peer, util::ByteView payload) {
  util::Writer w(4 + prev_chain.size() + 1 + 8 + 4 + 4 + payload.size());
  w.bytes(prev_chain).u8(static_cast<std::uint8_t>(kind)).u64(k).u32(peer).bytes(payload);
  return crypto::digest_bytes(crypto::sha256(w.data()));
}

bool verify_history_suffix(const crypto::KeyStore& ks, ProcessId owner,
                           const HistoryEntry* entries, std::size_t count,
                           Bytes& prev_chain, std::uint64_t& expected_sent) {
  for (std::size_t i = 0; i < count; ++i) {
    const HistoryEntry& e = entries[i];
    if (e.chain != chain_entry(prev_chain, e.kind, e.k, e.peer, e.payload)) {
      return false;
    }
    if (!ks.valid_from(owner, e.chain, e.sig)) return false;
    if (e.kind == HistoryEntry::Kind::kSent) {
      if (e.k != expected_sent) return false;
      ++expected_sent;
    }
    prev_chain = e.chain;
  }
  return true;
}

bool verify_history_structure(const crypto::KeyStore& ks, ProcessId owner,
                              const History& h) {
  Bytes prev_chain;  // empty seed
  std::uint64_t expected_sent = 1;
  return verify_history_suffix(ks, owner, h.data(), h.size(), prev_chain,
                               expected_sent);
}

namespace {
/// The single owner of the T-send wire layout, taking the history as its
/// pre-encoded body so callers that maintain the encoding incrementally
/// never have to materialize a concatenation. The body leads the wire (see
/// trusted_messaging.hpp): append-only bodies give consecutive wires a long
/// shared prefix, which NEB's digest-over-suffix verification exploits. A
/// zero length-prefix terminates the entry stream (entries are never empty).
Bytes encode_tsend_wire(ProcessId dst, util::ByteView payload,
                        util::ByteView history_body, std::uint64_t k,
                        const crypto::Signature& sig) {
  util::Writer w(history_body.size() + 4 + 4 + 4 + payload.size() + 8 + 8 +
                 sig.mac.size());
  w.raw(history_body);
  w.u32(0);  // entry-stream terminator
  w.u32(dst).bytes(payload).u64(k);
  sig.encode(w);
  return std::move(w).take();
}
}  // namespace

Bytes encode_tsend(ProcessId dst, util::ByteView payload, const History& h,
                   std::uint64_t k, const crypto::Signature& sig) {
  const Bytes enc = encode_history(h);
  return encode_tsend_wire(dst, payload, util::ByteView(enc).subspan(4), k,
                           sig);
}

std::optional<TSendContent> decode_tsend(util::ByteView raw,
                                         util::ByteView verified_prefix,
                                         std::size_t prefix_entries,
                                         std::size_t known_shared) {
  try {
    TSendContent c;
    // Hop over the verified prefix if the wire leads with exactly those
    // bytes. The prefix is a concatenation of well-formed length-prefixed
    // entry frames, so a byte-identical wire prefix parses to the same
    // entries with a frame boundary exactly at its end — no decode needed.
    // Only the residual past `known_shared` is compared; both inputs are
    // receiver-established (stored verified bytes / NEB delivered-prefix
    // identity), never fields of the incoming message.
    std::size_t skip = 0;
    if (prefix_entries > 0 && !verified_prefix.empty() &&
        raw.size() > verified_prefix.size()) {
      const std::size_t from = std::min(known_shared, verified_prefix.size());
      const std::size_t residual = verified_prefix.size() - from;
      c.prefix_bytes_compared = residual;  // paid whether or not it matches
      if (residual == 0 ||
          std::memcmp(raw.data() + from, verified_prefix.data() + from,
                      residual) == 0) {
        skip = verified_prefix.size();
        c.prefix_entries = prefix_entries;
      }
    }
    util::Reader r(raw.subspan(skip));
    while (true) {
      const util::ByteView entry_bytes = r.bytes_view();
      if (entry_bytes.empty()) break;  // terminator
      util::Reader er(entry_bytes);
      auto e = HistoryEntry::decode(er);
      if (!e.has_value()) return std::nullopt;
      // Reject trailing bytes inside an entry frame: entry encodings must
      // be canonical so that NEB's prefix-digest sharing (and any raw-byte
      // comparison of wires) cannot be defeated by a Byzantine sender
      // alternating encodings of the same history.
      er.expect_end();
      c.suffix.push_back(std::move(*e));
    }
    // Everything before the 4-byte terminator is the history body
    // (including any skipped prefix).
    c.history_body = raw.subspan(0, raw.size() - r.remaining() - 4);
    c.dst = r.u32();
    c.payload = r.bytes();
    c.k = r.u64();
    c.sig = crypto::Signature::decode(r);
    r.expect_end();
    return c;
  } catch (const util::SerdeError&) {
    return std::nullopt;
  }
}

Bytes tsend_signing_bytes(std::uint64_t k, ProcessId dst, util::ByteView payload,
                          const Bytes& history_digest) {
  util::Writer w(4 + 5 + 8 + 4 + crypto::kSha256DigestSize + 4 +
                 history_digest.size());
  w.str("tsend")
      .u64(k)
      .u32(dst)
      .raw(crypto::digest_bytes(crypto::sha256(payload)))
      .bytes(history_digest);
  return std::move(w).take();
}

Bytes Receipt::encode() const {
  util::Writer w(4 + 4 + payload.size() + 4 + history_digest.size() + 8 +
                 origin_sig.mac.size());
  w.u32(dst).bytes(payload).bytes(history_digest);
  origin_sig.encode(w);
  return std::move(w).take();
}

std::optional<Receipt> Receipt::decode(util::ByteView raw) {
  try {
    util::Reader r(raw);
    Receipt rec;
    rec.dst = r.u32();
    rec.payload = r.bytes();
    rec.history_digest = r.bytes();
    rec.origin_sig = crypto::Signature::decode(r);
    r.expect_end();
    return rec;
  } catch (const util::SerdeError&) {
    return std::nullopt;
  }
}

bool verify_receipt(const crypto::KeyStore& ks, ProcessId origin,
                    std::uint64_t k, const Receipt& r) {
  return ks.valid_from(
      origin, tsend_signing_bytes(k, r.dst, r.payload, r.history_digest),
      r.origin_sig);
}

TrustedTransport::TrustedTransport(sim::Executor& exec, NonEquivBroadcast& neb,
                                   const crypto::KeyStore& keystore,
                                   crypto::Signer signer,
                                   HistoryValidator validator)
    : exec_(&exec),
      neb_(&neb),
      keystore_(&keystore),
      signer_(signer),
      validator_(std::move(validator)),
      incoming_(exec) {}

void TrustedTransport::start() {
  assert(!started_);
  started_ = true;
  exec_->spawn(deliver_loop());
}

void TrustedTransport::append_entry(HistoryEntry::Kind kind, std::uint64_t k,
                                    ProcessId peer, util::ByteView payload) {
  const Bytes prev = history_.empty() ? Bytes{} : history_.back().chain;
  HistoryEntry e;
  e.kind = kind;
  e.k = k;
  e.peer = peer;
  e.payload = util::to_bytes(payload);
  e.chain = chain_entry(prev, kind, k, peer, payload);
  e.sig = signer_.sign(e.chain);
  // Keep the incremental encoding in lockstep with history_.
  util::Writer w(4 + 1 + 8 + 4 + 8 + e.payload.size() + e.chain.size() + 8 +
                 e.sig.mac.size());
  append_prefixed_entry(w, e);
  const Bytes& entry_enc = w.data();
  encoded_body_.insert(encoded_body_.end(), entry_enc.begin(), entry_enc.end());
  history_.push_back(std::move(e));
}

namespace {
sim::Task<void> run_broadcast(NonEquivBroadcast* neb, Bytes wire) {
  (void)co_await neb->broadcast(std::move(wire));
}
}  // namespace

void TrustedTransport::send(ProcessId dst, util::Buffer payload) {
  // Algorithm 3 T-send: k++; broadcast(k, (m, H)); append sent(k, m) to H.
  // The wire is produced from the incrementally-maintained encoded_body_,
  // and the history is bound by its chain tip — O(1), no re-hash of the
  // encoding (the chain already commits to every entry).
  const std::uint64_t k = next_k_++;
  const Bytes history_digest =
      history_.empty() ? Bytes{} : history_.back().chain;

  const crypto::Signature sig =
      signer_.sign(tsend_signing_bytes(k, dst, payload, history_digest));

  Bytes wire = encode_tsend_wire(dst, payload, encoded_body_, k, sig);

  append_entry(HistoryEntry::Kind::kSent, k, dst, payload);
  // Fire-and-forget: the broadcast completes (majority ack) in background.
  exec_->spawn(run_broadcast(neb_, std::move(wire)));
}

sim::Task<void> TrustedTransport::deliver_loop() {
  while (true) {
    const NebDelivery d = co_await neb_->deliveries().recv();
    ++stats_.deliveries;
    // Fold this wire into the prefix-identity anchor *before* decoding: NEB
    // verified the wire's first `shared_prefix` bytes equal the sender's
    // previous delivered wire, of which the first `neb_known` bytes are
    // known equal to our stored verified body — min-composing keeps the
    // identity receiver-anchored across deliveries, including rejected ones
    // (NEB's prev-delivered advances on those too).
    PeerCache& pc = peer_cache_[d.from];
    pc.neb_known = std::min<std::size_t>(pc.neb_known, d.shared_prefix);
    // Decode only past the verified prefix. Histories only ever extend, so a
    // wire whose leading bytes match the prefix we already verified on this
    // sender's previous message needs neither re-decoding nor re-verifying —
    // at most one residual memcmp bounded by the stored prefix. The compare
    // is against our stored verified bytes: a chain value read out of the
    // *incoming* prefix is attacker-supplied and proves nothing
    // (paxos_validator may resume from its committed state only because the
    // transport anchors prefix identity this way).
    auto content =
        decode_tsend(d.message, pc.body, pc.entries, pc.neb_known);
    if (!content.has_value()) {
      ++rejected_;
      continue;
    }
    stats_.entries_decoded += content->suffix.size();
    stats_.entries_skipped += content->prefix_entries;
    stats_.prefix_bytes_compared += content->prefix_bytes_compared;
    // Structural audit of the attached history's new entries: hash chain
    // intact, every link signed by the sender, sent-sequence contiguous,
    // and the NEB sequence number matches the number of prior sends.
    const util::ByteView body = content->history_body;
    Bytes prev_chain;
    std::uint64_t expected_sent = 1;
    if (content->prefix_entries > 0) {
      prev_chain = pc.last_chain;
      expected_sent = pc.expected_sent;
    }
    if (!verify_history_suffix(*keystore_, d.from, content->suffix.data(),
                               content->suffix.size(), prev_chain,
                               expected_sent)) {
      ++rejected_;
      continue;
    }
    // verify_history_suffix left expected_sent at 1 + (#kSent entries in the
    // whole history), i.e. prior sends + 1 — no re-scan needed. It also left
    // prev_chain at the chain tip, which *is* the history digest the inner
    // signature binds (empty history ⇒ empty digest) — no O(history) hash.
    if (expected_sent != d.k || content->k != d.k) {
      ++rejected_;
      continue;
    }
    // The sender's inner signature must bind (k, dst, payload, history) —
    // this is what makes receipts citable later.
    const Bytes& history_digest = prev_chain;
    if (!keystore_->valid_from(d.from,
                               tsend_signing_bytes(d.k, content->dst,
                                                   content->payload,
                                                   history_digest),
                               content->sig)) {
      ++rejected_;
      continue;
    }
    // Protocol-level audit ("whether they correspond to a correct history of
    // the algorithm", Algorithm 3 line 10), resumable: the validator sees
    // only the suffix and commits its replay state iff it accepts, so its
    // per-owner position and our prefix cache advance (and roll back on
    // reject) in lockstep.
    ValidatorCall vc;
    vc.owner = d.from;
    vc.suffix = content->suffix.data();
    vc.suffix_len = content->suffix.size();
    vc.prefix_entries = content->prefix_entries;
    vc.k = d.k;
    vc.dst = content->dst;
    vc.payload = &content->payload;
    if (!validator_(vc)) {
      ++rejected_;
      continue;
    }
    // All checks passed: remember this sender's now-verified prefix. On a
    // cache hit the existing body bytes were just confirmed equal, so only
    // the new suffix needs appending; the whole body is by construction a
    // prefix of this delivered wire, re-seeding the identity anchor.
    pc.entries = content->prefix_entries + content->suffix.size();
    if (content->prefix_entries > 0) {
      pc.body.insert(pc.body.end(),
                     body.begin() + static_cast<std::ptrdiff_t>(pc.body.size()),
                     body.end());
    } else {
      pc.body.assign(body.begin(), body.end());
    }
    pc.last_chain = prev_chain;
    pc.expected_sent = expected_sent;
    pc.neb_known = pc.body.size();
    ++stats_.accepted;
    // T-receive: record a standalone-verifiable receipt in our own history,
    // hand the message to the protocol if it is addressed to us.
    const Receipt receipt{content->dst, content->payload, history_digest,
                          content->sig};
    append_entry(HistoryEntry::Kind::kReceived, d.k, d.from, receipt.encode());
    if (content->dst == self() || content->dst == kToAll) {
      incoming_.send(TMsg{d.from, Bytes(std::move(content->payload))});
    }
  }
}

}  // namespace mnm::core::trusted
