// Tests for trusted messaging (T-send/T-receive, Algorithm 3): history
// chains, receipts, structural verification, and the Paxos history validator
// that makes Byzantine ≡ crash.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <vector>

#include "src/core/nonequiv_broadcast.hpp"
#include "src/core/paxos.hpp"
#include "src/core/paxos_validator.hpp"
#include "src/core/transport_mux.hpp"
#include "src/core/trusted_messaging.hpp"
#include "src/mem/memory.hpp"
#include "src/sim/executor.hpp"

namespace mnm::core::trusted {
namespace {

using sim::Executor;
using sim::Task;
using util::to_bytes;
using util::to_string;

struct TrustedFixture {
  explicit TrustedFixture(std::size_t n,
                          HistoryValidator validator = accept_all_validator())
      : n(n), keystore(11) {
    for (std::size_t i = 0; i < 3; ++i) {
      auto mp = std::make_unique<mem::Memory>(exec, static_cast<MemoryId>(i + 1));
      regions = make_neb_regions(*mp, n);
      memories.push_back(std::move(mp));
      iface.push_back(memories.back().get());
    }
    for (ProcessId p : all_processes(n)) {
      signers.push_back(keystore.register_process(p));
      slots.push_back(std::make_unique<NebSlots>(exec, iface, regions));
      nebs.push_back(std::make_unique<NonEquivBroadcast>(
          exec, *slots.back(), keystore, signers.back()));
      transports.push_back(std::make_unique<TrustedTransport>(
          exec, *nebs.back(), keystore, signers.back(), validator));
    }
  }

  void start_all() {
    for (std::size_t i = 0; i < n; ++i) {
      nebs[i]->start();
      transports[i]->start();
    }
  }

  std::size_t n;
  Executor exec;
  crypto::KeyStore keystore;
  std::vector<std::unique_ptr<mem::Memory>> memories;
  std::vector<mem::MemoryIface*> iface;
  NebRegions regions;
  std::vector<crypto::Signer> signers;
  std::vector<std::unique_ptr<NebSlots>> slots;
  std::vector<std::unique_ptr<NonEquivBroadcast>> nebs;
  std::vector<std::unique_ptr<TrustedTransport>> transports;
};

TEST(HistoryStructure, ChainVerifies) {
  crypto::KeyStore ks(1);
  crypto::Signer s = ks.register_process(1);
  History h;
  Bytes prev;
  for (int i = 1; i <= 3; ++i) {
    HistoryEntry e;
    e.kind = HistoryEntry::Kind::kSent;
    e.k = static_cast<std::uint64_t>(i);
    e.peer = kToAll;
    e.payload = to_bytes("m" + std::to_string(i));
    e.chain = chain_entry(prev, e.kind, e.k, e.peer, e.payload);
    e.sig = s.sign(e.chain);
    prev = e.chain;
    h.push_back(e);
  }
  EXPECT_TRUE(verify_history_structure(ks, 1, h));
}

TEST(HistoryStructure, TamperedPayloadBreaksChain) {
  crypto::KeyStore ks(1);
  crypto::Signer s = ks.register_process(1);
  History h;
  HistoryEntry e;
  e.kind = HistoryEntry::Kind::kSent;
  e.k = 1;
  e.peer = kToAll;
  e.payload = to_bytes("original");
  e.chain = chain_entry({}, e.kind, e.k, e.peer, e.payload);
  e.sig = s.sign(e.chain);
  h.push_back(e);
  ASSERT_TRUE(verify_history_structure(ks, 1, h));

  h[0].payload = to_bytes("revised!");  // retroactive edit
  EXPECT_FALSE(verify_history_structure(ks, 1, h));
}

TEST(HistoryStructure, SkippedSeqRejected) {
  crypto::KeyStore ks(1);
  crypto::Signer s = ks.register_process(1);
  History h;
  HistoryEntry e;
  e.kind = HistoryEntry::Kind::kSent;
  e.k = 2;  // should be 1
  e.peer = kToAll;
  e.payload = to_bytes("m");
  e.chain = chain_entry({}, e.kind, e.k, e.peer, e.payload);
  e.sig = s.sign(e.chain);
  h.push_back(e);
  EXPECT_FALSE(verify_history_structure(ks, 1, h));
}

TEST(HistoryStructure, WrongSignerRejected) {
  crypto::KeyStore ks(1);
  crypto::Signer s1 = ks.register_process(1);
  (void)ks.register_process(2);
  History h;
  HistoryEntry e;
  e.kind = HistoryEntry::Kind::kSent;
  e.k = 1;
  e.peer = kToAll;
  e.payload = to_bytes("m");
  e.chain = chain_entry({}, e.kind, e.k, e.peer, e.payload);
  e.sig = s1.sign(e.chain);
  h.push_back(e);
  EXPECT_TRUE(verify_history_structure(ks, 1, h));
  EXPECT_FALSE(verify_history_structure(ks, 2, h));  // claimed owner mismatch
}

TEST(TSendWire, PaddedHistoryEntryFrameRejected) {
  // The deliver loop's prefix cache byte-compares the *raw* wire body, so
  // decode_tsend must reject non-canonical entry frames (trailing bytes
  // inside a length prefix) — otherwise a Byzantine sender could alternate
  // encodings of one history and force full re-verification every message.
  crypto::KeyStore ks(9);
  crypto::Signer s = ks.register_process(1);
  History h;
  HistoryEntry e;
  e.kind = HistoryEntry::Kind::kSent;
  e.k = 1;
  e.peer = kToAll;
  e.payload = to_bytes("m");
  e.chain = chain_entry({}, e.kind, e.k, e.peer, e.payload);
  e.sig = s.sign(e.chain);
  h.push_back(e);
  const Bytes payload = to_bytes("p");
  const crypto::Signature sig = s.sign(to_bytes("outer"));

  const Bytes canonical = encode_tsend(2, payload, h, 2, sig);
  ASSERT_TRUE(decode_tsend(canonical).has_value());

  // Same content, but the entry frame carries one trailing garbage byte.
  Bytes entry_enc = h[0].encode();
  entry_enc.push_back(0x5a);
  util::Writer w;
  w.bytes(entry_enc);  // padded frame
  w.u32(0);            // terminator
  w.u32(2).bytes(payload).u64(2);
  sig.encode(w);
  EXPECT_FALSE(decode_tsend(std::move(w).take()).has_value());
}

TEST(TrustedTransport, FabricatedPrefixWithCopiedChainTipRejected) {
  // Attack on the deliver-side prefix cache: after two honest sends, the
  // receiver's cache holds (entries=1, tip=chain_1). A Byzantine sender then
  // attaches a history whose first entry is fabricated but carries the
  // *copied* real chain tip (and a genuine signature over it — entry sigs
  // cover only the chain value). The cache-hit check must compare stored
  // verified bytes, not incoming chain fields, so this message is rejected:
  // the fabricated entry's recomputed chain does not match.
  TrustedFixture f(3);
  f.start_all();
  f.transports[1]->send_all(to_bytes("one"));
  f.exec.run(300);
  f.transports[1]->send_all(to_bytes("two"));
  f.exec.run(300);
  ASSERT_EQ(f.transports[0]->rejected(), 0u);

  // Craft the malicious third broadcast by hand and push it through p2's
  // (honest) NEB as its k=3 broadcast.
  crypto::Signer& s2 = f.signers[1];
  const Bytes real_chain1 =
      chain_entry({}, HistoryEntry::Kind::kSent, 1, kToAll, to_bytes("one"));
  HistoryEntry fab;
  fab.kind = HistoryEntry::Kind::kSent;
  fab.k = 1;
  fab.peer = kToAll;
  fab.payload = to_bytes("EVIL");   // not what was really sent
  fab.chain = real_chain1;          // copied real tip
  fab.sig = s2.sign(fab.chain);     // genuinely signed (sigs cover the chain)
  HistoryEntry e2;
  e2.kind = HistoryEntry::Kind::kSent;
  e2.k = 2;
  e2.peer = kToAll;
  e2.payload = to_bytes("two");
  e2.chain = chain_entry(real_chain1, e2.kind, e2.k, e2.peer, e2.payload);
  e2.sig = s2.sign(e2.chain);
  History h{fab, e2};
  const Bytes payload3 = to_bytes("three");
  const crypto::Signature outer =
      s2.sign(tsend_signing_bytes(3, kToAll, payload3, e2.chain));
  const Bytes wire = encode_tsend(kToAll, payload3, h, 3, outer);
  f.exec.spawn([](NonEquivBroadcast* neb, Bytes wire) -> sim::Task<void> {
    (void)co_await neb->broadcast(std::move(wire));
  }(f.nebs[1].get(), wire));
  f.exec.run(500);

  EXPECT_GE(f.transports[0]->rejected(), 1u);
  EXPECT_GE(f.transports[2]->rejected(), 1u);
}

/// Build a well-chained, properly signed kSent entry (helper for crafting
/// adversarial histories below).
HistoryEntry make_sent_entry(crypto::Signer& s, const Bytes& prev_chain,
                             std::uint64_t k, ProcessId dst,
                             const Bytes& payload) {
  HistoryEntry e;
  e.kind = HistoryEntry::Kind::kSent;
  e.k = k;
  e.peer = dst;
  e.payload = payload;
  e.chain = chain_entry(prev_chain, e.kind, e.k, e.peer, e.payload);
  e.sig = s.sign(e.chain);
  return e;
}

sim::Task<void> raw_broadcast(NonEquivBroadcast* neb, Bytes wire) {
  (void)co_await neb->broadcast(std::move(wire));
}

TEST(TSendWire, PrefixClaimLongerThanWireFallsBackToFullDecode) {
  // decode_tsend must never trust a verified prefix longer than the wire:
  // it falls back to decoding from entry 0 (and must not read past the
  // buffer — the ASan job watches this path).
  crypto::KeyStore ks(5);
  crypto::Signer s = ks.register_process(1);
  History h{make_sent_entry(s, {}, 1, kToAll, to_bytes("m"))};
  const crypto::Signature sig =
      s.sign(tsend_signing_bytes(2, kToAll, to_bytes("p"), h[0].chain));
  const Bytes wire = encode_tsend(kToAll, to_bytes("p"), h, 2, sig);

  Bytes long_prefix(wire.size() + 64, 0x7e);
  const auto c = decode_tsend(wire, long_prefix, /*prefix_entries=*/9);
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->prefix_entries, 0u);
  EXPECT_EQ(c->suffix.size(), 1u);

  // A prefix that is the right length but not *our* bytes must not be
  // skipped either — the memcmp anchors identity in receiver-stored bytes.
  const Bytes real_body = util::to_bytes(c->history_body);
  Bytes fake_body = real_body;
  fake_body[fake_body.size() / 2] ^= 0x01;
  const auto miss = decode_tsend(wire, fake_body, /*prefix_entries=*/1);
  ASSERT_TRUE(miss.has_value());
  EXPECT_EQ(miss->prefix_entries, 0u);
  EXPECT_EQ(miss->suffix.size(), 1u);

  // And the genuine stored bytes are skipped — suffix-only decode.
  const auto hit = decode_tsend(wire, real_body, /*prefix_entries=*/1);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->prefix_entries, 1u);
  EXPECT_EQ(hit->suffix.size(), 0u);
  EXPECT_EQ(hit->prefix_bytes_compared, real_body.size());
}

TEST(TrustedTransport, PrefixClaimLongerThanReceiverStoredRejected) {
  // A Byzantine broadcaster writes a NEB slot claiming more shared-prefix
  // bytes than the receiver's stored previous delivered message has. The
  // claim is unverifiable (those bytes are outside what the signature's
  // suffix digest covers), so NEB must refuse delivery outright.
  TrustedFixture f(3);
  f.start_all();
  f.transports[1]->send_all(to_bytes("one"));
  f.exec.run(300);
  f.transports[1]->send_all(to_bytes("two"));
  f.exec.run(300);
  ASSERT_EQ(f.transports[0]->tsend_stats().accepted, 2u);

  // Craft p2's k=3 wire honestly — from its *real* history (sends plus the
  // receipts its own audits appended) — but claim a prefix longer than the
  // receivers' stored k=2 delivery.
  crypto::Signer& s2 = f.signers[1];
  const History h = f.transports[1]->history();
  ASSERT_EQ(h.size(), 4u);  // sent one, receipt, sent two, receipt
  const Bytes payload3 = to_bytes("three");
  const crypto::Signature outer =
      s2.sign(tsend_signing_bytes(3, kToAll, payload3, h.back().chain));
  const Bytes wire3 = encode_tsend(kToAll, payload3, h, 3, outer);

  const std::uint32_t bogus_claim = static_cast<std::uint32_t>(wire3.size());
  const crypto::Signature slot_sig =
      s2.sign(neb_signing_bytes(3, wire3, bogus_claim));
  const Bytes slot_bytes = encode_neb_slot(3, wire3, slot_sig, bogus_claim);
  f.exec.spawn([](TrustedFixture* f, Bytes slot_bytes) -> sim::Task<void> {
    for (auto* m : f->iface) {
      (void)co_await m->write(2, f->regions.per_process.at(2), "neb/2/3/2", slot_bytes);
    }
  }(&f, slot_bytes));
  f.exec.run(500);

  // Never delivered: the transports saw no third message at all.
  EXPECT_EQ(f.transports[0]->tsend_stats().deliveries, 2u);
  EXPECT_EQ(f.transports[0]->rejected(), 0u);

  // The same wire with an honest claim goes through — and rides the
  // suffix-only path: the two entries the receivers verified on message 2
  // are hopped over, only the two new ones are decoded.
  f.exec.spawn(raw_broadcast(f.nebs[1].get(), wire3));
  f.exec.run(500);
  const TsendStats& st = f.transports[0]->tsend_stats();
  EXPECT_EQ(st.accepted, 3u);
  EXPECT_EQ(st.entries_skipped, 2u);
  EXPECT_EQ(st.entries_decoded, 4u);  // 0 + 2 + 2 entries per message
}

TEST(TrustedTransport, ByteFlipInsideClaimedSharedPrefixRejected) {
  // The suffix digest deliberately does not cover the claimed shared
  // prefix; the *only* thing standing between a Byzantine sender and a
  // revised prefix is the receiver-side byte compare. Flip one byte inside
  // the claimed region: (a) if the claim covers the flip, NEB's compare
  // against the previous delivered message must refuse delivery; (b) if the
  // claim honestly stops before the flip, NEB delivers and the transport's
  // residual compare must reject — full re-decode, chain mismatch.
  TrustedFixture f(3);
  f.start_all();
  f.transports[1]->send_all(to_bytes("one"));
  f.exec.run(300);
  f.transports[1]->send_all(to_bytes("two"));
  f.exec.run(300);
  ASSERT_EQ(f.transports[0]->tsend_stats().accepted, 2u);

  crypto::Signer& s2 = f.signers[1];
  const History h = f.transports[1]->history();
  const Bytes payload3 = to_bytes("three");
  const crypto::Signature outer =
      s2.sign(tsend_signing_bytes(3, kToAll, payload3, h.back().chain));
  Bytes wire3 = encode_tsend(kToAll, payload3, h, 3, outer);
  // Flip a byte inside the first entry's frame — well inside the region the
  // receivers verified on message 2.
  const std::size_t flip = 21;  // payload byte of entry 1
  wire3[flip] ^= 0x01;

  // (a) Claim covers the flip: the NEB-level compare must catch it.
  const std::uint32_t covering_claim = static_cast<std::uint32_t>(flip + 8);
  const crypto::Signature slot_sig =
      s2.sign(neb_signing_bytes(3, wire3, covering_claim));
  const Bytes slot_bytes = encode_neb_slot(3, wire3, slot_sig, covering_claim);
  f.exec.spawn([](TrustedFixture* f, Bytes slot_bytes) -> sim::Task<void> {
    for (auto* m : f->iface) {
      (void)co_await m->write(2, f->regions.per_process.at(2), "neb/2/3/2", slot_bytes);
    }
  }(&f, slot_bytes));
  f.exec.run(500);
  EXPECT_EQ(f.transports[0]->tsend_stats().deliveries, 2u);  // no delivery

  // (b) Honest claim (stops at the flip, computed by broadcast()): NEB
  // delivers, and the transport's residual prefix compare rejects — the
  // flipped prefix never rides the suffix-only path.
  f.exec.spawn(raw_broadcast(f.nebs[1].get(), wire3));
  f.exec.run(500);
  const TsendStats& st = f.transports[0]->tsend_stats();
  EXPECT_EQ(st.deliveries, 3u);
  EXPECT_EQ(st.accepted, 2u);
  EXPECT_GE(f.transports[0]->rejected(), 1u);
  EXPECT_EQ(st.entries_skipped, 0u);  // the flip forced a full re-decode
}

TEST(TrustedTransport, SuffixSeqRewindRejectedThenHonestRetryAccepted) {
  // Suffix entries whose sent-seqs rewind must be rejected even when the
  // verified prefix matches (the chain can be internally consistent — the
  // monotone sent-seq check is what catches it), and the reject must roll
  // the caches back so a subsequent honest message still verifies.
  TrustedFixture f(3);
  f.start_all();
  f.transports[1]->send_all(to_bytes("one"));
  f.exec.run(300);
  f.transports[1]->send_all(to_bytes("two"));
  f.exec.run(300);
  ASSERT_EQ(f.transports[0]->tsend_stats().accepted, 2u);

  crypto::Signer& s2 = f.signers[1];
  const History h = f.transports[1]->history();  // [s1, r1, s2, r2]
  ASSERT_EQ(h.size(), 4u);
  // The next entry rewinds the sent-seq to 2 — properly chained and signed.
  History bad = h;
  bad.push_back(make_sent_entry(s2, h.back().chain, 2, kToAll,
                                to_bytes("again")));
  const Bytes payload3 = to_bytes("three");
  const crypto::Signature outer_bad =
      s2.sign(tsend_signing_bytes(3, kToAll, payload3, bad.back().chain));
  f.exec.spawn(raw_broadcast(f.nebs[1].get(),
                             encode_tsend(kToAll, payload3, bad, 3, outer_bad)));
  f.exec.run(500);
  {
    const TsendStats& st = f.transports[0]->tsend_stats();
    EXPECT_EQ(st.deliveries, 3u);
    EXPECT_EQ(st.accepted, 2u);
    EXPECT_EQ(f.transports[0]->rejected(), 1u);
    EXPECT_EQ(st.entries_skipped, 2u);  // prefix matched; the suffix sank it
  }

  // Honest k=4: history records a third send, prefix still the verified two
  // entries — the rejected message did not advance (or poison) the cache.
  History good = h;
  good.push_back(make_sent_entry(s2, h.back().chain, 3, kToAll,
                                 to_bytes("three")));
  const Bytes payload4 = to_bytes("four");
  const crypto::Signature outer_good =
      s2.sign(tsend_signing_bytes(4, kToAll, payload4, good.back().chain));
  f.exec.spawn(raw_broadcast(
      f.nebs[1].get(), encode_tsend(kToAll, payload4, good, 4, outer_good)));
  f.exec.run(500);
  const TsendStats& st = f.transports[0]->tsend_stats();
  EXPECT_EQ(st.accepted, 3u);
  EXPECT_EQ(f.transports[0]->rejected(), 1u);
  EXPECT_EQ(st.entries_skipped, 4u);  // retry resumed from the old prefix
}

TEST(TrustedTransport, ValidatorRejectThenRetryRollsBackTogether) {
  // A stateful validator following the resumable contract: it commits its
  // per-owner entry count only on accept. The transport must call it with
  // prefix_entries equal to that committed count (or 0 on a rebuild) —
  // lockstep — including after a reject, where both sides must have rolled
  // back together.
  // `committed` is captured by value, so every transport's copy of the
  // validator owns independent per-owner state (as paxos_validator does);
  // only the violation flag is shared for the final assertion.
  auto violated = std::make_shared<bool>(false);
  const auto validator =
      [violated, committed = std::map<ProcessId, std::size_t>{}](
          const ValidatorCall& call) mutable {
        const std::size_t have = committed[call.owner];
        if (call.prefix_entries != have && call.prefix_entries != 0) {
          *violated = true;
          return false;
        }
        // Reject the message being sent when its payload is "BAD"; history
        // entries themselves are fine (mirrors paxos_validator, which judges
        // the *send*, with receipts as evidence).
        if (util::to_string(*call.payload) == "BAD") return false;
        committed[call.owner] = call.prefix_entries + call.suffix_len;
        return true;
      };

  TrustedFixture f(3, validator);
  f.start_all();
  std::vector<std::string> got;
  f.exec.spawn([](TrustedTransport* t, std::vector<std::string>* got)
                   -> Task<void> {
    while (true) {
      const TMsg m = co_await t->incoming().recv();
      got->push_back(to_string(m.payload));
    }
  }(f.transports[0].get(), &got));

  f.transports[1]->send_all(to_bytes("okA"));
  f.exec.run(300);
  f.transports[1]->send_all(to_bytes("BAD"));
  f.exec.run(300);
  EXPECT_EQ(f.transports[0]->rejected(), 1u);
  f.transports[1]->send_all(to_bytes("okB"));
  f.exec.run(300);
  f.transports[1]->send_all(to_bytes("okC"));
  f.exec.run(300);

  EXPECT_EQ(got, (std::vector<std::string>{"okA", "okB", "okC"}));
  EXPECT_FALSE(*violated);
  EXPECT_EQ(f.transports[0]->rejected(), 1u);
  const TsendStats& st = f.transports[0]->tsend_stats();
  EXPECT_EQ(st.deliveries, 4u);
  EXPECT_EQ(st.accepted, 3u);
  // okB's history (3 entries incl. the rejected send — p2's own audit also
  // rejected "BAD", so no receipt was recorded for it) was re-decoded in
  // full after the lockstep rollback, and okC resumed past all of it.
  EXPECT_EQ(st.entries_skipped, 3u);
}

TEST(Receipts, RoundTripAndVerify) {
  crypto::KeyStore ks(3);
  crypto::Signer s = ks.register_process(5);
  const Bytes payload = to_bytes("msg");
  const Bytes hdigest(32, 0x42);
  const crypto::Signature sig =
      s.sign(tsend_signing_bytes(7, 2, payload, hdigest));
  Receipt r{2, payload, hdigest, sig};
  const auto decoded = Receipt::decode(r.encode());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(verify_receipt(ks, 5, 7, *decoded));
  EXPECT_FALSE(verify_receipt(ks, 5, 8, *decoded));  // wrong k
  Receipt forged = *decoded;
  forged.payload = to_bytes("other");
  EXPECT_FALSE(verify_receipt(ks, 5, 7, forged));
}

TEST(TrustedTransport, DeliversToAddresseeOnly) {
  TrustedFixture f(3);
  f.start_all();
  f.transports[0]->send(2, to_bytes("for p2"));
  std::map<ProcessId, int> got;
  for (ProcessId p : all_processes(3)) {
    f.exec.spawn([](TrustedTransport* t, int* count) -> Task<void> {
      while (true) {
        (void)co_await t->incoming().recv();
        ++*count;
      }
    }(f.transports[p - 1].get(), &got[p]));
  }
  f.exec.run(500);
  EXPECT_EQ(got[1], 0);
  EXPECT_EQ(got[2], 1);
  EXPECT_EQ(got[3], 0);
  // Everyone audited it regardless (receipts recorded).
  EXPECT_GE(f.transports[2]->history().size(), 1u);
}

TEST(TrustedTransport, SendAllReachesEveryoneIncludingSelf) {
  TrustedFixture f(3);
  f.start_all();
  f.transports[1]->send_all(to_bytes("broadcast"));
  std::map<ProcessId, int> got;
  for (ProcessId p : all_processes(3)) {
    f.exec.spawn([](TrustedTransport* t, int* count) -> Task<void> {
      while (true) {
        (void)co_await t->incoming().recv();
        ++*count;
      }
    }(f.transports[p - 1].get(), &got[p]));
  }
  f.exec.run(500);
  EXPECT_EQ(got[1], 1);
  EXPECT_EQ(got[2], 1);
  EXPECT_EQ(got[3], 1);
}

TEST(TrustedTransport, ValidatorRejectionsAreCounted) {
  // A validator that rejects everything: messages are audited, rejected,
  // never delivered.
  const auto reject_all = [](const ValidatorCall&) { return false; };
  TrustedFixture f(3, reject_all);
  f.start_all();
  f.transports[0]->send_all(to_bytes("doomed"));
  f.exec.run(500);
  EXPECT_GE(f.transports[1]->rejected(), 1u);
  EXPECT_TRUE(f.transports[1]->incoming().empty());
}

// --- Paxos validator semantics. ---

struct ValidatorFixture {
  ValidatorFixture() : ks(5) {
    for (ProcessId p : all_processes(3)) signers.push_back(ks.register_process(p));
    validator = paxos_validator(ks, 3);
  }

  /// Build a history for `owner` from (kind, peer, paxos-msg) tuples,
  /// with receipts signed properly by their origins.
  HistoryEntry make_sent(ProcessId owner, std::uint64_t k, ProcessId dst,
                         const Bytes& payload, Bytes& prev_chain,
                         std::uint64_t& next_k) {
    HistoryEntry e;
    e.kind = HistoryEntry::Kind::kSent;
    e.k = k;
    e.peer = dst;
    e.payload = payload;
    e.chain = chain_entry(prev_chain, e.kind, e.k, e.peer, e.payload);
    e.sig = signers[owner - 1].sign(e.chain);
    prev_chain = e.chain;
    next_k = k + 1;
    return e;
  }

  HistoryEntry make_received(ProcessId owner, ProcessId origin,
                             std::uint64_t origin_k, ProcessId dst,
                             const Bytes& payload, Bytes& prev_chain) {
    const Bytes hdigest(32, 0);  // arbitrary: signed below, so consistent
    const crypto::Signature osig = signers[origin - 1].sign(
        tsend_signing_bytes(origin_k, dst, payload, hdigest));
    const Receipt r{dst, payload, hdigest, osig};
    HistoryEntry e;
    e.kind = HistoryEntry::Kind::kReceived;
    e.k = origin_k;
    e.peer = origin;
    e.payload = r.encode();
    e.chain = chain_entry(prev_chain, e.kind, e.k, e.peer, e.payload);
    e.sig = signers[owner - 1].sign(e.chain);
    prev_chain = e.chain;
    return e;
  }

  /// Drive the resumable validator the way the transport's rebuild path
  /// does: prefix_entries = 0 and the whole history as the suffix.
  bool check(ProcessId owner, const History& h, std::uint64_t k, ProcessId dst,
             const Bytes& payload) {
    ValidatorCall call;
    call.owner = owner;
    call.suffix = h.data();
    call.suffix_len = h.size();
    call.prefix_entries = 0;
    call.k = k;
    call.dst = dst;
    call.payload = &payload;
    return validator(call);
  }

  crypto::KeyStore ks;
  std::vector<crypto::Signer> signers;
  HistoryValidator validator;
};

TEST(PaxosValidator, PromiseWithoutPrepareRejected) {
  ValidatorFixture f;
  History h;  // empty: p2 never received a prepare
  const Bytes promise =
      PaxosMsg{PaxosKind::kPromise, 4, 0, false, {}}.encode();
  EXPECT_FALSE(f.check(2, h, 1, 2, promise));
}

TEST(PaxosValidator, PromiseAfterPrepareAccepted) {
  ValidatorFixture f;
  History h;
  Bytes chain;
  // p2 received PREPARE(4) from p2's owner... ballot 4 owner = 4%3+1 = p2.
  // Use ballot 3 (owner p1) prepared by p1, promise sent to p1.
  const Bytes prepare = PaxosMsg{PaxosKind::kPrepare, 3, 0, false, {}}.encode();
  h.push_back(f.make_received(2, 1, 1, kToAll, prepare, chain));
  const Bytes promise = PaxosMsg{PaxosKind::kPromise, 3, 0, false, {}}.encode();
  EXPECT_TRUE(f.check(2, h, 1, 1, promise));
}

TEST(PaxosValidator, DoublePromiseOnLowerBallotRejected) {
  ValidatorFixture f;
  History h;
  Bytes chain;
  std::uint64_t next_k = 1;
  const Bytes prep6 = PaxosMsg{PaxosKind::kPrepare, 6, 0, false, {}}.encode();
  const Bytes prep3 = PaxosMsg{PaxosKind::kPrepare, 3, 0, false, {}}.encode();
  h.push_back(f.make_received(2, 1, 1, kToAll, prep6, chain));
  h.push_back(f.make_sent(2, 1, 1,
                          PaxosMsg{PaxosKind::kPromise, 6, 0, false, {}}.encode(),
                          chain, next_k));
  h.push_back(f.make_received(2, 1, 2, kToAll, prep3, chain));
  // Promising 3 after promising 6 is a protocol violation.
  const Bytes promise3 = PaxosMsg{PaxosKind::kPromise, 3, 0, false, {}}.encode();
  EXPECT_FALSE(f.check(2, h, 2, 1, promise3));
}

TEST(PaxosValidator, AcceptWithoutQuorumOfPromisesRejected) {
  ValidatorFixture f;
  History h;
  Bytes chain;
  // p1 sends ACCEPT(3, v) having received only its own promise.
  const Bytes promise = PaxosMsg{PaxosKind::kPromise, 3, 0, false, {}}.encode();
  h.push_back(f.make_received(1, 1, 1, 1, promise, chain));
  const Bytes accept =
      PaxosMsg{PaxosKind::kAccept, 3, 0, true, to_bytes("v")}.encode();
  EXPECT_FALSE(f.check(1, h, 1, kToAll, accept));
}

TEST(PaxosValidator, AcceptMustCarryHighestAcceptedValue) {
  ValidatorFixture f;
  History h;
  Bytes chain;
  // p1 received two promises for ballot 3: p2's empty, p3's carrying
  // (acc_ballot=2, "locked"). ACCEPT(3) must propose "locked".
  const Bytes pr2 = PaxosMsg{PaxosKind::kPromise, 3, 0, false, {}}.encode();
  const Bytes pr3 =
      PaxosMsg{PaxosKind::kPromise, 3, 2, true, to_bytes("locked")}.encode();
  h.push_back(f.make_received(1, 2, 1, 1, pr2, chain));
  h.push_back(f.make_received(1, 3, 1, 1, pr3, chain));
  const Bytes good =
      PaxosMsg{PaxosKind::kAccept, 3, 0, true, to_bytes("locked")}.encode();
  const Bytes bad =
      PaxosMsg{PaxosKind::kAccept, 3, 0, true, to_bytes("mine")}.encode();
  EXPECT_TRUE(f.check(1, h, 1, kToAll, good));
  EXPECT_FALSE(f.check(1, h, 1, kToAll, bad));
}

TEST(PaxosValidator, ForeignBallotAcceptRejected) {
  ValidatorFixture f;
  History h;
  // Ballot 4's owner is p2 (4 % 3 + 1); p1 cannot send ACCEPT(4).
  const Bytes accept =
      PaxosMsg{PaxosKind::kAccept, 4, 0, true, to_bytes("v")}.encode();
  EXPECT_FALSE(f.check(1, h, 1, kToAll, accept));
}

TEST(PaxosValidator, FastBallotZeroAllowsLeaderInput) {
  ValidatorFixture f;
  History h;
  const Bytes accept =
      PaxosMsg{PaxosKind::kAccept, 0, 0, true, to_bytes("anything")}.encode();
  EXPECT_TRUE(f.check(1, h, 1, kToAll, accept));   // p1 owns ballot 0
  EXPECT_FALSE(f.check(2, h, 1, kToAll, accept));  // p2 does not
}

TEST(PaxosValidator, DecideRequiresAcceptedQuorumForOwnAccept) {
  ValidatorFixture f;
  History h;
  Bytes chain;
  std::uint64_t next_k = 1;
  // p1 fast-path: sends ACCEPT(0, v), receives ACCEPTED(0) from p2, p3.
  const Bytes accept =
      PaxosMsg{PaxosKind::kAccept, 0, 0, true, to_bytes("v")}.encode();
  h.push_back(f.make_sent(1, 1, kToAll, accept, chain, next_k));
  const Bytes accepted = PaxosMsg{PaxosKind::kAccepted, 0, 0, false, {}}.encode();
  h.push_back(f.make_received(1, 2, 1, 1, accepted, chain));
  h.push_back(f.make_received(1, 3, 1, 1, accepted, chain));
  const Bytes decide_v =
      PaxosMsg{PaxosKind::kDecide, 0, 0, true, to_bytes("v")}.encode();
  const Bytes decide_w =
      PaxosMsg{PaxosKind::kDecide, 0, 0, true, to_bytes("w")}.encode();
  EXPECT_TRUE(f.check(1, h, 2, kToAll, decide_v));
  EXPECT_FALSE(f.check(1, h, 2, kToAll, decide_w));  // wrong value
}

TEST(PaxosValidator, RejectedRebuildPreservesCommittedResumePosition) {
  // Rollback contract, rebuild edition: after the validator has committed E
  // entries, a full-history call (prefix_entries = 0 — the transport's
  // cache-miss path, e.g. a Byzantine non-extending wire) that FAILS must
  // leave the committed state untouched, so a later resume naming
  // prefix_entries = E is still accepted.
  ValidatorFixture f;
  History h;
  Bytes chain;
  const Bytes prepare = PaxosMsg{PaxosKind::kPrepare, 3, 0, false, {}}.encode();
  h.push_back(f.make_received(2, 1, 1, kToAll, prepare, chain));
  const Bytes promise = PaxosMsg{PaxosKind::kPromise, 3, 0, false, {}}.encode();
  ASSERT_TRUE(f.check(2, h, 1, 1, promise));  // commits 1 entry for owner 2

  // Rebuild attempt with a legal history but an illegal current message
  // (PROMISE(6) without a PREPARE(6) receipt) — rejected.
  const Bytes promise6 = PaxosMsg{PaxosKind::kPromise, 6, 0, false, {}}.encode();
  EXPECT_FALSE(f.check(2, h, 2, 1, promise6));

  // Resume exactly where the transport's cache still is: empty suffix past
  // the committed entry. Must accept — a wiped cache would refuse forever.
  ValidatorCall resume;
  resume.owner = 2;
  resume.suffix = nullptr;
  resume.suffix_len = 0;
  resume.prefix_entries = 1;
  resume.k = 1;
  resume.dst = 1;
  const Bytes promise_again =
      PaxosMsg{PaxosKind::kPromise, 3, 0, false, {}}.encode();
  resume.payload = &promise_again;
  EXPECT_TRUE(f.validator(resume));
}

TEST(PaxosValidator, SetupPayloadsAlwaysLegal) {
  ValidatorFixture f;
  History h;
  Bytes setup = TransportMux::frame(kMuxSetup, to_bytes("any value at all"));
  EXPECT_TRUE(f.check(2, h, 1, kToAll, setup));
}

TEST(PaxosValidator, MalformedPaxosPayloadRejected) {
  ValidatorFixture f;
  History h;
  EXPECT_FALSE(f.check(2, h, 1, kToAll, to_bytes("\x03garbage")));
}

}  // namespace
}  // namespace mnm::core::trusted
