// Deterministic property/fuzz tests for the framed Byzantine wire decoders
// (T-send wires, history entry frames, receipts, NEB slots). Seeded
// sim::Rng, so every run exercises the same inputs — failures reproduce.
//
// Properties:
//  * encode_history / encode_tsend round-trip through decode_tsend, with and
//    without a verified prefix (the suffix-only decode path);
//  * random truncations and bit-flips of a valid wire must decode to nullopt
//    or fail verification — never crash, never over-read (the ASan/UBSan CI
//    job runs this binary), and never be *accepted*;
//  * a flip inside the verified prefix region must force the full-decode
//    fallback, never a prefix skip;
//  * pure random bytes never crash any framed decoder;
//  * the smr batch framing and the KV command codec share the decoder
//    hygiene: attacker-controlled count/length prefixes are capped by the
//    bytes actually present (the unchecked-reserve class that once let a
//    forged history count force a bad_alloc), truncations and junk decode to
//    empty/nullopt, and round-trips are exact;
//  * Cheap Quorum unanimity proofs are Byzantine-written and ride every
//    Preferential Paxos set-up input: a forged copy count is capped by the
//    bytes present, so a 4-byte proof is rejected (priority 0), never a
//    bad_alloc.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "src/core/cheap_quorum.hpp"
#include "src/core/fast_robust.hpp"
#include "src/core/nonequiv_broadcast.hpp"
#include "src/core/paxos.hpp"
#include "src/core/trusted_messaging.hpp"
#include "src/crypto/signature.hpp"
#include "src/kv/command.hpp"
#include "src/kv/range.hpp"
#include "src/kv/shard.hpp"
#include "src/kv/state_machine.hpp"
#include "src/reconfig/change.hpp"
#include "src/sim/rng.hpp"
#include "src/smr/catchup.hpp"
#include "src/smr/log.hpp"
#include "src/txn/record.hpp"
#include "src/util/serde.hpp"

namespace mnm::core::trusted {
namespace {

using util::to_bytes;

Bytes random_bytes(sim::Rng& rng, std::size_t len) {
  Bytes b(len);
  for (auto& x : b) x = static_cast<std::uint8_t>(rng.below(256));
  return b;
}

/// A structurally valid random history for `s`'s process: chained, signed,
/// contiguous sent-seqs, arbitrary received entries.
History random_history(sim::Rng& rng, crypto::Signer& s, std::size_t entries,
                       std::uint64_t* sent_count = nullptr) {
  History h;
  Bytes prev;
  std::uint64_t next_sent = 1;
  for (std::size_t i = 0; i < entries; ++i) {
    HistoryEntry e;
    const bool sent = rng.chance(0.5);
    e.kind = sent ? HistoryEntry::Kind::kSent : HistoryEntry::Kind::kReceived;
    e.k = sent ? next_sent++ : rng.below(16) + 1;
    e.peer = static_cast<ProcessId>(rng.below(4));  // incl. kToAll
    e.payload = random_bytes(rng, rng.below(48));
    e.chain = chain_entry(prev, e.kind, e.k, e.peer, e.payload);
    e.sig = s.sign(e.chain);
    prev = e.chain;
    h.push_back(std::move(e));
  }
  if (sent_count != nullptr) *sent_count = next_sent - 1;
  return h;
}

/// The encoded body bytes (sans count header) of the first `j` entries —
/// what a receiver's verified-prefix cache would hold after accepting a
/// message that attached them.
Bytes body_prefix(const History& h, std::size_t j) {
  const History head(h.begin(), h.begin() + static_cast<std::ptrdiff_t>(j));
  const Bytes enc = encode_history(head);
  return Bytes(enc.begin() + 4, enc.end());
}

/// The deliver loop's full acceptance pipeline, standalone: decode,
/// structural verify, seq check, inner signature. Returns true iff a
/// receiver would accept the wire as `owner`'s `k`-th T-send.
bool audit(const crypto::KeyStore& ks, ProcessId owner, util::ByteView wire,
           std::uint64_t k) {
  const auto c = decode_tsend(wire);
  if (!c.has_value()) return false;
  Bytes prev_chain;
  std::uint64_t expected_sent = 1;
  if (!verify_history_suffix(ks, owner, c->suffix.data(), c->suffix.size(),
                             prev_chain, expected_sent)) {
    return false;
  }
  if (expected_sent != k || c->k != k) return false;
  return ks.valid_from(
      owner, tsend_signing_bytes(c->k, c->dst, c->payload, prev_chain),
      c->sig);
}

struct FuzzWorld {
  FuzzWorld() : rng(0xF00DF00Dull), ks(3), s(ks.register_process(1)) {}

  /// A fully valid wire for process 1's k-th T-send, k = #sends + 1.
  Bytes valid_wire(const History& h, std::uint64_t sent_count, Bytes* payload_out = nullptr) {
    const std::uint64_t k = sent_count + 1;
    const ProcessId dst = static_cast<ProcessId>(rng.below(4));
    const Bytes payload = random_bytes(rng, rng.below(64) + 1);
    const Bytes digest = h.empty() ? Bytes{} : h.back().chain;
    const crypto::Signature sig =
        s.sign(tsend_signing_bytes(k, dst, payload, digest));
    if (payload_out != nullptr) *payload_out = payload;
    return encode_tsend(dst, payload, h, k, sig);
  }

  sim::Rng rng;
  crypto::KeyStore ks;
  crypto::Signer s;
};

TEST(WireFuzz, RoundTripWithAndWithoutVerifiedPrefix) {
  FuzzWorld w;
  for (int trial = 0; trial < 200; ++trial) {
    std::uint64_t sends = 0;
    const History h = random_history(w.rng, w.s, w.rng.below(8), &sends);
    const Bytes wire = w.valid_wire(h, sends);
    ASSERT_TRUE(audit(w.ks, 1, wire, sends + 1)) << "trial " << trial;

    // Full decode reproduces every entry.
    const auto full = decode_tsend(wire);
    ASSERT_TRUE(full.has_value());
    EXPECT_EQ(full->prefix_entries, 0u);
    ASSERT_EQ(full->suffix.size(), h.size());
    for (std::size_t i = 0; i < h.size(); ++i) {
      EXPECT_EQ(full->suffix[i].chain, h[i].chain) << "trial " << trial;
      EXPECT_EQ(full->suffix[i].payload, h[i].payload);
    }

    // Suffix-only decode from any cache position yields exactly the tail.
    const std::size_t j = w.rng.below(h.size() + 1);
    const Bytes prefix = body_prefix(h, j);
    const auto part = decode_tsend(wire, prefix, j);
    ASSERT_TRUE(part.has_value());
    if (j > 0) {
      EXPECT_EQ(part->prefix_entries, j);
      ASSERT_EQ(part->suffix.size(), h.size() - j);
      for (std::size_t i = 0; i < part->suffix.size(); ++i) {
        EXPECT_EQ(part->suffix[i].chain, h[j + i].chain);
      }
      // Resuming verification from the cached chain state accepts.
      Bytes prev = j > 0 ? h[j - 1].chain : Bytes{};
      std::uint64_t expected = 1;
      for (std::size_t i = 0; i < j; ++i) {
        if (h[i].kind == HistoryEntry::Kind::kSent) ++expected;
      }
      EXPECT_TRUE(verify_history_suffix(w.ks, 1, part->suffix.data(),
                                        part->suffix.size(), prev, expected));
      EXPECT_EQ(expected, sends + 1);
    }
  }
}

TEST(WireFuzz, TruncationsDecodeToNulloptNeverCrash) {
  FuzzWorld w;
  for (int trial = 0; trial < 100; ++trial) {
    std::uint64_t sends = 0;
    const History h = random_history(w.rng, w.s, w.rng.below(6) + 1, &sends);
    const Bytes wire = w.valid_wire(h, sends);
    // Every proper truncation: removing trailing bytes can never leave a
    // parseable wire (length prefixes and expect_end overrun instead).
    for (std::size_t cut = 0; cut < wire.size();
         cut += w.rng.below(7) + 1) {
      const auto c = decode_tsend(util::ByteView(wire).subspan(0, cut));
      EXPECT_FALSE(c.has_value()) << "trial " << trial << " cut " << cut;
    }
  }
}

TEST(WireFuzz, BitFlipsNeverAccepted) {
  FuzzWorld w;
  for (int trial = 0; trial < 300; ++trial) {
    std::uint64_t sends = 0;
    const History h = random_history(w.rng, w.s, w.rng.below(5), &sends);
    Bytes wire = w.valid_wire(h, sends);
    const std::size_t bit = w.rng.below(wire.size() * 8);
    wire[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    // Decode may succeed (flips in payload bytes parse fine) but the
    // acceptance pipeline must reject: every wire byte is covered by the
    // chain, the seq checks, or the inner signature.
    EXPECT_FALSE(audit(w.ks, 1, wire, sends + 1))
        << "trial " << trial << " bit " << bit;
  }
}

TEST(WireFuzz, FlipInsidePrefixForcesFullDecodeFallback) {
  FuzzWorld w;
  for (int trial = 0; trial < 100; ++trial) {
    std::uint64_t sends = 0;
    const History h = random_history(w.rng, w.s, w.rng.below(5) + 2, &sends);
    Bytes wire = w.valid_wire(h, sends);
    const std::size_t j = w.rng.below(h.size() - 1) + 1;
    const Bytes prefix = body_prefix(h, j);
    // Sanity: the untouched wire skips.
    ASSERT_EQ(decode_tsend(wire, prefix, j)->prefix_entries, j);
    // A flip anywhere inside the wire's prefix region must kill the skip —
    // the decoder falls back to entry 0 (and the full verify then rejects).
    wire[w.rng.below(prefix.size())] ^= 0x01;
    const auto c = decode_tsend(wire, prefix, j);
    if (c.has_value()) {
      EXPECT_EQ(c->prefix_entries, 0u) << "trial " << trial;
      EXPECT_FALSE(audit(w.ks, 1, wire, sends + 1));
    }
  }
}

TEST(WireFuzz, RandomBytesNeverCrashAnyDecoder) {
  FuzzWorld w;
  std::uint64_t decoded = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    const Bytes junk = random_bytes(w.rng, w.rng.below(160));
    if (decode_tsend(junk).has_value()) ++decoded;
    if (Receipt::decode(junk).has_value()) ++decoded;
    if (decode_neb_slot(junk).has_value()) ++decoded;
    // Random bytes with a random (receiver-side) verified prefix — exercises
    // the skip-compare bounds too.
    const Bytes junk_prefix = random_bytes(w.rng, w.rng.below(32));
    (void)decode_tsend(junk, junk_prefix, w.rng.below(4) + 1,
                       w.rng.below(64));
  }
  // Unstructured noise essentially never parses (no assertion on exact 0 —
  // an empty history body + empty tail is a few dozen constrained bytes).
  EXPECT_LT(decoded, 4u);
}

// ---------------------------------------------------------------------------
// smr::encode_batch / decode_batch — the slot-payload framing every engine
// decision flows through. decode_batch is total (garbage applies as zero
// commands), so the properties are: exact round-trips, truncations/flips
// never crash, and a forged count prefix never pre-allocates past the bytes
// present.
// ---------------------------------------------------------------------------

TEST(WireFuzz, SmrBatchRoundTripsExactly) {
  sim::Rng rng(0xBA7C4ull);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<Bytes> cmds;
    const std::size_t count = rng.below(6);
    for (std::size_t i = 0; i < count; ++i) {
      cmds.push_back(random_bytes(rng, rng.below(40)));
    }
    EXPECT_EQ(smr::decode_batch(smr::encode_batch(cmds)), cmds)
        << "trial " << trial;
  }
}

TEST(WireFuzz, SmrBatchTruncationsDecodeEmptyNeverCrash) {
  sim::Rng rng(0xBA7C5ull);
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<Bytes> cmds;
    const std::size_t count = rng.below(4) + 1;
    for (std::size_t i = 0; i < count; ++i) {
      cmds.push_back(random_bytes(rng, rng.below(24) + 1));
    }
    const Bytes wire = smr::encode_batch(cmds);
    // Strict framing: every proper truncation under-runs a length prefix or
    // trips expect_end, and the total decoder maps that to the empty batch.
    for (std::size_t cut = 0; cut < wire.size(); cut += rng.below(5) + 1) {
      EXPECT_TRUE(
          smr::decode_batch(util::ByteView(wire).subspan(0, cut)).empty())
          << "trial " << trial << " cut " << cut;
    }
    // Bit flips parse or fail, deterministically — never crash. A flip in a
    // length prefix is the interesting case (huge claimed lengths).
    Bytes flipped = wire;
    const std::size_t bit = rng.below(flipped.size() * 8);
    flipped[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    (void)smr::decode_batch(flipped);
  }
}

TEST(WireFuzz, SmrBatchForgedCountPrefixCappedByBytesPresent) {
  // A Byzantine slot winner claims 2^32 - 1 commands in a 12-byte payload.
  // The decoder's reserve must be capped by the bytes actually present —
  // an uncapped reserve(count) is a bad_alloc DoS on every correct replica.
  util::Writer w;
  w.u32(0xFFFFFFFFu);
  w.raw(util::to_bytes("12345678"));
  EXPECT_TRUE(smr::decode_batch(std::move(w).take()).empty());

  // Same with the largest count that still parses one command: fine.
  util::Writer w2;
  w2.u32(1).bytes(util::to_bytes("x"));
  const auto one = smr::decode_batch(std::move(w2).take());
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0], util::to_bytes("x"));
}

TEST(WireFuzz, UnanimityProofForgedCountCappedByBytesPresent) {
  // Each process writes its own Proof[q], and proofs ride Preferential
  // Paxos set-up inputs that every correct process ranks with
  // fast_robust_priority. A forged u32 copy count must be capped by the
  // bytes actually present: an uncapped reserve(count) is a bad_alloc.
  crypto::KeyStore ks(7);
  for (ProcessId p : all_processes(3)) (void)ks.register_process(p);
  util::Writer w;
  w.u32(0xFFFFFFFFu).bytes(to_bytes("copy"));
  const Bytes forged[] = {Bytes{0xFF, 0xFF, 0xFF, 0xFF}, std::move(w).take()};
  for (const Bytes& proof : forged) {
    EXPECT_FALSE(verify_unanimity_proof(ks, 3, kLeaderP1, proof, nullptr));
    PrioInput input;
    input.value = to_bytes("v");
    input.proof = proof;
    EXPECT_EQ(fast_robust_priority(ks, 3)(input), 0);
  }
}

TEST(WireFuzz, SmrBatchRandomBytesNeverCrash) {
  sim::Rng rng(0xBA7C6ull);
  for (int trial = 0; trial < 2000; ++trial) {
    (void)smr::decode_batch(random_bytes(rng, rng.below(120)));
  }
}

// ---------------------------------------------------------------------------
// Leader-term frames (PaxosTermMsg): PREPARE / PROMISE / NACK on the slot
// hub's term channel. Strict and total: the PROMISE's pair count is capped
// by the bytes present, pairs must ascend by slot, trailing bytes reject.
// ---------------------------------------------------------------------------

PaxosTermMsg random_term_msg(sim::Rng& rng) {
  PaxosTermMsg m;
  m.kind = static_cast<PaxosTermKind>(rng.below(3) + 1);
  m.ballot = rng.below(1000);
  m.mark = rng.below(1000);
  if (m.kind == PaxosTermKind::kPromise) {
    Slot slot = rng.below(8);
    for (std::uint64_t i = rng.below(5); i > 0; --i) {
      m.accepted.push_back(
          {slot, rng.below(100), random_bytes(rng, rng.below(12))});
      slot += 1 + rng.below(3);
    }
  }
  return m;
}

TEST(WireFuzz, PaxosTermMsgRoundTripsAndRejectsEveryTruncation) {
  sim::Rng rng(0x7E12A0ull);
  for (int trial = 0; trial < 500; ++trial) {
    const PaxosTermMsg m = random_term_msg(rng);
    const Bytes wire = m.encode();
    const auto back = PaxosTermMsg::decode(wire);
    ASSERT_TRUE(back.has_value()) << "trial " << trial;
    EXPECT_EQ(*back, m);
    for (std::size_t cut = 0; cut < wire.size(); ++cut) {
      const Bytes prefix(wire.begin(), wire.begin() + cut);
      EXPECT_FALSE(PaxosTermMsg::decode(prefix).has_value())
          << "trial " << trial << " cut " << cut;
    }
    Bytes padded = wire;
    padded.push_back(0);
    EXPECT_FALSE(PaxosTermMsg::decode(padded).has_value());
  }
}

TEST(WireFuzz, PaxosTermPromiseForgedCountAndOrderRejected) {
  // A PROMISE claiming 2^32 - 1 pairs in a few bytes must be refused before
  // any reserve; so must a count one past the pairs present, and pairs that
  // repeat or descend by slot.
  const auto promise = [](std::uint32_t count, std::vector<Slot> slots) {
    util::Writer w;
    w.u8(2).u64(7).u64(0).u32(count);
    for (const Slot s : slots) w.u64(s).u64(1).bytes(to_bytes("v"));
    return std::move(w).take();
  };
  EXPECT_FALSE(PaxosTermMsg::decode(promise(0xFFFFFFFFu, {})).has_value());
  EXPECT_FALSE(PaxosTermMsg::decode(promise(0xFFFFFFFFu, {1})).has_value());
  EXPECT_FALSE(PaxosTermMsg::decode(promise(3, {1, 2})).has_value());
  EXPECT_FALSE(PaxosTermMsg::decode(promise(2, {2, 2})).has_value());
  EXPECT_FALSE(PaxosTermMsg::decode(promise(2, {3, 1})).has_value());
  const auto ok = PaxosTermMsg::decode(promise(2, {1, 5}));
  ASSERT_TRUE(ok.has_value());
  ASSERT_EQ(ok->accepted.size(), 2u);
  EXPECT_EQ(ok->accepted[1].slot, 5u);
  // An unknown kind, and a PREPARE carrying a count it must not have.
  util::Writer bad_kind;
  bad_kind.u8(4).u64(1).u64(0);
  EXPECT_FALSE(PaxosTermMsg::decode(std::move(bad_kind).take()).has_value());
  util::Writer prepare;
  prepare.u8(1).u64(1).u64(0).u32(0);
  EXPECT_FALSE(PaxosTermMsg::decode(std::move(prepare).take()).has_value());
}

TEST(WireFuzz, PaxosTermMsgFlipsAndRandomBytesNeverCrash) {
  sim::Rng rng(0x7E12A1ull);
  for (int trial = 0; trial < 2000; ++trial) {
    Bytes wire = random_term_msg(rng).encode();
    wire[rng.below(wire.size())] ^=
        static_cast<std::uint8_t>(1u << rng.below(8));
    if (const auto m = PaxosTermMsg::decode(wire)) {
      EXPECT_EQ(m->encode(), wire);  // whatever decodes is canonical
    }
    (void)PaxosTermMsg::decode(random_bytes(rng, rng.below(80)));
  }
}

// ---------------------------------------------------------------------------
// kv command codec — client operations inside batch commands. Strict decode
// (nullopt on malformed), bounded by bytes present.
// ---------------------------------------------------------------------------

kv::Command random_kv_command(sim::Rng& rng) {
  kv::Command c;
  c.op = static_cast<kv::Op>(rng.below(4) + 1);
  c.client = rng.next();
  c.seq = rng.next();
  c.key = random_bytes(rng, rng.below(32));
  c.value = random_bytes(rng, rng.below(48));
  c.expected = random_bytes(rng, rng.below(16));
  return c;
}

TEST(WireFuzz, KvCommandRoundTripsExactly) {
  sim::Rng rng(0xC0DE1ull);
  for (int trial = 0; trial < 300; ++trial) {
    const kv::Command c = random_kv_command(rng);
    const auto d = kv::decode_command(kv::encode_command(c));
    ASSERT_TRUE(d.has_value()) << "trial " << trial;
    EXPECT_EQ(*d, c);
  }
}

TEST(WireFuzz, KvCommandTruncationsAndFlipsNeverCrash) {
  sim::Rng rng(0xC0DE2ull);
  for (int trial = 0; trial < 150; ++trial) {
    const kv::Command c = random_kv_command(rng);
    const Bytes wire = kv::encode_command(c);
    for (std::size_t cut = 0; cut < wire.size(); cut += rng.below(5) + 1) {
      EXPECT_FALSE(
          kv::decode_command(util::ByteView(wire).subspan(0, cut)).has_value())
          << "trial " << trial << " cut " << cut;
    }
    // A flipped bit may still decode (payload bytes carry no redundancy) —
    // the property is totality, plus strictness when a length prefix now
    // overruns the buffer.
    Bytes flipped = wire;
    const std::size_t bit = rng.below(flipped.size() * 8);
    flipped[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    (void)kv::decode_command(flipped);
  }
}

TEST(WireFuzz, KvCommandRandomBytesNeverCrash) {
  sim::Rng rng(0xC0DE3ull);
  std::uint64_t decoded = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    if (kv::decode_command(random_bytes(rng, rng.below(100))).has_value()) {
      ++decoded;
    }
  }
  // The leading op byte (1..7 of 256, the admin ops included) + three
  // strict length prefixes + expect_end make accidental parses vanishingly
  // rare.
  EXPECT_LT(decoded, 4u);
}

// ---------------------------------------------------------------------------
// kv signed-command codec — the client-authentication wire. Same decoder
// hygiene as above, plus the verification properties: every forgery class a
// Byzantine slot winner can attempt (mutated MAC, stripped signature,
// signer swapped to another *valid* identity, truncation inside the
// signature, cross-shard replay of a genuine wire, a wrapped 64-bit client
// id that maps onto the attacker's own signer) must be rejected without
// crashing — by the strict decode or by the state machine's pre-session
// verification, never by a throw.
// ---------------------------------------------------------------------------

TEST(WireFuzz, KvSignedCommandForgeriesAlwaysRejected) {
  sim::Rng rng(0xC0DE4ull);
  crypto::KeyStore ks(0x51C0DEull);
  const crypto::Signer replica = ks.register_process(3);  // attacker's own id
  std::vector<crypto::Signer> clients;
  for (kv::ClientId id = 1; id <= 4; ++id) {
    clients.push_back(ks.register_process(kv::client_signer_id(id)));
  }
  kv::StateMachine sm;
  sm.set_keystore(&ks, /*group=*/0);
  std::uint64_t expect_forged = 0;
  std::uint64_t expect_malformed = 0;
  for (int trial = 0; trial < 150; ++trial) {
    kv::Command c = random_kv_command(rng);
    c.client = rng.below(4) + 1;
    const Bytes body = kv::encode_command(c);
    const crypto::Signature sig =
        clients[c.client - 1].sign(kv::command_signing_bytes(0, body));
    const Bytes wire = kv::encode_signed_command(body, sig);

    // Sanity: the genuine wire decodes and verifies.
    const auto genuine = kv::decode_signed_command(wire);
    ASSERT_TRUE(genuine.has_value() && genuine->has_sig) << "trial " << trial;
    ASSERT_TRUE(ks.valid_from(kv::client_signer_id(c.client),
                              kv::command_signing_bytes(0, genuine->body),
                              genuine->sig))
        << "trial " << trial;

    // 1. Forged signature bytes: flip one bit inside the 32-byte MAC.
    Bytes forged_mac = wire;
    const std::size_t bit = rng.below(32 * 8);
    forged_mac[wire.size() - 32 + bit / 8] ^=
        static_cast<std::uint8_t>(1u << (bit % 8));
    sm.apply(0, forged_mac);
    ++expect_forged;

    // 2. Signature stripped: the bare canonical bytes are a well-formed
    //    legacy wire, but signed mode must not accept them.
    sm.apply(0, body);
    ++expect_forged;

    // 3. Signer id swapped to another valid client's identity (which even
    //    re-signs correctly under its own key — the cross-client hijack).
    const std::size_t other = (c.client % 4);  // != c.client - 1
    const crypto::Signature other_sig =
        clients[other].sign(kv::command_signing_bytes(0, body));
    sm.apply(0, kv::encode_signed_command(body, other_sig));
    ++expect_forged;

    // 4. Truncation inside the signature: strict decode rejects.
    const std::size_t cut = wire.size() - 1 - rng.below(35);
    const auto truncated =
        kv::decode_signed_command(util::ByteView(wire).subspan(0, cut));
    EXPECT_FALSE(truncated.has_value()) << "trial " << trial << " cut " << cut;
    sm.apply(0, util::ByteView(wire).subspan(0, cut));
    ++expect_malformed;

    // 5. Cross-shard replay: the victim's own valid signature, but bound
    //    to another group's log — a Byzantine member of both groups could
    //    otherwise move it into this one.
    const crypto::Signature other_group_sig =
        clients[c.client - 1].sign(kv::command_signing_bytes(1, body));
    sm.apply(0, kv::encode_signed_command(body, other_group_sig));
    ++expect_forged;

    // 6. Signer-space wrap: claim a 64-bit client id whose 32-bit mapping
    //    lands on the attacking replica's own identity, signed (validly!)
    //    with the attacker's own key.
    kv::Command wrapped = c;
    wrapped.client = 0x100000000ULL - kv::kClientSignerBase + 3;
    const Bytes wbody = kv::encode_command(wrapped);
    sm.apply(0, kv::encode_signed_command(
                    wbody, replica.sign(kv::command_signing_bytes(0, wbody))));
    ++expect_forged;
  }
  // Every attack no-opped deterministically: nothing applied, nothing
  // created a session, and each landed in exactly one rejection counter.
  EXPECT_EQ(sm.ops_applied(), 0u);
  EXPECT_TRUE(sm.store().empty());
  EXPECT_EQ(sm.forged(), expect_forged);
  EXPECT_EQ(sm.malformed(), expect_malformed);
}

TEST(WireFuzz, KvSignedCommandRandomBytesNeverCrash) {
  sim::Rng rng(0xC0DE5ull);
  crypto::KeyStore ks(0x51C0DFull);
  kv::StateMachine sm;
  sm.set_keystore(&ks);
  std::uint64_t decoded = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    // Force the signed-form marker half the time so the wrapper decoder
    // (length prefix, signature frame, inner strict decode) gets real
    // coverage instead of bouncing on the first byte.
    Bytes raw = random_bytes(rng, rng.below(100));
    if (trial % 2 == 0) {
      raw.insert(raw.begin(), kv::kSignedCommandMarker);
    }
    if (kv::decode_signed_command(raw).has_value()) ++decoded;
    sm.apply(0, raw);  // total: counts malformed/forged, never throws
  }
  EXPECT_LT(decoded, 4u);
  EXPECT_EQ(sm.ops_applied(), 0u);
}

// ---------------------------------------------------------------------------
// smr catch-up codec — the restart path's control-frame messages. Both
// decoders are strict (nullopt on malformed, expect_end), the response's
// payload count is attacker-controlled and must be capped both by
// kMaxCatchupSlots and by the bytes actually present.
// ---------------------------------------------------------------------------

smr::CatchupResponse random_catchup_response(sim::Rng& rng) {
  smr::CatchupResponse resp;
  resp.snap_slot = rng.below(64);
  if (resp.snap_slot > 0) resp.snapshot = random_bytes(rng, rng.below(80) + 1);
  resp.first_slot = resp.snap_slot + rng.below(8);
  const std::size_t count = rng.below(6);
  for (std::size_t i = 0; i < count; ++i) {
    resp.payloads.push_back(random_bytes(rng, rng.below(40)));
  }
  return resp;
}

TEST(WireFuzz, CatchupRequestRoundTripsAndRejectsJunk) {
  sim::Rng rng(0xCA7C0ull);
  for (int trial = 0; trial < 200; ++trial) {
    smr::CatchupRequest req;
    req.from = rng.next();
    const Bytes wire = smr::encode_catchup_request(req);
    const auto d = smr::decode_catchup_request(wire);
    ASSERT_TRUE(d.has_value()) << "trial " << trial;
    EXPECT_EQ(d->from, req.from);
    // Every proper truncation under-runs the fixed frame or trips the tag.
    for (std::size_t cut = 0; cut < wire.size(); ++cut) {
      EXPECT_FALSE(smr::decode_catchup_request(
                       util::ByteView(wire).subspan(0, cut))
                       .has_value());
    }
    // Trailing garbage is rejected (expect_end), and the tag byte gates the
    // shared control channel: a response wire never parses as a request.
    Bytes extended = wire;
    extended.push_back(0);
    EXPECT_FALSE(smr::decode_catchup_request(extended).has_value());
    EXPECT_FALSE(smr::decode_catchup_request(
                     smr::encode_catchup_response(random_catchup_response(rng)))
                     .has_value());
  }
}

TEST(WireFuzz, CatchupResponseRoundTripsExactly) {
  sim::Rng rng(0xCA7C1ull);
  for (int trial = 0; trial < 200; ++trial) {
    const smr::CatchupResponse resp = random_catchup_response(rng);
    const auto d = smr::decode_catchup_response(smr::encode_catchup_response(resp));
    ASSERT_TRUE(d.has_value()) << "trial " << trial;
    EXPECT_EQ(d->snap_slot, resp.snap_slot);
    EXPECT_EQ(d->snapshot, resp.snapshot);
    EXPECT_EQ(d->first_slot, resp.first_slot);
    EXPECT_EQ(d->payloads, resp.payloads);
  }
}

TEST(WireFuzz, CatchupResponseTruncationsAndFlipsNeverCrash) {
  sim::Rng rng(0xCA7C2ull);
  for (int trial = 0; trial < 100; ++trial) {
    const Bytes wire =
        smr::encode_catchup_response(random_catchup_response(rng));
    for (std::size_t cut = 0; cut < wire.size(); cut += rng.below(5) + 1) {
      EXPECT_FALSE(smr::decode_catchup_response(
                       util::ByteView(wire).subspan(0, cut))
                       .has_value())
          << "trial " << trial << " cut " << cut;
    }
    // A flip in a length/count prefix is the interesting case (huge claimed
    // sizes) — decode must fail or succeed deterministically, never crash.
    Bytes flipped = wire;
    const std::size_t bit = rng.below(flipped.size() * 8);
    flipped[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    (void)smr::decode_catchup_response(flipped);
  }
}

TEST(WireFuzz, CatchupResponseForgedCountPrefixCapped) {
  // A Byzantine catch-up peer claims 2^32 - 1 payloads in a short wire. The
  // count gate (kMaxCatchupSlots) rejects it before any allocation.
  util::Writer w;
  w.u8(2).u64(0).bytes({}).u64(0).u32(0xFFFFFFFFu);
  w.raw(util::to_bytes("12345678"));
  EXPECT_FALSE(smr::decode_catchup_response(std::move(w).take()).has_value());

  // Just past the cap: rejected too, even with enough bytes per payload.
  util::Writer w2;
  w2.u8(2).u64(0).bytes({}).u64(0).u32(
      static_cast<std::uint32_t>(smr::kMaxCatchupSlots + 1));
  for (std::size_t i = 0; i <= smr::kMaxCatchupSlots; ++i) w2.bytes({});
  EXPECT_FALSE(smr::decode_catchup_response(std::move(w2).take()).has_value());

  // A count within the cap but beyond the bytes present parses nothing —
  // the reserve is capped by remaining()/4 so no oversized pre-allocation.
  util::Writer w3;
  w3.u8(2).u64(0).bytes({}).u64(0).u32(512).u32(0);
  EXPECT_FALSE(smr::decode_catchup_response(std::move(w3).take()).has_value());
}

TEST(WireFuzz, CatchupRandomBytesNeverCrash) {
  sim::Rng rng(0xCA7C3ull);
  std::uint64_t decoded = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    const Bytes junk = random_bytes(rng, rng.below(120));
    if (smr::decode_catchup_request(junk).has_value()) ++decoded;
    if (smr::decode_catchup_response(junk).has_value()) ++decoded;
  }
  // The tag byte + strict length prefixes + expect_end make accidental
  // parses vanishingly rare.
  EXPECT_LT(decoded, 4u);
}

// ---------------------------------------------------------------------------
// kv::StateMachine snapshot codec — full-state bytes installed by restarting
// replicas. restore() must be total, fail closed on any corruption (the
// checksum trailer covers every byte), and leave the target machine
// untouched on rejection.
// ---------------------------------------------------------------------------

/// A machine with random store/session/counter content, built through the
/// public apply path so the state is reachable (incl. duplicates and
/// malformed commands).
kv::StateMachine random_kv_machine(sim::Rng& rng) {
  kv::StateMachine m;
  std::map<std::uint64_t, std::uint64_t> seqs;
  const std::size_t ops = rng.below(24) + 1;
  for (std::size_t i = 0; i < ops; ++i) {
    if (rng.chance(0.15)) {
      m.apply(i, random_bytes(rng, rng.below(20)));  // likely malformed
      continue;
    }
    kv::Command c = random_kv_command(rng);
    c.client = rng.below(4) + 1;
    c.key = random_bytes(rng, rng.below(6) + 1);  // small keyspace: collisions
    c.seq = rng.chance(0.2) ? seqs[c.client]  // duplicate of the last apply
                            : ++seqs[c.client];
    m.apply(i, kv::encode_command(c));
  }
  return m;
}

TEST(WireFuzz, KvSnapshotRoundTripsExactly) {
  sim::Rng rng(0x54A70ull);
  for (int trial = 0; trial < 150; ++trial) {
    const kv::StateMachine m = random_kv_machine(rng);
    kv::StateMachine fresh;
    ASSERT_TRUE(fresh.restore(m.snapshot())) << "trial " << trial;
    EXPECT_EQ(fresh.store_hash(), m.store_hash());
    EXPECT_EQ(fresh.store(), m.store());
    EXPECT_EQ(fresh.ops_applied(), m.ops_applied());
    EXPECT_EQ(fresh.duplicates_suppressed(), m.duplicates_suppressed());
    EXPECT_EQ(fresh.malformed(), m.malformed());
    // Equal states ⇒ identical snapshot bytes (snapshots fingerprint).
    EXPECT_EQ(fresh.snapshot(), m.snapshot());
  }
}

TEST(WireFuzz, KvSnapshotTruncationsAndFlipsRejectedUntouched) {
  sim::Rng rng(0x54A71ull);
  for (int trial = 0; trial < 60; ++trial) {
    const Bytes wire = random_kv_machine(rng).snapshot();
    kv::StateMachine victim;
    victim.apply(0, kv::encode_command(
                        {kv::Op::kPut, 9, 1, to_bytes("canary"),
                         to_bytes("alive"), {}}));
    const std::uint64_t before = victim.store_hash();
    for (std::size_t cut = 0; cut < wire.size(); cut += rng.below(9) + 1) {
      EXPECT_FALSE(victim.restore(util::ByteView(wire).subspan(0, cut)))
          << "trial " << trial << " cut " << cut;
    }
    // Any single bit flip is caught: structurally (Serde/order checks) or by
    // the checksum trailer, which covers every byte before it.
    Bytes flipped = wire;
    const std::size_t bit = rng.below(flipped.size() * 8);
    flipped[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    EXPECT_FALSE(victim.restore(flipped)) << "trial " << trial;
    EXPECT_EQ(victim.store_hash(), before);  // rejected ⇒ untouched
  }
}

TEST(WireFuzz, KvSnapshotForgedCountPrefixAndJunkNeverCrash) {
  // Forged huge section len in a short, correctly checksummed wire: the
  // framing is bounded by the bytes present, so it fails fast.
  util::Writer w;
  w.u8(kv::kPairsSection).u32(0xFFFFFFFFu);
  w.raw(util::to_bytes("12345678")).checksum();
  kv::StateMachine m;
  EXPECT_FALSE(m.restore(std::move(w).take()));

  sim::Rng rng(0x54A72ull);
  std::uint64_t restored = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    if (m.restore(random_bytes(rng, rng.below(140)))) ++restored;
  }
  // Junk carries no valid checksum — a single accidental restore would
  // mean the checksum check is broken.
  EXPECT_EQ(restored, 0u);
  EXPECT_EQ(m.store_hash(), kv::StateMachine().store_hash());
}

// ---------------------------------------------------------------------------
// A T-send wire led by an all-ones word: as an entry length prefix it claims
// a 4 GiB frame that no buffer holds, so no tail may make it decode.
// ---------------------------------------------------------------------------

TEST(WireFuzz, CheckpointMarkerJunkNeverCrash) {
  FuzzWorld w;
  std::uint64_t decoded = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    util::Writer junk;
    junk.u32(0xFFFFFFFFu);
    junk.raw(random_bytes(w.rng, w.rng.below(100)));
    if (decode_tsend(std::move(junk).take()).has_value()) ++decoded;
  }
  EXPECT_EQ(decoded, 0u);
}

// ---------------------------------------------------------------------------
// Reconfiguration codecs (src/reconfig/ + kv range migration): ShardTable,
// ConfigChange, RangeSpec, RangeSnapshot. These bytes travel through
// consensus slots (a Byzantine proposer can win a slot with arbitrary
// bytes) and over the catch-up control wire from unverified peers, so the
// decoders must be strict and total: forged counts capped by the bytes
// present, the snapshot checksum failing closed, junk never crashing.
// ---------------------------------------------------------------------------

kv::ShardTable random_shard_table(sim::Rng& rng) {
  kv::ShardTable t;
  t.epoch = rng.below(1u << 20);
  t.groups = static_cast<std::uint32_t>(rng.below(6) + 1);
  const std::size_t buckets = static_cast<std::size_t>(t.groups)
                              << rng.below(4);
  t.buckets.resize(buckets);
  for (auto& b : t.buckets) {
    b = static_cast<std::uint32_t>(rng.below(t.groups));
  }
  return t;
}

kv::RangeSpec random_range_spec(sim::Rng& rng) {
  kv::RangeSpec spec;
  spec.epoch = rng.below(1u << 16);
  spec.table_buckets = static_cast<std::uint32_t>(1u << rng.below(7));
  // Strictly ascending, in-range bucket ids — the canonical form.
  const std::size_t want =
      rng.below(std::min<std::size_t>(spec.table_buckets, 6)) + 1;
  std::set<std::uint32_t> picks;
  while (picks.size() < want) {
    picks.insert(static_cast<std::uint32_t>(rng.below(spec.table_buckets)));
  }
  spec.buckets.assign(picks.begin(), picks.end());
  return spec;
}

kv::RangeSnapshot random_range_snapshot(sim::Rng& rng) {
  kv::RangeSnapshot snap;
  snap.spec = random_range_spec(rng);
  // Pairs in store (map) order, sessions in client-id order — canonical.
  std::map<Bytes, Bytes> pairs;
  for (std::size_t i = rng.below(8); i > 0; --i) {
    pairs[random_bytes(rng, rng.below(12) + 1)] = random_bytes(rng, rng.below(16));
  }
  snap.pairs.assign(pairs.begin(), pairs.end());
  std::uint64_t client = 0;
  for (std::size_t i = rng.below(5); i > 0; --i) {
    kv::SessionRecord rec;
    rec.client = (client += rng.below(9) + 1);
    rec.last_seq = rng.below(1u << 12);
    rec.reply.status = kv::Status::kOk;
    rec.reply.value = random_bytes(rng, rng.below(10));
    snap.sessions.push_back(std::move(rec));
  }
  return snap;
}

TEST(WireFuzz, ReconfigCodecsRoundTripExactly) {
  sim::Rng rng(0x5EC0F1ull);
  for (int trial = 0; trial < 200; ++trial) {
    const kv::ShardTable t = random_shard_table(rng);
    const auto td = kv::decode_shard_table(kv::encode_shard_table(t));
    ASSERT_TRUE(td.has_value()) << "trial " << trial;
    EXPECT_EQ(*td, t);

    reconfig::ConfigChange c;
    c.kind = rng.chance(0.5) ? reconfig::ChangeKind::kSplit
                             : reconfig::ChangeKind::kMerge;
    c.base_epoch = rng.next();
    c.src = static_cast<std::uint32_t>(rng.below(256));
    c.dst = static_cast<std::uint32_t>(rng.below(256));
    const auto cd =
        reconfig::decode_config_change(reconfig::encode_config_change(c));
    ASSERT_TRUE(cd.has_value()) << "trial " << trial;
    EXPECT_EQ(*cd, c);

    const kv::RangeSpec spec = random_range_spec(rng);
    const auto sd = kv::decode_range_spec(kv::encode_range_spec(spec));
    ASSERT_TRUE(sd.has_value()) << "trial " << trial;
    EXPECT_EQ(*sd, spec);

    const kv::RangeSnapshot snap = random_range_snapshot(rng);
    const auto nd = kv::decode_range_snapshot(kv::encode_range_snapshot(snap));
    ASSERT_TRUE(nd.has_value()) << "trial " << trial;
    EXPECT_EQ(*nd, snap);
  }
}

TEST(WireFuzz, ReconfigCodecTruncationsDecodeToNulloptNeverCrash) {
  sim::Rng rng(0x5EC0F2ull);
  for (int trial = 0; trial < 80; ++trial) {
    const Bytes tw = kv::encode_shard_table(random_shard_table(rng));
    const Bytes sw = kv::encode_range_spec(random_range_spec(rng));
    const Bytes nw = kv::encode_range_snapshot(random_range_snapshot(rng));
    for (std::size_t cut = 0; cut < tw.size(); cut += rng.below(5) + 1) {
      EXPECT_FALSE(
          kv::decode_shard_table(util::ByteView(tw).subspan(0, cut))
              .has_value());
    }
    for (std::size_t cut = 0; cut < sw.size(); cut += rng.below(5) + 1) {
      EXPECT_FALSE(
          kv::decode_range_spec(util::ByteView(sw).subspan(0, cut))
              .has_value());
    }
    for (std::size_t cut = 0; cut < nw.size(); cut += rng.below(7) + 1) {
      EXPECT_FALSE(
          kv::decode_range_snapshot(util::ByteView(nw).subspan(0, cut))
              .has_value());
    }
    // Trailing garbage is rejected (expect_end strictness).
    for (Bytes wire : {tw, sw, nw}) {
      wire.push_back(static_cast<std::uint8_t>(rng.below(256)));
      EXPECT_FALSE(kv::decode_shard_table(wire).has_value() &&
                   kv::decode_range_spec(wire).has_value() &&
                   kv::decode_range_snapshot(wire).has_value());
    }
  }
  // ConfigChange is fixed-size: every truncation must reject.
  const Bytes cw = reconfig::encode_config_change({});
  for (std::size_t cut = 0; cut < cw.size(); ++cut) {
    EXPECT_FALSE(
        reconfig::decode_config_change(util::ByteView(cw).subspan(0, cut))
            .has_value());
  }
}

TEST(WireFuzz, ReconfigForgedCountPrefixesCappedByBytesPresent) {
  // A forged count header (0xFFFFFFFF buckets / pairs) must fail the parse
  // without allocating for the claimed count — the unchecked-reserve class.
  util::Writer forged_table;
  forged_table.u64(0).u32(1).u32(0xFFFFFFFFu);
  forged_table.u32(0);  // one bucket of the four billion claimed
  EXPECT_FALSE(
      kv::decode_shard_table(std::move(forged_table).take()).has_value());

  util::Writer forged_spec;
  forged_spec.u64(1).u32(4).u32(0xFFFFFFFFu).u32(1);
  EXPECT_FALSE(
      kv::decode_range_spec(std::move(forged_spec).take()).has_value());

  // A drain's first section len forged to 4 GiB, re-sealed under a correct
  // checksum: the framing must refuse it without reading past the blob.
  sim::Rng rng(0x5EC0F3ull);
  const Bytes wire = kv::encode_range_snapshot(random_range_snapshot(rng));
  Bytes body(wire.begin(), wire.end() - 8);
  for (std::size_t i = 1; i < 5; ++i) body[i] = 0xFF;  // after the tag byte
  util::Writer resealed;
  resealed.raw(body).checksum();
  EXPECT_FALSE(
      kv::decode_range_snapshot(std::move(resealed).take()).has_value());
}

TEST(WireFuzz, ReconfigSnapshotBitFlipsNeverAccepted) {
  // Unlike the plain command codec, the range snapshot carries a checksum:
  // ANY flipped bit must fail closed, not just not-crash.
  sim::Rng rng(0x5EC0F4ull);
  for (int trial = 0; trial < 120; ++trial) {
    const Bytes wire = kv::encode_range_snapshot(random_range_snapshot(rng));
    Bytes flipped = wire;
    const std::size_t bit = rng.below(flipped.size() * 8);
    flipped[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    EXPECT_FALSE(kv::decode_range_snapshot(flipped).has_value())
        << "trial " << trial << " bit " << bit;
  }
}

TEST(WireFuzz, ReconfigRandomBytesNeverCrashAnyDecoder) {
  sim::Rng rng(0x5EC0F5ull);
  std::uint64_t snapshots_decoded = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    const Bytes junk = random_bytes(rng, rng.below(120));
    (void)kv::decode_shard_table(junk);
    (void)kv::decode_range_spec(junk);
    (void)reconfig::decode_config_change(junk);
    if (kv::decode_range_snapshot(junk).has_value()) ++snapshots_decoded;
  }
  // The checksum trailer makes an accidental snapshot parse essentially
  // impossible.
  EXPECT_EQ(snapshots_decoded, 0u);
}

// ---------------------------------------------------------------------------
// Transaction record codecs (src/txn/) and the lock-carrying state codecs.
// Txn payloads ride consensus slots inside kv::Commands, so they inherit the
// same threat model: arbitrary bytes a Byzantine proposer can win with.
// ---------------------------------------------------------------------------

txn::PrepareRecord random_prepare(sim::Rng& rng) {
  txn::PrepareRecord p;
  p.txn = rng.next();
  p.write = rng.chance(0.3) ? txn::WriteKind::kDel : txn::WriteKind::kPut;
  if (p.write == txn::WriteKind::kPut) {
    p.value = random_bytes(rng, rng.below(48));
  }
  p.has_expected = rng.chance(0.5);
  if (p.has_expected) p.expected = random_bytes(rng, rng.below(16));
  return p;
}

TEST(WireFuzz, TxnRecordCodecsRoundTripExactly) {
  sim::Rng rng(0x7A10ull);
  for (int trial = 0; trial < 300; ++trial) {
    const txn::PrepareRecord p = random_prepare(rng);
    const auto dp = txn::decode_prepare(txn::encode_prepare(p));
    ASSERT_TRUE(dp.has_value()) << "trial " << trial;
    EXPECT_EQ(*dp, p);

    txn::DecisionRecord d;
    d.txn = rng.next();
    const auto dd = txn::decode_decision(txn::encode_decision(d));
    ASSERT_TRUE(dd.has_value()) << "trial " << trial;
    EXPECT_EQ(*dd, d);
  }
}

TEST(WireFuzz, TxnRecordTruncationsAndNoncanonicalFormsRejected) {
  sim::Rng rng(0x7A11ull);
  for (int trial = 0; trial < 150; ++trial) {
    const Bytes wire = txn::encode_prepare(random_prepare(rng));
    for (std::size_t cut = 0; cut < wire.size(); ++cut) {
      EXPECT_FALSE(
          txn::decode_prepare(util::ByteView(wire).subspan(0, cut)).has_value())
          << "trial " << trial << " cut " << cut;
    }
    Bytes extended = wire;
    extended.push_back(0);
    EXPECT_FALSE(txn::decode_prepare(extended).has_value());
  }

  // Non-canonical forms an encoder can never emit must still be rejected:
  // a delete buffering a payload, a bad write kind, a guard flag above 1.
  util::Writer del_with_value;
  del_with_value.u64(7)
      .u8(static_cast<std::uint8_t>(txn::WriteKind::kDel))
      .bytes(to_bytes("sneak"))
      .u8(0);
  EXPECT_FALSE(txn::decode_prepare(std::move(del_with_value).take()));
  for (const std::uint8_t kind : {std::uint8_t{0}, std::uint8_t{3},
                                  std::uint8_t{255}}) {
    util::Writer bad_kind;
    bad_kind.u64(7).u8(kind).bytes(Bytes{}).u8(0);
    EXPECT_FALSE(txn::decode_prepare(std::move(bad_kind).take()))
        << "kind " << int{kind};
  }
  util::Writer bad_guard;
  bad_guard.u64(7)
      .u8(static_cast<std::uint8_t>(txn::WriteKind::kPut))
      .bytes(Bytes{})
      .u8(2);
  EXPECT_FALSE(txn::decode_prepare(std::move(bad_guard).take()));

  const Bytes decision = txn::encode_decision({9});
  for (std::size_t cut = 0; cut < decision.size(); ++cut) {
    EXPECT_FALSE(txn::decode_decision(util::ByteView(decision).subspan(0, cut))
                     .has_value());
  }
  Bytes trailing = decision;
  trailing.push_back(0);
  EXPECT_FALSE(txn::decode_decision(trailing).has_value());
}

TEST(WireFuzz, TxnRecordRandomBytesNeverCrash) {
  sim::Rng rng(0x7A12ull);
  for (int trial = 0; trial < 2000; ++trial) {
    const Bytes junk = random_bytes(rng, rng.below(80));
    (void)txn::decode_prepare(junk);
    (void)txn::decode_decision(junk);
  }
}

TEST(WireFuzz, SignedTxnPrepareCrossShardReplayRejected) {
  // A PREPARE validly signed by its own client for shard 0's log, replayed
  // into shard 1 by a Byzantine member of both groups: the group binding in
  // the signing bytes must make it verify as forged — otherwise an attacker
  // could plant the victim's lock (and pending write) on a shard the
  // transaction never touched.
  crypto::KeyStore ks(0x51C7A0ull);
  const crypto::Signer client = ks.register_process(kv::client_signer_id(1));
  kv::Command c;
  c.op = kv::Op::kTxnPrepare;
  c.client = 1;
  c.seq = 1;
  c.key = to_bytes("acct-0");
  txn::PrepareRecord pr;
  pr.txn = 42;
  pr.write = txn::WriteKind::kPut;
  pr.value = to_bytes("999999");
  c.value = txn::encode_prepare(pr);
  const Bytes body = kv::encode_command(c);
  const Bytes wire = kv::encode_signed_command(
      body, client.sign(kv::command_signing_bytes(0, body)));

  kv::StateMachine home, other;
  home.set_keystore(&ks, /*group=*/0);
  other.set_keystore(&ks, /*group=*/1);
  home.apply(0, wire);
  EXPECT_EQ(home.forged(), 0u);
  EXPECT_EQ(home.locks_held(), 1u);  // the genuine wire locks at home
  other.apply(0, wire);
  EXPECT_EQ(other.forged(), 1u) << "cross-shard replay must verify as forged";
  EXPECT_EQ(other.locks_held(), 0u);
  EXPECT_EQ(other.ops_applied(), 0u);
}

/// random_kv_machine plus transaction traffic: prepares (guarded and not),
/// decisions (matching and orphan), malformed txn payloads — some locks
/// still held, every counter exercised.
kv::StateMachine random_txn_machine(sim::Rng& rng) {
  kv::StateMachine m = random_kv_machine(rng);
  std::map<std::uint64_t, std::uint64_t> seqs;
  for (kv::ClientId c = 1; c <= 4; ++c) seqs[c] = m.last_seq(c);
  const std::size_t ops = rng.below(16) + 4;
  for (std::size_t i = 0; i < ops; ++i) {
    kv::Command c;
    c.client = rng.below(4) + 1;
    c.seq = ++seqs[c.client];
    c.key = random_bytes(rng, rng.below(6) + 1);
    const std::size_t kind = rng.below(4);
    if (kind == 0) {
      c.op = kv::Op::kTxnPrepare;
      c.value = txn::encode_prepare(random_prepare(rng));
    } else if (kind == 1) {
      c.op = rng.chance(0.5) ? kv::Op::kTxnCommit : kv::Op::kTxnAbort;
      c.value = txn::encode_decision({rng.below(4)});
    } else if (kind == 2) {
      // Decision matching a held lock, if any — releases it.
      c.op = rng.chance(0.5) ? kv::Op::kTxnCommit : kv::Op::kTxnAbort;
      if (!m.locks().empty()) {
        const auto& [key, lock] = *m.locks().begin();
        c.key = key;
        c.client = lock.owner;
        c.seq = ++seqs[c.client];
        c.value = txn::encode_decision({lock.txn});
      } else {
        c.value = txn::encode_decision({7});
      }
    } else {
      c.op = kv::Op::kTxnPrepare;
      c.value = random_bytes(rng, rng.below(12));  // likely malformed payload
    }
    m.apply(100 + i, kv::encode_command(c));
  }
  return m;
}

TEST(WireFuzz, TxnSnapshotWithLocksRoundTripsExactly) {
  sim::Rng rng(0x7A13ull);
  std::uint64_t with_locks = 0;
  for (int trial = 0; trial < 150; ++trial) {
    const kv::StateMachine m = random_txn_machine(rng);
    if (m.locks_held() > 0) ++with_locks;
    kv::StateMachine fresh;
    ASSERT_TRUE(fresh.restore(m.snapshot())) << "trial " << trial;
    EXPECT_EQ(fresh.store_hash(), m.store_hash());
    EXPECT_EQ(fresh.locks_held(), m.locks_held());
    EXPECT_EQ(fresh.txn_prepared(), m.txn_prepared());
    EXPECT_EQ(fresh.txn_committed(), m.txn_committed());
    EXPECT_EQ(fresh.txn_aborted(), m.txn_aborted());
    EXPECT_EQ(fresh.txn_conflicts(), m.txn_conflicts());
    EXPECT_EQ(fresh.txn_orphans(), m.txn_orphans());
    EXPECT_EQ(fresh.txn_rejected(), m.txn_rejected());
    EXPECT_EQ(fresh.snapshot(), m.snapshot());
  }
  // The generator must actually produce held locks, or the lock section of
  // the codec went untested.
  EXPECT_GT(with_locks, 20u);
}

TEST(WireFuzz, TxnSnapshotTruncationsAndFlipsRejectedUntouched) {
  sim::Rng rng(0x7A14ull);
  for (int trial = 0; trial < 60; ++trial) {
    const Bytes wire = random_txn_machine(rng).snapshot();
    kv::StateMachine victim;
    victim.apply(0, kv::encode_command({kv::Op::kPut, 9, 1, to_bytes("canary"),
                                        to_bytes("alive"), {}}));
    const std::uint64_t before = victim.store_hash();
    for (std::size_t cut = 0; cut < wire.size(); cut += rng.below(9) + 1) {
      EXPECT_FALSE(victim.restore(util::ByteView(wire).subspan(0, cut)))
          << "trial " << trial << " cut " << cut;
    }
    Bytes flipped = wire;
    const std::size_t bit = rng.below(flipped.size() * 8);
    flipped[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    EXPECT_FALSE(victim.restore(flipped)) << "trial " << trial;
    EXPECT_EQ(victim.store_hash(), before);
  }
}

TEST(WireFuzz, RangeSnapshotWithLocksRoundTripsAndFailsClosed) {
  sim::Rng rng(0x7A15ull);
  for (int trial = 0; trial < 100; ++trial) {
    kv::RangeSnapshot snap;
    snap.spec.epoch = rng.below(8) + 1;
    snap.spec.table_buckets = 4;
    snap.spec.buckets = {static_cast<std::uint32_t>(rng.below(4))};
    const std::size_t pairs = rng.below(4);
    for (std::size_t i = 0; i < pairs; ++i) {
      snap.pairs.emplace_back(to_bytes("k" + std::to_string(i)),
                              random_bytes(rng, rng.below(16)));
    }
    const std::size_t locks = rng.below(3) + 1;
    for (std::size_t i = 0; i < locks; ++i) {
      kv::LockRecord l;
      l.key = to_bytes("lk" + std::to_string(i));  // sorted by construction
      l.txn = rng.next();
      l.owner = rng.below(8) + 1;
      l.write = rng.chance(0.5) ? 1 : 2;
      l.value = random_bytes(rng, rng.below(16));
      l.has_expected = rng.chance(0.5);
      if (l.has_expected) l.expected = random_bytes(rng, rng.below(16));
      snap.locks.push_back(std::move(l));
    }
    // Sessions carry their prepare marks inline, sometimes none.
    const std::size_t sessions = rng.below(3);
    for (std::size_t i = 0; i < sessions; ++i) {
      kv::SessionRecord s;
      s.client = i + 1;  // ascending by construction
      s.last_seq = rng.below(64) + 1;
      if (rng.chance(0.5)) {
        s.prepare_seq = rng.below(64) + 1;
        s.prepare_status =
            rng.chance(0.5) ? kv::Status::kOk : kv::Status::kTxnConflict;
      }
      snap.sessions.push_back(std::move(s));
    }
    const Bytes wire = kv::encode_range_snapshot(snap);
    const auto d = kv::decode_range_snapshot(wire);
    ASSERT_TRUE(d.has_value()) << "trial " << trial;
    EXPECT_EQ(*d, snap) << "trial " << trial;

    // Truncations and any flipped bit fail the checksum, closed.
    for (std::size_t cut = 0; cut < wire.size(); cut += rng.below(9) + 1) {
      EXPECT_FALSE(
          kv::decode_range_snapshot(util::ByteView(wire).subspan(0, cut))
              .has_value())
          << "trial " << trial << " cut " << cut;
    }
    Bytes flipped = wire;
    const std::size_t bit = rng.below(flipped.size() * 8);
    flipped[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    EXPECT_FALSE(kv::decode_range_snapshot(flipped).has_value())
        << "trial " << trial;
  }
}

TEST(WireFuzz, RangeSnapshotTailSectionsRejectNonCanonicalForms) {
  // Record validators fire behind a correct checksum, so these malformed
  // forms must reject even though the encoder sealed them consistently.
  kv::RangeSnapshot base;
  base.spec.epoch = 1;
  base.spec.table_buckets = 4;
  base.spec.buckets = {2};

  // Unordered sessions (the encoder writes whatever it is given; the
  // decoder enforces ascending clients).
  kv::RangeSnapshot unordered = base;
  unordered.sessions.push_back({2, 5, {}, 5, kv::Status::kOk});
  unordered.sessions.push_back({1, 6, {}, 6, kv::Status::kOk});
  EXPECT_FALSE(
      kv::decode_range_snapshot(kv::encode_range_snapshot(unordered))
          .has_value());

  // A zero-seq mark means "no mark" and carries the default status only.
  kv::RangeSnapshot zero_seq = base;
  zero_seq.sessions.push_back({1, 4, {}, 0, kv::Status::kTxnConflict});
  EXPECT_FALSE(
      kv::decode_range_snapshot(kv::encode_range_snapshot(zero_seq))
          .has_value());

  // Marks carry prepare outcomes only — a kStaleDup (non-persistable
  // marker) can never be one, nor a cached reply.
  kv::RangeSnapshot bad_status = base;
  bad_status.sessions.push_back({1, 3, {}, 3, kv::Status::kStaleDup});
  EXPECT_FALSE(
      kv::decode_range_snapshot(kv::encode_range_snapshot(bad_status))
          .has_value());
  kv::RangeSnapshot bad_reply = base;
  bad_reply.sessions.push_back({1, 3, {kv::Status::kWrongEpoch, {}}});
  EXPECT_FALSE(
      kv::decode_range_snapshot(kv::encode_range_snapshot(bad_reply))
          .has_value());

  // Guard bytes without the guard flag are non-canonical.
  kv::RangeSnapshot stray_guard = base;
  {
    kv::LockRecord l;
    l.key = to_bytes("lk");
    l.txn = 7;
    l.owner = 1;
    l.write = 1;
    l.has_expected = false;
    l.expected = to_bytes("stray");
    stray_guard.locks.push_back(std::move(l));
  }
  EXPECT_FALSE(
      kv::decode_range_snapshot(kv::encode_range_snapshot(stray_guard))
          .has_value());
}

// ---------------------------------------------------------------------------
// The shared section framing (`u8 tag, u32 len, body`, ascending tags, FNV-1a
// checksum trailer) behind both kv::StateMachine::restore and
// kv::decode_range_snapshot. Each violation below is re-sealed with a
// correct checksum (unless the checksum is the violation), so the framing
// checks themselves must reject it.
// ---------------------------------------------------------------------------

using SectionList = std::vector<std::pair<std::uint8_t, Bytes>>;

SectionList split_blob(const Bytes& blob) {
  SectionList out;
  util::Reader r(util::ByteView(blob).first(blob.size() - 8));
  while (!r.at_end()) {
    const std::uint8_t tag = r.u8();
    out.emplace_back(tag, r.bytes());
  }
  return out;
}

/// Frame `sections` (section `len_at`'s len prefix replaced by `len`), add
/// `junk` behind the last one, and seal with a correct checksum.
Bytes seal_blob(const SectionList& sections, Bytes junk = {},
                std::size_t len_at = SIZE_MAX, std::uint32_t len = 0) {
  util::Writer w;
  for (std::size_t i = 0; i < sections.size(); ++i) {
    const auto& [tag, body] = sections[i];
    w.u8(tag).u32(i == len_at ? len : static_cast<std::uint32_t>(body.size()));
    w.raw(body);
  }
  w.raw(junk).checksum();
  return std::move(w).take();
}

/// Every framing violation of `blob`, which must hold ≥ 2 sections.
/// `unknown` is a tag the blob's decoder does not accept.
std::vector<std::pair<std::string, Bytes>> framing_violations(
    const Bytes& blob, std::uint8_t unknown) {
  const SectionList s = split_blob(blob);
  std::vector<std::pair<std::string, Bytes>> out;
  EXPECT_EQ(seal_blob(s), blob) << "the test framing must match the codec";
  for (const std::uint8_t tag : {std::uint8_t{0}, unknown, std::uint8_t{200}}) {
    SectionList l = s;
    l.emplace_back(tag, Bytes{1});
    std::stable_sort(l.begin(), l.end(), [](const auto& a, const auto& b) {
      return a.first < b.first;
    });
    out.emplace_back("unknown tag " + std::to_string(tag), seal_blob(l));
  }
  SectionList repeated = s;
  repeated.push_back(s.back());
  out.emplace_back("repeated tag", seal_blob(repeated));
  SectionList descending = s;
  std::swap(descending[0], descending[1]);
  out.emplace_back("descending tags", seal_blob(descending));
  SectionList empty = s;
  empty[0].second.clear();
  out.emplace_back("empty section", seal_blob(empty));
  const auto len = [&](std::size_t i) {
    return static_cast<std::uint32_t>(s[i].second.size());
  };
  out.emplace_back("len over-run",
                   seal_blob(s, {}, s.size() - 1, len(s.size() - 1) + 1));
  out.emplace_back("len under-run", seal_blob(s, {}, 0, len(0) - 1));
  out.emplace_back("junk before checksum", seal_blob(s, Bytes{0xFF, 0, 0, 0}));
  Bytes trailing = blob;
  trailing.push_back(0);
  out.emplace_back("trailing bytes", trailing);
  Bytes flipped = blob;
  flipped.back() ^= 0x01;
  out.emplace_back("checksum flip", flipped);
  return out;
}

TEST(WireFuzz, SectionFramingViolationsRejectedUntouched) {
  sim::Rng rng(0x5EC7ull);
  for (int trial = 0; trial < 40; ++trial) {
    // Machine snapshots: the drain-only range tag is unknown here.
    const Bytes snap = random_txn_machine(rng).snapshot();
    kv::StateMachine victim;
    victim.apply(0, kv::encode_command({kv::Op::kPut, 9, 1, to_bytes("canary"),
                                        to_bytes("alive"), {}}));
    const Bytes before = victim.snapshot();
    for (const auto& [name, wire] :
         framing_violations(snap, kv::kRangeSection)) {
      EXPECT_FALSE(victim.restore(wire)) << "trial " << trial << ": " << name;
      EXPECT_EQ(victim.snapshot(), before) << "trial " << trial << ": " << name;
    }

    // Range drains: the snapshot-only partition tag is unknown here.
    kv::RangeSnapshot drain = random_range_snapshot(rng);
    if (drain.pairs.empty()) drain.pairs.emplace_back(to_bytes("k"), Bytes{});
    for (const auto& [name, wire] : framing_violations(
             kv::encode_range_snapshot(drain), kv::kPartitionSection)) {
      EXPECT_FALSE(kv::decode_range_snapshot(wire).has_value())
          << "trial " << trial << ": " << name;
    }
  }
}

}  // namespace
}  // namespace mnm::core::trusted
