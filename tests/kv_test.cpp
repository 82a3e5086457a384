// kv/ unit invariants: the command codec, the state machine's GET/PUT/DEL/
// CAS semantics and exactly-once session dedup, the shard map, and the
// workload generators (zipfian skew, fixed-seed reproducibility).

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <stdexcept>
#include <vector>

#include "src/core/omega.hpp"
#include "src/crypto/signature.hpp"
#include "src/kv/command.hpp"
#include "src/kv/router.hpp"
#include "src/kv/shard.hpp"
#include "src/kv/state_machine.hpp"
#include "src/kv/workload.hpp"
#include "src/sim/executor.hpp"
#include "src/sim/rng.hpp"
#include "src/sim/task.hpp"
#include "src/sim/time.hpp"

namespace mnm::kv {
namespace {

using util::to_bytes;

Command cmd(Op op, ClientId client, std::uint64_t seq, const char* key,
            const char* value = "", const char* expected = "") {
  Command c;
  c.op = op;
  c.client = client;
  c.seq = seq;
  c.key = to_bytes(key);
  c.value = to_bytes(value);
  c.expected = to_bytes(expected);
  return c;
}

TEST(KvCodec, RoundTripAllOps) {
  for (const Op op : {Op::kGet, Op::kPut, Op::kDel, Op::kCas}) {
    const Command c = cmd(op, 7, 42, "key-3", "some value", "old value");
    const auto d = decode_command(encode_command(c));
    ASSERT_TRUE(d.has_value());
    EXPECT_EQ(*d, c);
  }
}

TEST(KvCodec, MalformedInputsDecodeToNullopt) {
  const Bytes wire = encode_command(cmd(Op::kPut, 1, 1, "k", "v"));
  // Every proper truncation fails (strict length prefixes + expect_end).
  for (std::size_t cut = 0; cut < wire.size(); ++cut) {
    EXPECT_FALSE(
        decode_command(util::ByteView(wire).subspan(0, cut)).has_value())
        << "cut " << cut;
  }
  // Trailing garbage fails.
  Bytes extended = wire;
  extended.push_back(0);
  EXPECT_FALSE(decode_command(extended).has_value());
  // Bad op byte fails.
  Bytes bad_op = wire;
  bad_op[0] = 99;
  EXPECT_FALSE(decode_command(bad_op).has_value());
  EXPECT_FALSE(decode_command(Bytes{}).has_value());
}

TEST(KvStateMachine, GetPutDelCasSemantics) {
  StateMachine sm;
  std::vector<Reply> replies;
  sm.set_reply_sink(
      [&](ClientId, std::uint64_t, const Reply& r) { replies.push_back(r); });

  sm.apply(0, encode_command(cmd(Op::kGet, 1, 1, "a")));
  EXPECT_EQ(replies.back().status, Status::kNotFound);

  sm.apply(0, encode_command(cmd(Op::kPut, 1, 2, "a", "v1")));
  EXPECT_EQ(replies.back().status, Status::kOk);
  sm.apply(1, encode_command(cmd(Op::kGet, 1, 3, "a")));
  EXPECT_EQ(replies.back().status, Status::kOk);
  EXPECT_EQ(replies.back().value, to_bytes("v1"));

  // CAS with the right expectation swaps; with a stale one reports the
  // actual current value.
  sm.apply(2, encode_command(cmd(Op::kCas, 1, 4, "a", "v2", "v1")));
  EXPECT_EQ(replies.back().status, Status::kOk);
  sm.apply(2, encode_command(cmd(Op::kCas, 1, 5, "a", "v3", "v1")));
  EXPECT_EQ(replies.back().status, Status::kCasMismatch);
  EXPECT_EQ(replies.back().value, to_bytes("v2"));
  // CAS with empty expectation means "create iff absent".
  sm.apply(3, encode_command(cmd(Op::kCas, 1, 6, "b", "fresh")));
  EXPECT_EQ(replies.back().status, Status::kOk);

  sm.apply(4, encode_command(cmd(Op::kDel, 1, 7, "a")));
  EXPECT_EQ(replies.back().status, Status::kOk);
  sm.apply(4, encode_command(cmd(Op::kDel, 1, 8, "a")));
  EXPECT_EQ(replies.back().status, Status::kNotFound);

  EXPECT_EQ(sm.ops_applied(), 8u);
  EXPECT_EQ(sm.duplicates_suppressed(), 0u);
  EXPECT_EQ(sm.last_seq(1), 8u);
}

TEST(KvStateMachine, DuplicateApplySuppressedAndCachedReplyRedelivered) {
  StateMachine sm;
  std::vector<std::pair<std::uint64_t, Reply>> replies;
  sm.set_reply_sink([&](ClientId, std::uint64_t seq, const Reply& r) {
    replies.emplace_back(seq, r);
  });

  const Bytes put = encode_command(cmd(Op::kPut, 9, 1, "k", "first"));
  sm.apply(0, put);
  // The same (client, seq) lands again — a leader hand-off re-proposal or a
  // client retry racing the original. The mutation must not repeat, and the
  // cached reply must be re-delivered for the retrying client.
  sm.apply(1, put);
  EXPECT_EQ(sm.ops_applied(), 1u);
  EXPECT_EQ(sm.duplicates_suppressed(), 1u);
  ASSERT_EQ(replies.size(), 2u);
  EXPECT_EQ(replies[0], replies[1]);
  EXPECT_EQ(sm.store().at(to_bytes("k")), to_bytes("first"));

  // A duplicate whose effect would differ if re-applied: PUT k=second, then
  // a stale copy of the first PUT. The store must keep "second".
  sm.apply(2, encode_command(cmd(Op::kPut, 9, 2, "k", "second")));
  sm.apply(3, put);
  EXPECT_EQ(sm.store().at(to_bytes("k")), to_bytes("second"));
  EXPECT_EQ(sm.ops_applied(), 2u);
  EXPECT_EQ(sm.duplicates_suppressed(), 2u);

  // Duplicate CAS: the second apply must NOT see its own write and flip to
  // mismatch — it must echo the original success.
  const Bytes cas = encode_command(cmd(Op::kCas, 9, 3, "k", "third", "second"));
  sm.apply(4, cas);
  ASSERT_EQ(replies.back().second.status, Status::kOk);
  sm.apply(5, cas);
  EXPECT_EQ(replies.back().second.status, Status::kOk) << "duplicate CAS must "
      "re-deliver the cached success, not re-evaluate against its own write";
  EXPECT_EQ(sm.ops_applied(), 3u);
}

TEST(KvStateMachine, MalformedCommandsNoopDeterministically) {
  StateMachine sm;
  sm.apply(0, to_bytes("\xde\xad\xbe\xef"));
  sm.apply(0, Bytes{});
  EXPECT_EQ(sm.malformed(), 2u);
  EXPECT_EQ(sm.ops_applied(), 0u);
  EXPECT_TRUE(sm.store().empty());
}

TEST(KvStateMachine, StoreHashCoversStoreAndSessions) {
  StateMachine a, b;
  const Bytes put = encode_command(cmd(Op::kPut, 1, 1, "k", "v"));
  a.apply(0, put);
  b.apply(0, put);
  EXPECT_EQ(a.store_hash(), b.store_hash());
  // Same store, different session history (a saw a duplicate) — hashes
  // still equal because duplicates change no session state...
  a.apply(1, put);
  EXPECT_EQ(a.store_hash(), b.store_hash());
  // ...but a diverging applied op changes the hash even when the store ends
  // up identical (DEL of an absent key).
  b.apply(2, encode_command(cmd(Op::kDel, 2, 1, "nope")));
  EXPECT_NE(a.store_hash(), b.store_hash());
}

TEST(KvShardMap, StableAndReasonablySpread) {
  const ShardMap map(8);
  std::map<std::size_t, std::size_t> counts;
  for (int i = 0; i < 256; ++i) {
    const Bytes key = util::to_bytes("key-" + std::to_string(i));
    const std::size_t s = map.shard_of(key);
    EXPECT_EQ(s, map.shard_of(key));  // deterministic
    EXPECT_LT(s, 8u);
    ++counts[s];
  }
  // Every shard owns a meaningful chunk of a 256-key space.
  EXPECT_EQ(counts.size(), 8u);
  for (const auto& [shard, count] : counts) {
    EXPECT_GE(count, 12u) << "shard " << shard << " nearly empty";
  }
  // One shard degenerates to everything-on-0.
  const ShardMap one(1);
  EXPECT_EQ(one.shard_of(util::to_bytes("anything")), 0u);
}

TEST(KvShardNs, DistinctPerGroup) {
  EXPECT_EQ(shard_ns(0), "g0/");
  EXPECT_EQ(shard_ns(3), "g3/");
  EXPECT_NE(shard_ns(1), shard_ns(2));
}

TEST(KvZipf, SkewedAndDeterministic) {
  ZipfGenerator zipf(100, 0.99);
  sim::Rng rng1(7), rng2(7);
  std::map<std::size_t, std::size_t> hist;
  for (int i = 0; i < 4000; ++i) {
    const std::size_t a = zipf.next(rng1);
    ASSERT_LT(a, 100u);
    ++hist[a];
  }
  ZipfGenerator zipf2(100, 0.99);
  for (int i = 0; i < 4000; ++i) {
    const std::size_t b = zipf2.next(rng2);
    --hist[b];
  }
  for (const auto& [k, v] : hist) {
    EXPECT_EQ(v, 0u) << "zipf stream diverged at key " << k;
  }
  // Skew: the hottest item dominates a uniform draw's share by far.
  ZipfGenerator zipf3(100, 0.99);
  sim::Rng rng3(11);
  std::size_t zero = 0;
  for (int i = 0; i < 4000; ++i) {
    if (zipf3.next(rng3) == 0) ++zero;
  }
  EXPECT_GT(zero, 400u) << "item 0 should draw far more than the uniform 1%";
}

TEST(KvWorkloadMix, ReadFractions) {
  EXPECT_DOUBLE_EQ(read_fraction(Mix::kA), 0.5);
  EXPECT_DOUBLE_EQ(read_fraction(Mix::kB), 0.95);
  EXPECT_DOUBLE_EQ(read_fraction(Mix::kC), 1.0);
}

// ---------------------------------------------------------------------------
// Snapshot / restore: the crash-and-rejoin codec.
// ---------------------------------------------------------------------------

TEST(KvStateMachine, SnapshotRestoreRoundTripPreservesEverything) {
  StateMachine a;
  a.apply(0, encode_command(cmd(Op::kPut, 1, 1, "a", "v1")));
  a.apply(1, encode_command(cmd(Op::kPut, 2, 1, "b", "v2")));
  a.apply(2, encode_command(cmd(Op::kCas, 1, 2, "a", "v3", "wrong")));  // mismatch
  a.apply(3, encode_command(cmd(Op::kDel, 2, 2, "nope")));  // not-found
  a.apply(4, encode_command(cmd(Op::kPut, 1, 2, "a", "dup")));  // dup of seq 2
  a.apply(5, to_bytes("\xde\xad"));  // malformed

  StateMachine b;
  ASSERT_TRUE(b.restore(a.snapshot()));
  EXPECT_EQ(b.store_hash(), a.store_hash());
  EXPECT_EQ(b.ops_applied(), a.ops_applied());
  EXPECT_EQ(b.duplicates_suppressed(), a.duplicates_suppressed());
  EXPECT_EQ(b.malformed(), a.malformed());
  EXPECT_EQ(b.store(), a.store());
  EXPECT_EQ(b.last_seq(1), a.last_seq(1));
  EXPECT_EQ(b.last_seq(2), a.last_seq(2));

  // The restored sessions still dedup: a retry of client 1's last op must be
  // suppressed and re-deliver the cached reply — across the restart.
  std::vector<std::pair<std::uint64_t, Reply>> replies;
  b.set_reply_sink([&](ClientId, std::uint64_t seq, const Reply& r) {
    replies.emplace_back(seq, r);
  });
  const std::uint64_t before = b.ops_applied();
  b.apply(6, encode_command(cmd(Op::kCas, 1, 2, "a", "v3", "wrong")));
  EXPECT_EQ(b.ops_applied(), before);
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(replies[0].second.status, Status::kCasMismatch);
  EXPECT_EQ(replies[0].second.value, to_bytes("v1"));
  // Restored and original must keep hashing identically as they diverge
  // together.
  a.apply(6, encode_command(cmd(Op::kCas, 1, 2, "a", "v3", "wrong")));
  EXPECT_EQ(b.store_hash(), a.store_hash());
}

TEST(KvStateMachine, EmptyMachineSnapshotRoundTrips) {
  StateMachine a, b;
  b.apply(0, encode_command(cmd(Op::kPut, 1, 1, "junk", "junk")));
  ASSERT_TRUE(b.restore(a.snapshot()));  // restore back to pristine
  EXPECT_EQ(b.store_hash(), a.store_hash());
  EXPECT_TRUE(b.store().empty());
  EXPECT_EQ(b.ops_applied(), 0u);
}

TEST(KvStateMachine, RestoreRejectsCorruptSnapshotsUntouched) {
  StateMachine a;
  a.apply(0, encode_command(cmd(Op::kPut, 1, 1, "k", "v")));
  a.apply(1, encode_command(cmd(Op::kPut, 2, 1, "k2", "v2")));
  const Bytes snap = a.snapshot();

  StateMachine b;
  b.apply(0, encode_command(cmd(Op::kPut, 7, 1, "mine", "intact")));
  const std::uint64_t hash_before = b.store_hash();

  // Every truncation fails (strict total decode).
  for (std::size_t cut = 0; cut < snap.size(); ++cut) {
    EXPECT_FALSE(b.restore(util::ByteView(snap).subspan(0, cut)))
        << "cut " << cut;
  }
  // Trailing garbage fails.
  Bytes extended = snap;
  extended.push_back(0);
  EXPECT_FALSE(b.restore(extended));
  // Any flipped byte fails: either the codec rejects it or the embedded
  // digest catches it.
  for (std::size_t i = 0; i < snap.size(); ++i) {
    Bytes bad = snap;
    bad[i] ^= 0x01;
    EXPECT_FALSE(b.restore(bad)) << "flipped byte " << i;
  }
  EXPECT_FALSE(b.restore(Bytes{}));
  // Every rejection left the target machine untouched.
  EXPECT_EQ(b.store_hash(), hash_before);
  EXPECT_EQ(b.store().at(to_bytes("mine")), to_bytes("intact"));
}

// --- Stale duplicates (seq < last_seq). ---

TEST(KvStateMachine, StaleDuplicateGetsMarkerNotSomeoneElsesReply) {
  StateMachine sm;
  std::vector<std::pair<std::uint64_t, Reply>> replies;
  sm.set_reply_sink([&](ClientId, std::uint64_t seq, const Reply& r) {
    replies.emplace_back(seq, r);
  });
  const Bytes put = encode_command(cmd(Op::kPut, 3, 1, "k", "mine"));
  const Bytes get = encode_command(cmd(Op::kGet, 3, 2, "k"));
  sm.apply(0, put);
  sm.apply(1, get);
  ASSERT_EQ(replies.size(), 2u);
  const Reply get_reply = replies[1].second;

  // A very late replay of seq 1 arrives after seq 2 already applied. Only
  // seq 2's reply is cached — re-delivering it for seq 1 would hand the PUT
  // a GET's answer. The stale replay must get the explicit marker instead.
  sm.apply(2, put);
  ASSERT_EQ(replies.size(), 3u);
  EXPECT_EQ(replies[2].first, 1u);
  EXPECT_EQ(replies[2].second.status, Status::kStaleDup);
  EXPECT_TRUE(replies[2].second.value.empty());
  EXPECT_EQ(sm.duplicates_suppressed(), 1u);

  // A replay of the *newest* seq still re-delivers the cached original.
  sm.apply(3, get);
  ASSERT_EQ(replies.size(), 4u);
  EXPECT_EQ(replies[3].first, 2u);
  EXPECT_EQ(replies[3].second, get_reply);
  EXPECT_EQ(sm.ops_applied(), 2u);
}

// --- Client-signed commands. ---

Bytes signed_wire(const crypto::Signer& signer, const Command& c,
                  std::uint32_t group = 0) {
  const Bytes body = encode_command(c);
  return encode_signed_command(body,
                               signer.sign(command_signing_bytes(group, body)));
}

TEST(KvSignedCodec, RoundTripAndLegacyPassthrough) {
  crypto::KeyStore ks(11);
  const crypto::Signer signer = ks.register_process(client_signer_id(7));
  const Command c = cmd(Op::kCas, 7, 42, "key", "new", "old");

  // Legacy wire: decode_signed_command is decode_command exactly.
  const auto legacy = decode_signed_command(encode_command(c));
  ASSERT_TRUE(legacy.has_value());
  EXPECT_FALSE(legacy->has_sig);
  EXPECT_EQ(legacy->cmd, c);

  const auto s = decode_signed_command(signed_wire(signer, c));
  ASSERT_TRUE(s.has_value());
  EXPECT_TRUE(s->has_sig);
  EXPECT_EQ(s->cmd, c);
  EXPECT_EQ(s->sig.signer, client_signer_id(7));
  EXPECT_EQ(s->body, encode_command(c));
  EXPECT_TRUE(ks.valid(command_signing_bytes(0, s->body), s->sig));
  // The signing bytes bind the shard group: the same body signed for
  // group 0 does not verify under group 1's domain.
  EXPECT_FALSE(ks.valid(command_signing_bytes(1, s->body), s->sig));
}

TEST(KvSignedCodec, MalformedSignedWiresReject) {
  crypto::KeyStore ks(11);
  const crypto::Signer signer = ks.register_process(client_signer_id(1));
  const Bytes wire = signed_wire(signer, cmd(Op::kPut, 1, 1, "k", "v"));
  for (std::size_t cut = 0; cut < wire.size(); ++cut) {
    EXPECT_FALSE(
        decode_signed_command(util::ByteView(wire).subspan(0, cut)).has_value())
        << "cut " << cut;
  }
  Bytes extended = wire;
  extended.push_back(0);
  EXPECT_FALSE(decode_signed_command(extended).has_value());
  // A signed wrapper around junk body bytes is malformed, not forged.
  crypto::Signature sig = signer.sign(to_bytes("x"));
  EXPECT_FALSE(
      decode_signed_command(encode_signed_command(to_bytes("junk"), sig))
          .has_value());
  // Wrong-size MAC is malformed even before verification.
  sig.mac.pop_back();
  const Bytes body = encode_command(cmd(Op::kPut, 1, 1, "k", "v"));
  EXPECT_FALSE(decode_signed_command(encode_signed_command(body, sig))
                   .has_value());
}

TEST(KvStateMachine, SignedModeRejectsForgeriesBeforeSessionLookup) {
  crypto::KeyStore ks(5);
  const crypto::Signer victim = ks.register_process(client_signer_id(1));
  const crypto::Signer attacker = ks.register_process(777);
  StateMachine sm;
  sm.set_keystore(&ks);
  std::size_t sink_calls = 0;
  sm.set_reply_sink(
      [&](ClientId, std::uint64_t, const Reply&) { ++sink_calls; });

  const Command hijack = cmd(Op::kPut, 1, 1000000, "k", "hijack");
  // Unsigned legacy wire: rejected in signed mode.
  sm.apply(0, encode_command(hijack));
  // A valid signature under the attacker's OWN identity claiming client 1 —
  // the strongest forgery the model allows (Byzantine processes hold only
  // their own signer).
  sm.apply(1, signed_wire(attacker, hijack));
  // Victim-signed bytes with a flipped MAC bit.
  Bytes tampered = signed_wire(victim, hijack);
  tampered.back() ^= 0x01;
  sm.apply(2, tampered);
  EXPECT_EQ(sm.forged(), 3u);
  EXPECT_EQ(sm.ops_applied(), 0u);
  EXPECT_EQ(sink_calls, 0u);
  EXPECT_TRUE(sm.store().empty());
  // The forgeries never created a session: the victim's real seq 1 applies
  // fresh, not as a duplicate of the forged seq 1000000.
  EXPECT_EQ(sm.last_seq(1), 0u);
  const Bytes real = signed_wire(victim, cmd(Op::kPut, 1, 1, "k", "mine"));
  sm.apply(3, real);
  EXPECT_EQ(sm.ops_applied(), 1u);
  EXPECT_EQ(sm.store().at(to_bytes("k")), to_bytes("mine"));
  // Signed retries still deduplicate.
  sm.apply(4, real);
  EXPECT_EQ(sm.duplicates_suppressed(), 1u);
  EXPECT_EQ(sm.ops_applied(), 1u);
}

TEST(KvStateMachine, SignerIdWrapForgeryRejected) {
  // The claimed client id is 64-bit and attacker-controlled while signer
  // ids are 32-bit: without a range check, a claim of 0x100000000 -
  // kClientSignerBase + p wraps client_signer_id back to replica p itself,
  // so a Byzantine replica could "authenticate" arbitrary writes with its
  // OWN signer. Out-of-range claims must verify as forged.
  crypto::KeyStore ks(9);
  const crypto::ProcessId attacker_id = 3;  // a replica's own identity
  const crypto::Signer attacker = ks.register_process(attacker_id);
  StateMachine sm;
  sm.set_keystore(&ks);
  Command wrap = cmd(Op::kPut, 1, 1, "k", "owned");
  wrap.client = 0x100000000ULL - kClientSignerBase + attacker_id;
  ASSERT_FALSE(client_signer_representable(wrap.client));
  // Unchecked, the mapping would land exactly on the attacker's signer.
  ASSERT_EQ(kClientSignerBase +
                static_cast<crypto::ProcessId>(wrap.client),
            attacker_id);
  const Bytes body = encode_command(wrap);
  sm.apply(0, encode_signed_command(
                  body, attacker.sign(command_signing_bytes(0, body))));
  EXPECT_EQ(sm.forged(), 1u);
  EXPECT_EQ(sm.ops_applied(), 0u);
  EXPECT_TRUE(sm.store().empty());

  // Truncation aliasing dies at the same check: a claim past 2^32 whose
  // low bits match a real client never reaches the signer comparison,
  // even with a MAC that is valid under the aliased identity.
  const crypto::Signer victim = ks.register_process(client_signer_id(1));
  Command alias = cmd(Op::kPut, 1, 1, "k", "alias");
  alias.client = 0x100000001ULL;  // truncates onto client 1
  const Bytes abody = encode_command(alias);
  sm.apply(1, encode_signed_command(
                  abody, victim.sign(command_signing_bytes(0, abody))));
  EXPECT_EQ(sm.forged(), 2u);
  EXPECT_EQ(sm.ops_applied(), 0u);
}

TEST(KvStateMachine, CrossShardReplayRejected) {
  // A Byzantine replica is a member of every shard group: without shard
  // binding it could replay a victim's validly-signed command from shard
  // 0's log into shard 1's, advancing the victim's session there so the
  // victim's later op routed to shard 1 is swallowed as a stale duplicate.
  // The signing bytes bind the target group, so the replay verifies as
  // forged.
  crypto::KeyStore ks(10);
  const crypto::Signer client = ks.register_process(client_signer_id(1));
  StateMachine a, b;
  a.set_keystore(&ks, 0);
  b.set_keystore(&ks, 1);
  const Bytes wire = signed_wire(client, cmd(Op::kPut, 1, 7, "k", "v"), 0);
  a.apply(0, wire);
  EXPECT_EQ(a.ops_applied(), 1u);
  b.apply(0, wire);
  EXPECT_EQ(b.forged(), 1u);
  EXPECT_EQ(b.ops_applied(), 0u);
  EXPECT_EQ(b.last_seq(1), 0u) << "replay must not create a session";
  // The victim's own op signed for shard 1 still applies fresh there.
  b.apply(1, signed_wire(client, cmd(Op::kPut, 1, 1, "bk", "bv"), 1));
  EXPECT_EQ(b.ops_applied(), 1u);
  EXPECT_EQ(b.last_seq(1), 1u);
}

TEST(KvStateMachine, AdminOpsRequireAllowListedSigner) {
  crypto::KeyStore ks(6);
  const crypto::Signer admin = ks.register_process(client_signer_id(1));
  StateMachine sm;
  sm.set_keystore(&ks);
  // A perfectly valid *client* signature on an admin op is still forged:
  // reconfiguration authority is allow-listed per identity.
  const Bytes seal = signed_wire(admin, cmd(Op::kSeal, 1, 1, ""));
  sm.apply(0, seal);
  EXPECT_EQ(sm.forged(), 1u);
  EXPECT_EQ(sm.admin_applied(), 0u);
  sm.allow_admin_signer(client_signer_id(1));
  sm.apply(1, seal);
  EXPECT_EQ(sm.forged(), 1u);
  EXPECT_EQ(sm.admin_applied(), 1u);  // verified; rejected only as unpartitioned
  EXPECT_EQ(sm.admin_rejected(), 1u);
}

TEST(KvStateMachine, SnapshotForgedFieldIsSelfDescribing) {
  crypto::KeyStore ks(7);
  const crypto::Signer client = ks.register_process(client_signer_id(2));
  StateMachine a;
  a.set_keystore(&ks);
  a.apply(0, signed_wire(client, cmd(Op::kPut, 2, 1, "k", "v")));
  a.apply(1, encode_command(cmd(Op::kPut, 2, 2, "k", "forged")));
  EXPECT_EQ(a.forged(), 1u);

  // Signed-mode snapshot restores signed-mode state, forged count included —
  // a rejoiner must keep deduplicating signed retries AND keep its forgery
  // accounting.
  StateMachine b;
  b.set_keystore(&ks);
  ASSERT_TRUE(b.restore(a.snapshot()));
  EXPECT_EQ(b.forged(), 1u);
  EXPECT_EQ(b.ops_applied(), 1u);
  EXPECT_EQ(b.last_seq(2), 1u);
  EXPECT_EQ(b.store_hash(), a.store_hash());

  // Restore never depends on wiring: signed-mode bytes restore into a
  // machine that is not (yet) armed, forged count intact — arming order
  // must never reject a valid snapshot — and the restored count keeps
  // riding that machine's own snapshots to the next hop.
  StateMachine legacy;
  EXPECT_TRUE(legacy.restore(a.snapshot()));
  EXPECT_EQ(legacy.forged(), 1u);
  EXPECT_EQ(legacy.store_hash(), a.store_hash());
  StateMachine rearmed;
  rearmed.set_keystore(&ks);
  ASSERT_TRUE(rearmed.restore(legacy.snapshot()));
  EXPECT_EQ(rearmed.forged(), 1u);

  // An armed machine accepts a never-signed machine's snapshot.
  StateMachine c, d;
  const Bytes put = encode_command(cmd(Op::kPut, 2, 1, "k", "v"));
  c.apply(0, put);
  d.set_keystore(&ks);
  d.apply(0, signed_wire(client, cmd(Op::kPut, 2, 1, "k", "v")));
  StateMachine armed;
  armed.set_keystore(&ks);
  EXPECT_TRUE(armed.restore(c.snapshot()));
  EXPECT_EQ(armed.forged(), 0u);
  EXPECT_EQ(armed.store_hash(), c.store_hash());
}

TEST(KvStateMachine, SnapshotBytesIndependentOfWiring) {
  // Keys are wiring, not state: an armed and an unarmed machine holding the
  // same logical state write the same snapshot bytes and the same hash.
  crypto::KeyStore ks(8);
  const crypto::Signer client = ks.register_process(client_signer_id(2));
  StateMachine plain, armed;
  armed.set_keystore(&ks);
  armed.allow_admin_signer(client_signer_id(2));
  plain.apply(0, encode_command(cmd(Op::kPut, 2, 1, "k", "v")));
  armed.apply(0, signed_wire(client, cmd(Op::kPut, 2, 1, "k", "v")));
  EXPECT_EQ(plain.snapshot(), armed.snapshot());
  EXPECT_EQ(plain.store_hash(), armed.store_hash());
}

// --- Router retry-deadline saturation (halted shard). ---

sim::Task<void> drive_one_put(Router* router, ClientId client, bool* done) {
  Command put;
  put.op = Op::kPut;
  put.key = to_bytes("k");
  put.value = to_bytes("v");
  (void)co_await router->execute(client, put);
  *done = true;
}

TEST(KvRouter, RetryDeadlineSaturatesInsteadOfOverflowing) {
  // A shard with no live replica at all: every submit is dropped, every
  // attempt times out. With an (effectively) unbounded cap the per-attempt
  // doubling used to overflow sim::Time after ~60 attempts and wrap the
  // deadline to zero — an infinite same-instant retry storm. Saturated
  // backoff must keep the attempt count logarithmic in the horizon.
  sim::Executor exec;
  core::Omega omega = core::Omega::fixed(exec, 1);
  std::vector<ShardBackend> backends(1);
  backends[0].replicas = {nullptr};
  backends[0].machines = {nullptr};
  RouterConfig rc;
  rc.retry_timeout = 1;
  rc.adaptive_retry = false;
  rc.retry_timeout_cap = sim::kTimeInfinity;
  Router router(exec, omega, ShardMap(1), std::move(backends), rc);
  const ClientId client = router.register_client();
  bool done = false;
  exec.spawn(drive_one_put(&router, client, &done));
  exec.run(sim::Time{1} << 60);
  EXPECT_FALSE(done);  // the shard is dead; the op can never complete
  EXPECT_GE(router.retries(), 30u);
  EXPECT_LE(router.retries(), 80u);
}

// --- Workload config checks: Release builds compile asserts out. ---

/// Construct a Workload over a one-shard router with no replicas.
void make_workload(const WorkloadConfig& wc) {
  sim::Executor exec;
  core::Omega omega = core::Omega::fixed(exec, 1);
  std::vector<ShardBackend> backends(1);
  Router router(exec, omega, ShardMap(1), std::move(backends), RouterConfig{});
  Workload workload(exec, router, wc);
}

WorkloadConfig transfers() {
  WorkloadConfig wc;
  wc.txn_fraction = 0.5;
  return wc;
}

TEST(KvWorkload, EmptyKeySpaceThrows) {
  WorkloadConfig wc;
  wc.keys = 0;  // uniform keys draw Rng::below(0): a modulo by zero
  EXPECT_THROW(make_workload(wc), std::invalid_argument);
}

TEST(KvWorkload, OneAccountTransferThrows) {
  WorkloadConfig wc = transfers();
  wc.txn_accounts = 1;
  EXPECT_THROW(make_workload(wc), std::invalid_argument);
}

TEST(KvWorkload, TransferWiderThanAccountSpaceThrows) {
  WorkloadConfig wc = transfers();
  wc.accounts = 2;  // run_txn's distinct-account draw would never finish
  wc.txn_accounts = 3;
  EXPECT_THROW(make_workload(wc), std::invalid_argument);
}

TEST(KvWorkload, TxnZipfThetaOutsideUnitIntervalThrows) {
  WorkloadConfig wc = transfers();
  wc.txn_zipf_theta = 1.0;
  EXPECT_THROW(make_workload(wc), std::invalid_argument);
  wc.txn_zipf_theta = -0.5;
  EXPECT_THROW(make_workload(wc), std::invalid_argument);
}

}  // namespace
}  // namespace mnm::kv
