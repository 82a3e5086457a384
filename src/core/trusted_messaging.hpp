// Trusted message passing: T-send / T-receive (paper §4.1, Algorithm 3,
// after Clement et al. [20]).
//
// The transformation that powers Robust Backup needs message passing in
// which a Byzantine process can behave, at worst, like a crashed one. It is
// built from two ingredients the M&M model supplies:
//
//  * non-equivocation — every T-send is carried by non-equivocating
//    broadcast, so all correct processes that deliver a sender's k-th
//    message deliver the same bytes;
//  * signatures + full histories — each message carries the sender's entire
//    hash-chained, signed history (every message it ever sent or received),
//    and receivers check that the history is internally consistent and that
//    the current message is a protocol-legal continuation.
//
// History entries are chained: chain_i = SHA256(chain_{i-1} || entry_i) and
// the sender signs each link, so a Byzantine process cannot revise history
// retroactively; it can only extend it. Combined with non-equivocation
// (everyone sees the same k-th broadcast), a faulty process either produces
// protocol-consistent messages — indistinguishable from a correct process —
// or its messages are rejected by every correct receiver, i.e. it has
// crashed as far as the protocol is concerned.
//
// Protocol legality is checked by a pluggable `HistoryValidator`; the
// structural checks (chain, signatures, sequence numbers, echo of the
// current message) are always enforced. `paxos_validator()` (see
// paxos_validator.hpp) replays Paxos semantics and is what Robust
// Backup(Paxos) installs.

#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "src/common.hpp"
#include "src/core/nonequiv_broadcast.hpp"
#include "src/core/transport.hpp"
#include "src/crypto/sha256.hpp"
#include "src/crypto/signature.hpp"
#include "src/sim/channel.hpp"
#include "src/sim/executor.hpp"
#include "src/sim/task.hpp"
#include "src/util/flat_map.hpp"

namespace mnm::core::trusted {

/// Destination marker for T-send broadcasts addressed to everyone.
inline constexpr ProcessId kToAll = 0;

struct HistoryEntry {
  enum class Kind : std::uint8_t { kSent = 1, kReceived = 2 };

  Kind kind = Kind::kSent;
  std::uint64_t k = 0;     // sender seq (kSent) / origin's seq (kReceived)
  ProcessId peer = 0;      // destination (kSent) / origin (kReceived)
  Bytes payload;           // protocol message bytes
  Bytes chain;             // SHA256(prev_chain || fields)
  crypto::Signature sig;   // history owner's signature over `chain`

  Bytes encode() const;
  /// Append this entry's encoding to `w` (hot path: encode_history writes
  /// every entry into one pre-sized buffer).
  void encode_into(util::Writer& w) const;
  static std::optional<HistoryEntry> decode(util::Reader& r);
};

using History = std::vector<HistoryEntry>;

Bytes encode_history(const History& h);

/// Chain hash of an entry given its predecessor's chain value.
Bytes chain_entry(const Bytes& prev_chain, HistoryEntry::Kind kind,
                  std::uint64_t k, ProcessId peer, util::ByteView payload);

/// Structural verification of `owner`'s history: chain hashes link, every
/// link is signed by owner, sent-seqs are 1,2,3,… Returns false on any
/// inconsistency.
bool verify_history_structure(const crypto::KeyStore& ks, ProcessId owner,
                              const History& h);

/// Verify `count` suffix entries given the already-verified prefix's last
/// chain value and next expected sent-seq. On success, `prev_chain` and
/// `expected_sent` are advanced to the new suffix state. This is the
/// incremental form deliver-side caching uses: a history can only be
/// extended, so once a byte-identical prefix has been verified it never
/// needs re-verifying — or even re-decoding (see decode_tsend).
bool verify_history_suffix(const crypto::KeyStore& ks, ProcessId owner,
                           const HistoryEntry* entries, std::size_t count,
                           Bytes& prev_chain, std::uint64_t& expected_sent);

/// One protocol-level audit request (Algorithm 3 line 10), in the resumable
/// form: the transport hands the validator only the *suffix* of the owner's
/// history past the receiver's verified-prefix cache, never the whole thing.
///
/// Contract (state ownership / rollback — kept in lockstep with the
/// transport's prefix cache):
///  * `suffix` holds entries [prefix_entries, prefix_entries + suffix_len)
///    of the owner's history, already structurally verified (chain +
///    signatures + sent-seqs) by the transport. `prefix_entries` == 0 means
///    the transport (re)built its cache and the suffix is the whole history.
///  * The transport guarantees entries [0, prefix_entries) are byte-identical
///    to those of the last call for this owner that returned true — prefix
///    identity is anchored in receiver-stored verified bytes, so a stateful
///    validator may resume its replay from its committed per-owner state.
///  * Both sides commit together: a validator persists replay state covering
///    exactly prefix_entries + suffix_len entries iff it returns true; on
///    false it must leave state untouched (the transport rejects the message
///    and keeps its cache too — rollback in lockstep). Hence on every call
///    either prefix_entries == the validator's committed entry count, or
///    prefix_entries == 0 (rebuild); anything else is a caller bug a
///    validator should answer with false.
struct ValidatorCall {
  ProcessId owner = 0;
  const HistoryEntry* suffix = nullptr;
  std::size_t suffix_len = 0;
  std::size_t prefix_entries = 0;
  std::uint64_t k = 0;  // NEB sequence number of the message being sent
  ProcessId dst = 0;
  const Bytes* payload = nullptr;
};

/// Protocol-level check: is (k, dst, payload) a legal continuation of the
/// owner's (prefix + suffix) history? The default accepts everything.
using HistoryValidator = std::function<bool(const ValidatorCall&)>;

inline HistoryValidator accept_all_validator() {
  return [](const ValidatorCall&) { return true; };
}

/// Per-transport cost counters for the Byzantine wire path. `entries_decoded`
/// vs `entries_skipped` is the suffix-only-decode proof: decoded entries per
/// delivery stay O(new entries) while skipped entries grow with history.
struct TsendStats {
  std::uint64_t deliveries = 0;       // NEB deliveries audited
  std::uint64_t accepted = 0;         // deliveries that passed every check
  std::uint64_t entries_decoded = 0;  // history entries materialized
  std::uint64_t entries_skipped = 0;  // verified-prefix entries hopped over
  /// Residual prefix bytes memcmp'd (the part NEB's shared-prefix identity
  /// did not already cover transitively); 0 in the honest steady state.
  std::uint64_t prefix_bytes_compared = 0;

  TsendStats& operator+=(const TsendStats& o) {
    deliveries += o.deliveries;
    accepted += o.accepted;
    entries_decoded += o.entries_decoded;
    entries_skipped += o.entries_skipped;
    prefix_bytes_compared += o.prefix_bytes_compared;
    return *this;
  }
};

struct TrustedConfig {
  std::size_t n = 3;
};

/// Transport implementing T-send / T-receive. All sends are broadcast via
/// the NEB instance (receivers filter on the destination field), matching
/// Algorithm 3 where every message is a broadcast so that everyone can audit
/// everyone's history.
class TrustedTransport : public Transport {
 public:
  TrustedTransport(sim::Executor& exec, NonEquivBroadcast& neb,
                   const crypto::KeyStore& keystore, crypto::Signer signer,
                   TrustedConfig config,
                   HistoryValidator validator = accept_all_validator());

  /// Spawn the delivery/verification loop.
  void start();

  ProcessId self() const override { return signer_.id(); }
  std::size_t process_count() const override { return config_.n; }

  /// T-send(dst, m): append a signed `sent` link, broadcast (dst, m, H).
  void send(ProcessId dst, util::Buffer payload) override;

  /// T-send addressed to everyone as a single broadcast (dst = kToAll);
  /// cheaper than n point-to-point T-sends and semantically identical
  /// because every T-send is a broadcast anyway. `include_self` is ignored:
  /// broadcasts always self-deliver.
  void send_all(util::Buffer payload, bool include_self = true) override {
    (void)include_self;
    send(kToAll, std::move(payload));
  }

  /// T-received messages addressed to this process (or to kToAll).
  sim::Channel<TMsg>& incoming() override { return incoming_; }

  /// Messages from `p` rejected by verification (metrics / tests).
  std::uint64_t rejected() const { return rejected_; }

  /// Byzantine-wire-path cost counters (suffix-only decode accounting).
  const TsendStats& tsend_stats() const { return stats_; }

  /// This transport's own history: every message it T-sent or T-received.
  const History& history() const { return history_; }

 private:
  sim::Task<void> deliver_loop();
  void append_entry(HistoryEntry::Kind kind, std::uint64_t k, ProcessId peer,
                    util::ByteView payload);

  sim::Executor* exec_;
  NonEquivBroadcast* neb_;
  const crypto::KeyStore* keystore_;
  crypto::Signer signer_;
  TrustedConfig config_;
  HistoryValidator validator_;

  std::uint64_t next_k_ = 1;
  History history_;
  /// Concatenated length-prefixed entry encodings of history_ (the body of
  /// encode_history without its leading count), appended on append_entry.
  Bytes encoded_body_;

  /// Verified prefix of one peer's attached history. Histories are
  /// append-only, so if a new message's encoded history starts with the
  /// bytes we already verified, only the suffix needs decoding and
  /// chain/signature checks — this turns O(k) entry materializations and
  /// signature verifications per receive into O(new entries). The cache-hit
  /// check must compare *our stored verified bytes* (not any field of the
  /// incoming message): chain values inside an unverified prefix are
  /// attacker-supplied, so shortcutting the compare through them would let
  /// a fabricated prefix ride a copied chain tip.
  struct PeerCache {
    std::size_t entries = 0;  // entries in `body`
    /// Verified leading wire bytes (entry frames), byte-compared against the
    /// next wire.
    Bytes body;
    Bytes last_chain;
    std::uint64_t expected_sent = 1;
    /// Leading bytes of this peer's *latest NEB-delivered wire* known equal
    /// to `body`, established transitively: at accept time the new body is
    /// by construction a prefix of the delivered wire, and each later
    /// delivery shares a NEB-verified `shared_prefix` with its predecessor —
    /// min-composing the two facts keeps the identity receiver-anchored
    /// with zero extra compares. Only bytes past this need memcmp.
    std::size_t neb_known = 0;
  };
  util::FlatMap<ProcessId, PeerCache> peer_cache_;

  sim::Channel<TMsg> incoming_;
  std::uint64_t rejected_ = 0;
  TsendStats stats_;
  bool started_ = false;
};

/// Wire format of a T-send broadcast: the history-before-send *first* (its
/// length-prefixed entries terminated by a zero length), then (dst, payload,
/// k, sender signature). History bodies are append-only, so leading with
/// them makes consecutive broadcasts from one sender share a long byte
/// prefix — which is exactly what NEB's digest-over-suffix verification
/// (neb_signing_bytes) needs to hash only the new bytes per delivery.
///
/// The signature covers (k, dst, H(payload), history-digest) — see
/// tsend_signing_bytes — so a *receipt* citing this message can be verified
/// later from just (k, dst, payload, history-digest, sig), without
/// re-embedding the sender's history. This is what keeps Clement-style
/// attached histories linear instead of recursively nested. The history
/// digest is the chain value of the history's last entry (empty for an empty
/// history): the hash chain already commits to every prior entry, and the
/// receiver holds the chain tip as a byproduct of incremental verification,
/// so binding the history costs O(1) instead of re-hashing its encoding.
Bytes encode_tsend(ProcessId dst, util::ByteView payload, const History& h,
                   std::uint64_t k, const crypto::Signature& sig);

struct TSendContent {
  ProcessId dst = 0;
  Bytes payload;
  /// History entries decoded past the caller's verified prefix — the whole
  /// attached history when no prefix was supplied or it did not match.
  History suffix;
  /// Whole entries hopped over: the caller-supplied verified prefix, byte-
  /// confirmed against the wire (0 when the prefix did not match, in which
  /// case `suffix` starts at entry 0).
  std::size_t prefix_entries = 0;
  /// Prefix bytes this decode actually memcmp'd (cost visibility).
  std::size_t prefix_bytes_compared = 0;
  /// View of the raw encoded history body inside the decoded wire bytes
  /// (valid while they live), including any skipped prefix — the deliver
  /// loop extends its verified-bytes cache from it without re-encoding.
  util::ByteView history_body;
  std::uint64_t k = 0;
  crypto::Signature sig;
};

/// Decode a T-send wire, skipping `verified_prefix` if the wire starts with
/// exactly those bytes. `verified_prefix` MUST be receiver-stored verified
/// bytes (`prefix_entries` whole entry frames from previously accepted
/// messages of the same sender) — never anything read out of an incoming
/// message. The first `known_shared` bytes of the wire may be skipped in the
/// compare when the caller has already established (e.g. through NEB's
/// delivered-prefix identity chain) that they equal the stored prefix; the
/// residual compare is one memcmp bounded by the stored prefix. On a match,
/// only the suffix entries are materialized — decode cost is O(new bytes).
/// On any mismatch the whole history is decoded from entry 0.
std::optional<TSendContent> decode_tsend(util::ByteView raw,
                                         util::ByteView verified_prefix = {},
                                         std::size_t prefix_entries = 0,
                                         std::size_t known_shared = 0);

/// Bytes a sender signs for its k-th T-send.
Bytes tsend_signing_bytes(std::uint64_t k, ProcessId dst, util::ByteView payload,
                          const Bytes& history_digest);

/// Payload stored in a kReceived history entry: standalone-verifiable
/// evidence that `origin` really T-sent (k, dst, payload).
struct Receipt {
  ProcessId dst = 0;
  Bytes payload;
  /// Chain value of the last entry of the origin's attached history (empty
  /// for an empty history) — the hash chain commits to the whole history.
  Bytes history_digest;
  crypto::Signature origin_sig;

  Bytes encode() const;
  static std::optional<Receipt> decode(util::ByteView raw);
};

/// Verify a receipt for origin's k-th send.
bool verify_receipt(const crypto::KeyStore& ks, ProcessId origin,
                    std::uint64_t k, const Receipt& r);

}  // namespace mnm::core::trusted
