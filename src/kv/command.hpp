// KV command / reply codec — the replicated operation format of the sharded
// key-value store.
//
// Every client operation (GET/PUT/DEL/CAS) travels through the consensus log
// as one smr batch command, stamped with the issuing client's session id and
// per-client request sequence number. The (client, seq) pair is what makes
// replies exactly-once: a command re-proposed after a leader hand-off, or
// re-submitted by a retrying client, is recognized as a duplicate by
// kv::StateMachine and suppressed (the cached reply is re-delivered instead).
//
// The wire format is the canonical util::Writer encoding; decode_command is
// strict (expect_end) and total — Byzantine proposers can win log slots with
// arbitrary bytes, so malformed commands must decode to nullopt
// deterministically on every correct replica, never throw out of apply.
//
// Signed commands: a Byzantine slot winner can put a *well-formed* command
// under a victim's (client, seq) into the log — replicas would stay in
// agreement while the victim's session is hijacked. The signed wire closes
// that hole: a marker byte (outside the legacy op range, so the two forms
// are unambiguous), the length-prefixed canonical command bytes, and a
// detached crypto::Signature by the client's identity over those bytes
// (domain-tagged). decode_signed_command accepts both forms and is as
// strict and total as decode_command; verification stays with the state
// machine, which holds the keystore. With signing off the legacy encoding
// is used untouched, byte for byte.

#pragma once

#include <cstdint>
#include <optional>

#include "src/common.hpp"
#include "src/crypto/signature.hpp"
#include "src/util/serde.hpp"

namespace mnm::kv {

/// Client-session identifier. Allocated by kv::Router (dense, 1-based);
/// unique per closed-loop client for the lifetime of the run.
using ClientId = std::uint64_t;

enum class Op : std::uint8_t {
  kGet = 1,  // read key
  kPut = 2,  // write key := value
  kDel = 3,  // remove key
  kCas = 4,  // compare-and-swap: key := value iff current == expected

  // Reconfiguration admin operations (src/reconfig/): issued by the
  // Migrator through its own router session — same exactly-once machinery
  // as client ops — with the payload in `value` (a RangeSpec or
  // RangeSnapshot encoding, see src/kv/range.hpp) and an empty key. They
  // mutate the machine's ownership state, not the store's client-visible
  // counters.
  kSeal = 5,     // stop serving the listed buckets (ops on them bounce)
  kInstall = 6,  // import a drained range snapshot and open its buckets
  kPurge = 7,    // drop sealed-away pairs after the destination installed

  // Cross-shard transaction records (src/txn/): per-key 2PC operations
  // issued by a txn::Coordinator through an ordinary client session. The
  // touched key rides in `key` (so the record routes, bounces and re-signs
  // like any keyed op) and the txn::PrepareRecord / DecisionRecord payload
  // in `value`. They mutate the machine's lock table + pending-write
  // buffer; commit additionally applies the buffered write to the store.
  kTxnPrepare = 8,  // lock key for (txn, session), buffer the write
  kTxnCommit = 9,   // apply the buffered write, release the lock
  kTxnAbort = 10,   // discard the buffered write, release the lock
};

inline bool is_admin(Op op) { return op >= Op::kSeal && op <= Op::kPurge; }
inline bool is_txn(Op op) { return op >= Op::kTxnPrepare && op <= Op::kTxnAbort; }

struct Command {
  Op op = Op::kGet;
  ClientId client = 0;
  /// 1-based per-client request number; strictly increasing per session.
  std::uint64_t seq = 0;
  Bytes key;
  Bytes value;     // kPut / kCas: the new value
  Bytes expected;  // kCas only: the required current value (empty = absent)

  bool operator==(const Command&) const = default;
};

enum class Status : std::uint8_t {
  kOk = 1,
  kNotFound = 2,     // GET/DEL of an absent key
  kCasMismatch = 3,  // CAS whose expectation failed
  kWrongEpoch = 4,   // key's bucket is sealed here (or not owned yet): the
                     // client must refetch the shard table and retry — the
                     // reply is NOT recorded in the session, so the retried
                     // seq still applies exactly once at the new owner
  kStaleDup = 5,     // duplicate of a seq *older* than the session's newest:
                     // only the newest request's reply is cached, so a very
                     // late retry gets this marker instead of someone else's
                     // answer. Never cached in a session, and in the
                     // closed-loop model no client waits on a stale seq.
  kTxnConflict = 6,  // prepare refused: the key is locked by another live
                     // transaction, or the prepare's optimistic guard did
                     // not match the current committed value (the value
                     // rides back like a CAS mismatch). Also returned to a
                     // plain write (PUT/DEL/CAS) that hits a locked key —
                     // the deterministic no-wait rule: a conflict is an
                     // immediate committed outcome, never a block, so
                     // replicas cannot diverge on lock wait order.
  kTxnAborted = 7,   // decision resolved against the transaction: a commit
                     // that found no matching lock (presumed abort — the
                     // lock was never taken here or an abort already
                     // released it), or a txn record whose payload failed
                     // to decode.
};

/// THE reply-caching rule, in one place for every codec that persists
/// session replies (the state-machine snapshot codec and the range-drain
/// SessionRecord): a status is persistable iff it is a committed operation
/// outcome — kOk, kNotFound, kCasMismatch, kTxnConflict, kTxnAborted. The
/// two transport markers are not: kWrongEpoch is a routing bounce that is
/// never recorded in a session (the retried seq must still apply exactly
/// once at the new owner), and kStaleDup is synthesized for late retries of
/// seqs whose cache slot was already overwritten. Decoders reject them —
/// bytes claiming to have cached one were not produced by an honest
/// machine.
inline bool status_persistable(std::uint8_t status) {
  switch (static_cast<Status>(status)) {
    case Status::kOk:
    case Status::kNotFound:
    case Status::kCasMismatch:
    case Status::kTxnConflict:
    case Status::kTxnAborted:
      return true;
    case Status::kWrongEpoch:
    case Status::kStaleDup:
      return false;
  }
  return false;
}

/// What a committed operation returned. Cached per session by
/// kv::StateMachine so duplicate applies re-deliver the original answer.
struct Reply {
  Status status = Status::kOk;
  Bytes value;  // GET: the read value; CAS mismatch: the actual current value

  bool operator==(const Reply&) const = default;
};

Bytes encode_command(const Command& c);
/// Strict decode; nullopt on any malformed input (bad op byte, truncation,
/// trailing bytes). Never throws, never over-reads.
std::optional<Command> decode_command(util::ByteView raw);

// --- Client-signed commands. ---

/// First wire byte of the signed form. Legacy commands start with their op
/// byte (1..10), so the two encodings are unambiguous and old decoders
/// reject signed wires as malformed instead of misparsing them.
inline constexpr std::uint8_t kSignedCommandMarker = 0x53;  // 'S'

/// The signing identity a client session uses in the shared crypto::KeyStore.
/// Replica processes occupy the low ids (1..n); clients live in a disjoint
/// space, so a Byzantine *replica*'s own signer can never collide with any
/// client identity.
inline constexpr crypto::ProcessId kClientSignerBase = 0x40000000;

/// Largest client id whose signer identity is representable without wrapping
/// the 32-bit ProcessId space. The claimed client id on the wire is 64-bit
/// and attacker-controlled: past this bound the base+client sum would wrap
/// back into (or truncate onto) the replica id range, letting a Byzantine
/// replica pick a claimed client whose mapped signer is *itself* — so
/// verification must reject any claim above it before mapping.
inline constexpr ClientId kMaxSignableClient =
    0xFFFFFFFFULL - kClientSignerBase;

inline bool client_signer_representable(ClientId client) {
  return client <= kMaxSignableClient;
}
/// Precondition: client_signer_representable(client).
inline crypto::ProcessId client_signer_id(ClientId client) {
  return kClientSignerBase + static_cast<crypto::ProcessId>(client);
}

/// Domain-tagged message a client signs: "kvc1" + the target shard group id
/// + the canonical command bytes. The tag keeps client-command signatures
/// unmixable with the consensus-layer signing domains (NEB slots, Cheap
/// Quorum blobs); the group id binds the signature to one shard's log, so a
/// Byzantine replica (a member of every group) cannot replay a victim's
/// validly-signed command from shard A into shard B's log and advance the
/// victim's session there. A re-route (bounce, post-timeout table flip)
/// re-signs for the new group.
Bytes command_signing_bytes(std::uint32_t group,
                            util::ByteView canonical_command);

/// Signed wire: marker byte + length-prefixed canonical command bytes +
/// detached signature over command_signing_bytes(body).
Bytes encode_signed_command(util::ByteView canonical_command,
                            const crypto::Signature& sig);

/// A decoded command plus its authentication evidence. `body` keeps the
/// exact canonical bytes the signature covers, so verification needs no
/// re-encode.
struct SignedCommand {
  Command cmd;
  bool has_sig = false;   // false: unsigned wire
  crypto::Signature sig;  // valid only when has_sig
  Bytes body;             // canonical command bytes (signed form only)
};

/// Total decode of either wire form. Strict end to end: the signed form
/// requires a 32-byte MAC, a strictly-decodable inner command and no
/// trailing bytes; the legacy form is decode_command exactly. Never throws,
/// never over-reads — slot payloads are attacker-controlled.
std::optional<SignedCommand> decode_signed_command(util::ByteView raw);

}  // namespace mnm::kv
