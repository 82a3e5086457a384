// kv::StateMachine — the deterministic KV state machine behind every shard
// replica, with exactly-once client sessions and (optionally) partitioned
// bucket ownership for live reconfiguration.
//
// Applied from smr::Log batches, strictly in slot order, identically on
// every correct replica of a shard. On top of the plain GET/PUT/DEL/CAS
// semantics it keeps one session record per client: (last applied seq,
// cached reply). A command whose seq is ≤ the session's last applied seq is
// a duplicate — it can appear in the log twice when a leader hand-off
// re-proposes an open slot the old leader also won, or when a client retry
// races the original — and its mutation is suppressed; the *cached* reply is
// re-delivered so the retrying client observes the original outcome. That is
// the client-visible exactly-once contract.
//
// Partitioned mode (configure_partition, reconfiguration runs only): the
// machine knows which hash buckets its group owns. The reconfig admin
// operations — replicated through the group's own log like any command, so
// every replica transitions at the same slot — move ownership:
//
//   SEAL    marks the moving buckets not-owned; later client ops on them
//           bounce with Status::kWrongEpoch, *without* touching the session
//           (the retried seq must still apply exactly once at the new
//           owner). Sealed pairs stay in the store for the drain.
//   INSTALL imports a checksummed RangeSnapshot: pairs and locks land,
//           drained sessions merge by max seq (a retry straddling the epoch
//           flip finds its cached reply here), buckets open.
//   PURGE   drops the sealed-away pairs and locks at the source once the
//           destination has installed.
//
// Admin operations ride the Migrator's own session (dedup-covered retries)
// but count in admin_applied(), never ops_applied() — the harness invariant
// Σ per-shard ops_applied == completed client ops holds across epochs.
//
// Transactions (src/txn/): the machine keeps a lock table — key → (txn id,
// owner session, buffered write + its guard). A TxnPrepare locks its key
// and buffers the write (refused with kTxnConflict when the key is locked
// by another transaction or the prepare's optimistic guard misses —
// deterministic and no-wait, so replicas cannot diverge on lock wait
// order); TxnCommit applies the buffered write and releases; TxnAbort
// releases. Plain writes on a locked key also get kTxnConflict; GETs read
// committed state. Txn records are ordinary keyed client ops everywhere
// else: they count in ops_applied(), advance their session (so a
// coordinator's recovery replay deduplicates), bounce on sealed buckets,
// and locks travel in snapshots and drains. Each session also keeps its
// *prepare mark* (SessionRecord): when a recovering coordinator replays a
// prepare whose seq fell behind last_seq, the duplicate path re-delivers
// the prepare's true outcome instead of an ambiguous kStaleDup.
//
// State codec (range.hpp): snapshot() writes the state sections — store,
// sessions, locks, partition, ops applied — then a statistics section and
// the checksum trailer. store_hash() is the FNV-1a of exactly those state
// sections, so equal hashes across a shard's correct replicas ⇔ equal
// replicated state; statistics ride snapshots but not the hash. Keys and
// reply sinks are wiring: never snapshotted, never hashed, surviving
// restore(), so the bytes do not depend on how a machine is armed.

#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <set>

#include "src/common.hpp"
#include "src/crypto/signature.hpp"
#include "src/kv/command.hpp"
#include "src/kv/range.hpp"
#include "src/kv/shard.hpp"
#include "src/sim/sync.hpp"
#include "src/smr/log.hpp"

namespace mnm::kv {

class StateMachine : public smr::StateMachine {
 public:
  /// Called once per applied command — fresh applies with the new reply,
  /// duplicate applies with the session's cached reply (seq == last applied
  /// only; older duplicates are counted and dropped, no client waits on
  /// them in the closed-loop model), bounced applies with a kWrongEpoch
  /// reply that is never cached.
  using ReplySink =
      std::function<void(ClientId, std::uint64_t seq, const Reply&)>;

  void set_reply_sink(ReplySink sink) { sink_ = std::move(sink); }

  /// Bumped each time this machine applies a SEAL, INSTALL or PURGE, the
  /// ops that move bucket ownership: the Router parks an op bounced off a
  /// not-yet-open bucket on its group's signal. nullptr (the default, and
  /// every static run) bumps nothing.
  void set_ownership_signal(sim::VersionSignal* signal) {
    ownership_signal_ = signal;
  }

  /// Enable signed-command verification: every applied command must carry a
  /// signature by its claimed client's identity (client_signer_id) over the
  /// bytes bound to *this* machine's shard group — checked *before* the
  /// session lookup, so a forgery never touches (or creates) a session.
  /// `group` is the Router's backend index for this shard; binding it means
  /// a command validly signed for another shard's log verifies as forged
  /// here (cross-log replay protection). Forged commands are deterministic
  /// no-ops counted in forged(), exactly like malformed ones. Without a
  /// keystore (the default) the machine accepts unsigned wires.
  void set_keystore(const crypto::KeyStore* ks, std::uint32_t group = 0) {
    keystore_ = ks;
    signing_group_ = group;
  }
  bool signing_enabled() const { return keystore_ != nullptr; }

  /// Allow `signer` to issue admin (SEAL/INSTALL/PURGE) operations. Admin
  /// commands signed by any other identity — including a perfectly valid
  /// *client* signature — are forged: reconfiguration authority is the
  /// migrator's alone. No-op unless signing is enabled.
  void allow_admin_signer(crypto::ProcessId signer) {
    admin_signers_.insert(signer);
  }

  /// Enter partitioned mode as group `group` of `initial` (epoch 0 table):
  /// the machine starts owning exactly the buckets the table assigns it and
  /// honors the reconfig admin operations. Without this call the machine
  /// owns every key and admin operations are rejected.
  void configure_partition(std::uint32_t group, const ShardTable& initial);

  void apply(Slot slot, util::ByteView command) override;

  /// Full-state codec for log compaction and peer catch-up (see the class
  /// comment). Equal states ⇒ identical bytes.
  Bytes snapshot() const override;
  /// One strict parse into a fresh state, swapped in only on success:
  /// malformed bytes or a checksum mismatch return false with *this
  /// untouched. Never throws — snapshots arrive from unverified peers.
  bool restore(util::ByteView raw) override;

  /// Drain service for the Migrator (smr::Log serves this over the catch-up
  /// control channel): `request` is an encoded RangeSpec; the reply is an
  /// encoded RangeSnapshot of the sealed range, or empty when this machine
  /// cannot serve it yet (not partitioned, seal not applied, or the listed
  /// buckets still owned).
  Bytes export_range(util::ByteView request) const override;

  const std::map<Bytes, Bytes>& store() const { return st_.store; }

  /// FNV-1a over the encoded state sections (see the class comment).
  std::uint64_t store_hash() const;

  /// Effective (non-duplicate, well-formed) client operations applied.
  std::uint64_t ops_applied() const { return st_.ops_applied; }
  /// Duplicate (client, seq) applies whose mutation was suppressed.
  std::uint64_t duplicates_suppressed() const { return st_.duplicates; }
  /// Commands that failed decode_command (a Byzantine win can put arbitrary
  /// bytes in a slot; they no-op deterministically).
  std::uint64_t malformed() const { return st_.malformed; }
  /// Well-formed commands rejected by signature verification (missing
  /// signature, bad MAC, signer ≠ claimed client, unauthorized admin
  /// signer). Only ever non-zero with signing enabled.
  std::uint64_t forged() const { return st_.forged; }

  bool partitioned() const { return !st_.owned.empty(); }
  std::uint32_t group() const { return st_.group; }
  /// Highest config epoch of any accepted admin operation.
  std::uint64_t config_epoch() const { return st_.cfg_epoch; }
  /// Buckets currently owned (and the table size they index into).
  std::size_t owned_buckets() const;
  std::size_t table_buckets() const { return st_.owned.size(); }
  bool owns_bucket(std::size_t b) const {
    return b < st_.owned.size() && st_.owned[b] != 0;
  }

  /// Admin (SEAL/INSTALL/PURGE) operations applied — excluded from
  /// ops_applied so the exactly-once rollup sees client ops only.
  std::uint64_t admin_applied() const { return st_.admin_applied; }
  /// Client ops bounced with kWrongEpoch (sealed or not-yet-open bucket).
  std::uint64_t bounces() const { return st_.bounces; }
  /// Admin operations rejected (malformed payload, stale epoch, bucket
  /// geometry mismatch) — deterministic no-ops, counted.
  std::uint64_t admin_rejected() const { return st_.admin_rejected; }
  std::uint64_t keys_imported() const { return st_.keys_imported; }
  std::uint64_t keys_purged() const { return st_.keys_purged; }

  /// Last applied request seq for a client (0 = no session).
  std::uint64_t last_seq(ClientId c) const;

  const std::map<Bytes, LockRecord>& locks() const { return st_.locks; }
  /// Locks currently held — zero once every transaction has decided, which
  /// is the harness's residual-lock atomicity check.
  std::uint64_t locks_held() const { return st_.locks.size(); }
  std::uint64_t txn_prepared() const { return st_.txn_prepared; }
  std::uint64_t txn_committed() const { return st_.txn_committed; }
  std::uint64_t txn_aborted() const { return st_.txn_aborted; }
  /// Prepares refused (lock held / guard miss) + plain writes that hit a
  /// locked key — every kTxnConflict this machine ever returned.
  std::uint64_t txn_conflicts() const { return st_.txn_conflicts; }
  /// Decisions that found no matching lock (presumed abort / double abort).
  std::uint64_t txn_orphans() const { return st_.txn_orphans; }
  /// Txn records whose payload failed to decode — deterministic kTxnAborted.
  std::uint64_t txn_rejected() const { return st_.txn_rejected; }

 private:
  /// Everything snapshot() writes; restore() swaps in a freshly parsed one.
  struct State {
    std::map<Bytes, Bytes> store;
    std::map<ClientId, SessionRecord> sessions;
    std::map<Bytes, LockRecord> locks;
    std::uint32_t group = 0;
    std::uint64_t cfg_epoch = 0;
    std::vector<std::uint8_t> owned;  // owned[bucket] != 0 ⇔ we serve it
    std::uint64_t ops_applied = 0;
    // Statistics: in snapshots, not in store_hash().
    std::uint64_t duplicates = 0, malformed = 0, forged = 0;
    std::uint64_t admin_applied = 0, bounces = 0, admin_rejected = 0;
    std::uint64_t keys_imported = 0, keys_purged = 0;
    std::uint64_t txn_prepared = 0, txn_committed = 0, txn_aborted = 0;
    std::uint64_t txn_conflicts = 0, txn_orphans = 0, txn_rejected = 0;
  };

  Reply apply_op(const Command& c);
  Reply apply_admin(const Command& c);
  Reply apply_txn(const Command& c);
  /// Signature check for a decoded command (signing enabled only): true iff
  /// the wire carried a signature, the claimed client id maps to a signer
  /// without wrapping, the signer is the claimed client's identity (and an
  /// allowed admin signer for admin ops), and the MAC verifies over the
  /// canonical bytes domain-tagged and bound to this machine's shard group.
  bool verify_signed(const SignedCommand& sc) const;
  /// Grow owned to `table_buckets` by routing-preserving doubling; false
  /// when the target is not reachable (reject the admin op).
  bool resize_owned(std::uint32_t table_buckets);
  std::size_t key_bucket(util::ByteView key) const {
    return ShardMap::key_hash(key) % st_.owned.size();
  }
  SessionRecord& session(ClientId c);
  /// The state sections — the bytes store_hash() folds.
  void encode_state(util::Writer& w) const;

  State st_;
  ReplySink sink_;                               // wiring, not state
  sim::VersionSignal* ownership_signal_ = nullptr;  // wiring, not state
  const crypto::KeyStore* keystore_ = nullptr;   // wiring, not state
  std::uint32_t signing_group_ = 0;              // wiring, not state
  std::set<crypto::ProcessId> admin_signers_;    // wiring, not state
};

}  // namespace mnm::kv
