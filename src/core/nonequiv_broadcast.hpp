// Non-equivocating broadcast (paper §4.1, Algorithm 2, Lemma 4.1).
//
// Prevents a Byzantine broadcaster from delivering different k-th messages
// to different correct processes:
//
//  (1) a correct broadcaster's (k, m) is eventually delivered by all correct
//      processes;
//  (2) no two correct processes deliver different messages for the same
//      (broadcaster, k);
//  (3) delivery from a correct broadcaster implies it broadcast exactly that.
//
// Mechanics (verbatim from Algorithm 2): every process p owns an SWMR slot
// slot[p, k, q] for each sequence number k and broadcaster q. To broadcast
// its k-th message, q signs (k, m) and writes it to slot[q, k, q]. To
// deliver, p (a) reads q's own slot and validates the signature and key,
// (b) copies the signed value into its own slot[p, k, q], then (c) reads
// slot[i, k, q] of every process i and refuses delivery if any holds a
// *different* validly-signed value for the same key — that can only happen
// if q equivocated, because nobody else can forge q's signature.
//
// Registers live in the replicated SWMR layer (src/swmr), so the primitive
// tolerates fM < m/2 memory crashes exactly as §4.1 prescribes. Slot
// register names: "<ns>neb/<owner>/<k>/<broadcaster>" in the namespace the
// regions were created in; each owner's slots form one SWMR region per
// memory, created by make_neb_regions(). All n regions share one write
// scope, the one the delivery scan watches.

#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/common.hpp"
#include "src/crypto/signature.hpp"
#include "src/mem/memory.hpp"
#include "src/sim/channel.hpp"
#include "src/sim/executor.hpp"
#include "src/sim/task.hpp"
#include "src/swmr/swmr_register.hpp"
#include "src/util/flat_map.hpp"

namespace mnm::core {

/// NEB's regions as make_neb_regions created them, the same on every
/// memory: one SWMR region per process (n = per_process.size()), their
/// write scope, and the namespace their registers are named in.
struct NebRegions {
  std::string ns;
  std::map<ProcessId, RegionId> per_process;
  mem::ScopeId scope = mem::kDefaultScope;
  bool operator==(const NebRegions&) const = default;
};

/// Create the n SWMR regions ("<ns>neb/<p>/" owned by p) on one memory, in
/// process-id order so region ids agree across memories, all in write scope
/// `scope`. Works for both mem::Memory and verbs::VerbsMemory.
template <typename MemoryT>
NebRegions make_neb_regions(MemoryT& memory, std::size_t n,
                            std::string ns = "",
                            mem::ScopeId scope = mem::kDefaultScope) {
  NebRegions out{std::move(ns), {}, scope};
  const auto all = all_processes(n);
  for (ProcessId p : all) {
    out.per_process[p] = memory.create_region(
        {out.ns + "neb/" + std::to_string(p) + "/"},
        mem::Permission::swmr(p, all), mem::static_permissions(), {}, scope);
  }
  return out;
}

/// Shared table of replicated slot registers. Lookups are on the scan-loop
/// hot path (every poll tick touches slot(q, k, q)), so registers are keyed
/// by a packed (owner, k, broadcaster) integer in a flat table; the string
/// register name is only built when a slot is first created.
class NebSlots {
 public:
  NebSlots(sim::Executor& exec, std::vector<mem::MemoryIface*> memories,
           NebRegions regions);

  /// slot[owner, k, broadcaster].
  swmr::ReplicatedRegister& slot(ProcessId owner, std::uint64_t k,
                                 ProcessId broadcaster);

  /// The backing memories and the slots' write scope, for the delivery
  /// loop's wakeups (NonEquivBroadcast::scan_loop).
  const std::vector<mem::MemoryIface*>& memories() const { return memories_; }
  mem::ScopeId scope() const { return regions_.scope; }
  /// The processes that own slots: one region each.
  std::size_t process_count() const { return regions_.per_process.size(); }

 private:
  static std::uint64_t slot_key(ProcessId owner, std::uint64_t k,
                                ProcessId broadcaster) {
    // owner and broadcaster are 1..n (n is small); k gets the middle 48 bits.
    return (static_cast<std::uint64_t>(owner) << 56) | ((k & 0xFFFFFFFFFFFFULL) << 8) |
           static_cast<std::uint64_t>(broadcaster & 0xFF);
  }

  sim::Executor* exec_;
  std::vector<mem::MemoryIface*> memories_;
  NebRegions regions_;
  util::FlatMap<std::uint64_t, std::unique_ptr<swmr::ReplicatedRegister>> cache_;
};

struct NebDelivery {
  ProcessId from = 0;
  std::uint64_t k = 0;
  Bytes message;
  /// The broadcaster's signature over neb_signing_bytes(k, message). Carried
  /// so higher layers (trusted messaging receipts) can cite it as evidence.
  crypto::Signature sig;
  /// Bytes this message was *verified* (memcmp by this receiver's NEB
  /// instance) to share with the broadcaster's previous delivered message —
  /// receiver-established prefix identity, never the sender's bare claim.
  /// TrustedTransport chains these to skip its own verified-prefix compare
  /// transitively (see PeerCache::neb_known).
  std::uint32_t shared_prefix = 0;
};

/// Canonical signed-slot encoding: (k, prefix_len, m, sig_q(...)). Exposed so
/// tests and Byzantine strategies can craft (in)valid slot contents.
Bytes encode_neb_slot(std::uint64_t k, const Bytes& message,
                      const crypto::Signature& sig,
                      std::uint32_t prefix_len = 0);

/// What a broadcaster signs: ("neb", k, prefix_len, SHA256(m[prefix_len:])).
///
/// Signing a *digest* of m lets receipts prove "q broadcast a message with
/// digest d as its k-th" without embedding m — the receipt compression that
/// keeps Clement-style histories linear. Hashing only the suffix past
/// `prefix_len` makes verification incremental: the first prefix_len bytes
/// are committed transitively, because a verifier only accepts the claim
/// after byte-comparing them against q's (k−1)-th *delivered* message — and
/// non-equivocation guarantees all correct processes hold the same one.
/// T-send wires put the append-only history body first precisely so that
/// consecutive broadcasts share a long prefix and the hashed suffix is O(new
/// bytes), not O(history). prefix_len = 0 (the default, and the only legal
/// value for k = 1) is the self-contained form: SHA256 over all of m.
Bytes neb_signing_bytes(std::uint64_t k, util::ByteView message,
                        std::uint32_t prefix_len = 0);
struct NebSlotContent {
  std::uint64_t k = 0;
  std::uint32_t prefix_len = 0;  // bytes shared with the previous message
  Bytes message;
  crypto::Signature sig;
};
std::optional<NebSlotContent> decode_neb_slot(const Bytes& raw);

class NonEquivBroadcast {
 public:
  NonEquivBroadcast(sim::Executor& exec, NebSlots& slots,
                    const crypto::KeyStore& keystore, crypto::Signer signer);

  /// The broadcasters: every process that owns slots.
  std::size_t process_count() const { return slots_->process_count(); }

  /// Spawn the delivery scanner (try_deliver over all broadcasters forever).
  void start();

  /// broadcast(k, m) with k auto-incremented (Definition 1 requires each
  /// invocation to use the next k). Completes when the slot write is
  /// acknowledged by a memory majority.
  sim::Task<mem::Status> broadcast(Bytes message);

  /// Stream of deliveries, in (broadcaster, k) order per broadcaster.
  sim::Channel<NebDelivery>& deliveries() { return deliveries_; }

  /// Suffix-digest verification accounting over delivered head slots:
  /// bytes hashed (the suffix past each verified prefix claim) vs bytes the
  /// prefix identity let verification skip.
  std::uint64_t suffix_bytes_hashed() const { return suffix_bytes_hashed_; }
  std::uint64_t prefix_bytes_skipped() const { return prefix_bytes_skipped_; }

  /// One delivery attempt for broadcaster q (Algorithm 2 try_deliver).
  /// Exposed for step-by-step unit tests; normally driven by start().
  sim::Task<bool> try_deliver(ProcessId q);

 private:
  sim::Task<void> scan_loop();
  /// Signature + prefix-claim check of a decoded slot for broadcaster `q`
  /// at its next undelivered sequence number (hashes only the suffix past
  /// the prefix verified against q's previous delivered message).
  bool slot_valid(ProcessId q, const NebSlotContent& c) const;

  sim::Executor* exec_;
  NebSlots* slots_;
  const crypto::KeyStore* keystore_;
  crypto::Signer signer_;
  std::uint64_t next_k_ = 1;
  std::vector<std::uint64_t> last_;  // next seq to deliver, index q - 1
  /// Per-broadcaster previous delivered message — the anchor for suffix-
  /// digest verification. Index q - 1.
  std::vector<Bytes> prev_delivered_;
  Bytes prev_broadcast_;  // our own previous broadcast (prefix_len source)
  sim::Channel<NebDelivery> deliveries_;
  std::uint64_t suffix_bytes_hashed_ = 0;
  std::uint64_t prefix_bytes_skipped_ = 0;
  bool started_ = false;
};

}  // namespace mnm::core
