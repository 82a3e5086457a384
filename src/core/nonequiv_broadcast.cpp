#include "src/core/nonequiv_broadcast.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "src/mem/write_watch.hpp"
#include "src/sim/fanout.hpp"
#include "src/util/serde.hpp"

namespace mnm::core {

NebSlots::NebSlots(sim::Executor& exec, std::vector<mem::MemoryIface*> memories,
                   NebRegions regions)
    : exec_(&exec),
      memories_(std::move(memories)),
      regions_(std::move(regions)) {}

swmr::ReplicatedRegister& NebSlots::slot(ProcessId owner, std::uint64_t k,
                                         ProcessId broadcaster) {
  std::unique_ptr<swmr::ReplicatedRegister>& entry =
      cache_[slot_key(owner, k, broadcaster)];
  if (entry == nullptr) {
    entry = std::make_unique<swmr::ReplicatedRegister>(
        *exec_, memories_, regions_.per_process.at(owner),
        regions_.slot_name(owner, k, broadcaster));
  }
  return *entry;
}

Bytes neb_signing_bytes(std::uint64_t k, util::ByteView message,
                        std::uint32_t prefix_len) {
  util::Writer w(4 + 3 + 8 + 4 + crypto::kSha256DigestSize);
  w.str("neb").u64(k).u32(prefix_len).raw(
      crypto::digest_bytes(crypto::sha256(message.subspan(prefix_len))));
  return std::move(w).take();
}

Bytes encode_neb_slot(std::uint64_t k, const Bytes& message,
                      const crypto::Signature& sig, std::uint32_t prefix_len) {
  util::Writer w(8 + 4 + 4 + message.size() + 8 + sig.mac.size());
  w.u64(k).u32(prefix_len).bytes(message);
  sig.encode(w);
  return std::move(w).take();
}

std::optional<NebSlotContent> decode_neb_slot(const Bytes& raw) {
  try {
    util::Reader r(raw);
    NebSlotContent c;
    c.k = r.u64();
    c.prefix_len = r.u32();
    c.message = r.bytes();
    c.sig = crypto::Signature::decode(r);
    r.expect_end();
    return c;
  } catch (const util::SerdeError&) {
    return std::nullopt;
  }
}

NonEquivBroadcast::NonEquivBroadcast(sim::Executor& exec, NebSlots& slots,
                                     const crypto::KeyStore& keystore,
                                     crypto::Signer signer)
    : exec_(&exec),
      slots_(&slots),
      keystore_(&keystore),
      signer_(signer),
      deliveries_(exec) {
  last_.assign(process_count(), 1);
  prev_delivered_.assign(process_count(), Bytes{});
}

void NonEquivBroadcast::start() {
  assert(!started_);
  started_ = true;
  exec_->spawn(scan_loop());
}

sim::Task<mem::Status> NonEquivBroadcast::broadcast(Bytes message) {
  const std::uint64_t k = next_k_++;
  const ProcessId self = signer_.id();
  // Suffix-digest signing: declare how many leading bytes this message
  // shares with our previous broadcast and hash only the rest. Receivers
  // deliver strictly in order, so their anchor (our (k−1)-th delivered
  // message) is exactly prev_broadcast_.
  const std::uint32_t prefix_len = static_cast<std::uint32_t>(
      std::mismatch(message.begin(), message.end(), prev_broadcast_.begin(),
                    prev_broadcast_.end())
          .first -
      message.begin());
  const crypto::Signature sig =
      signer_.sign(neb_signing_bytes(k, message, prefix_len));
  // Algorithm 2 line 4: write(slots[p, k, p], sign((k, m))).
  const Bytes slot_bytes = encode_neb_slot(k, message, sig, prefix_len);
  prev_broadcast_ = std::move(message);
  co_return co_await slots_->slot(self, k, self).write(self, slot_bytes);
}

bool NonEquivBroadcast::slot_valid(ProcessId q, const NebSlotContent& c) const {
  const Bytes& prev = prev_delivered_[q - 1];
  if (c.prefix_len > c.message.size() || c.prefix_len > prev.size()) {
    return false;  // claims more shared bytes than exist
  }
  if (c.prefix_len != 0 &&
      std::memcmp(c.message.data(), prev.data(), c.prefix_len) != 0) {
    return false;  // claimed prefix does not match the delivered history
  }
  return keystore_->valid_from(
      q, neb_signing_bytes(c.k, c.message, c.prefix_len), c.sig);
}

sim::Task<bool> NonEquivBroadcast::try_deliver(ProcessId q) {
  const ProcessId self = signer_.id();
  const std::uint64_t k = last_.at(q - 1);

  // (1) Read q's own slot for its k-th broadcast. Verification hashes only
  // the suffix past the prefix shared with q's previous delivered message.
  const mem::ReadResult head = co_await slots_->slot(q, k, q).read(self);
  if (!head.ok() || util::is_bottom(head.value)) co_return false;
  auto content = decode_neb_slot(head.value);
  if (!content.has_value() || content->k != k || !slot_valid(q, *content)) {
    // q hasn't written anything valid (or is Byzantine). Retry later.
    co_return false;
  }

  // (2) Copy the signed value into our own slot so others can cross-check.
  const mem::Status copied =
      co_await slots_->slot(self, k, q).write(self, head.value);
  if (copied != mem::Status::kAck) co_return false;

  // (3) Read everyone's copy; a different validly-signed value for the same
  // key proves q equivocated — refuse delivery (forever: last_ stays put).
  sim::Fanout<mem::ReadResult> fanout(*exec_);
  const std::size_t n = process_count();
  for (std::size_t i = 0; i < n; ++i) {
    fanout.add(i, slots_->slot(static_cast<ProcessId>(i + 1), k, q).read(self));
  }
  auto copies = co_await fanout.collect(n);
  for (auto& [idx, rr] : copies) {
    if (!rr.ok() || util::is_bottom(rr.value)) continue;
    if (rr.value == head.value) continue;
    const auto other = decode_neb_slot(rr.value);
    if (other.has_value() && other->k == k && slot_valid(q, *other) &&
        other->message != content->message) {
      co_return false;  // q is Byzantine; no delivery.
    }
  }

  suffix_bytes_hashed_ += content->message.size() - content->prefix_len;
  prefix_bytes_skipped_ += content->prefix_len;
  deliveries_.send(NebDelivery{q, k, content->message, content->sig,
                               content->prefix_len});
  prev_delivered_[q - 1] = std::move(content->message);
  last_[q - 1] = k + 1;
  co_return true;
}

sim::Task<void> NonEquivBroadcast::scan_loop() {
  // Event-driven scanning: instead of re-reading every broadcaster's head
  // slot each poll tick, suspend on the write signal of the slots' own scope
  // and rescan only when one of these registers actually changed — writes
  // anywhere else on the memories never wake this loop. The watch snapshots
  // *before* a pass, so a write landing mid-scan re-arms the select
  // immediately — no lost wakeups.
  mem::WriteWatch watch(slots_->memories(), slots_->scope());
  while (true) {
    watch.snapshot();
    bool progress = false;
    for (ProcessId q = 1; q <= static_cast<ProcessId>(process_count()); ++q) {
      // Drain q's backlog before moving on; stop at the first gap.
      while (co_await try_deliver(q)) progress = true;
    }
    if (progress) continue;  // re-snapshot and look again before sleeping
    co_await watch.wait_change(*exec_, sim::kTimeInfinity);
  }
}

}  // namespace mnm::core
