#include "src/core/cheap_quorum.hpp"

#include <algorithm>
#include <set>

#include "src/mem/write_watch.hpp"
#include "src/sim/fanout.hpp"
#include "src/util/serde.hpp"

namespace mnm::core {

Bytes cq_value_signing_bytes(const Bytes& v) {
  util::Writer w;
  w.str("cq-val").bytes(v);
  return std::move(w).take();
}

Bytes encode_leader_blob(const Bytes& v, const crypto::Signature& sig_p1) {
  util::Writer w;
  w.bytes(v);
  sig_p1.encode(w);
  return std::move(w).take();
}

std::optional<LeaderBlob> decode_leader_blob(const Bytes& raw) {
  try {
    util::Reader r(raw);
    LeaderBlob b;
    b.value = r.bytes();
    b.sig = crypto::Signature::decode(r);
    r.expect_end();
    return b;
  } catch (const util::SerdeError&) {
    return std::nullopt;
  }
}

Bytes cq_copy_signing_bytes(const Bytes& leader_blob) {
  util::Writer w;
  w.str("cq-copy").bytes(leader_blob);
  return std::move(w).take();
}

Bytes encode_copy_blob(const Bytes& leader_blob, const crypto::Signature& sig) {
  util::Writer w;
  w.bytes(leader_blob);
  sig.encode(w);
  return std::move(w).take();
}

std::optional<CopyBlob> decode_copy_blob(const Bytes& raw) {
  try {
    util::Reader r(raw);
    CopyBlob b;
    b.leader_blob = r.bytes();
    b.sig = crypto::Signature::decode(r);
    r.expect_end();
    return b;
  } catch (const util::SerdeError&) {
    return std::nullopt;
  }
}

Bytes encode_unanimity_proof(const std::vector<Bytes>& copy_blobs,
                             const crypto::Signature& assembler_sig) {
  util::Writer w;
  w.u32(static_cast<std::uint32_t>(copy_blobs.size()));
  for (const auto& c : copy_blobs) w.bytes(c);
  assembler_sig.encode(w);
  return std::move(w).take();
}

namespace {
Bytes proof_signing_bytes(const std::vector<Bytes>& copy_blobs) {
  util::Writer w;
  w.str("cq-proof").u32(static_cast<std::uint32_t>(copy_blobs.size()));
  for (const auto& c : copy_blobs) w.bytes(c);
  return std::move(w).take();
}
}  // namespace

bool verify_unanimity_proof(const crypto::KeyStore& ks, std::size_t n,
                            ProcessId leader, const Bytes& proof,
                            LeaderBlob* out) {
  if (util::is_bottom(proof)) return false;
  std::vector<Bytes> copy_blobs;
  crypto::Signature assembler_sig;
  try {
    util::Reader r(proof);
    const std::uint32_t count = r.u32();
    // Byzantine-chosen count: pre-size only for the bytes present.
    copy_blobs.reserve(std::min<std::size_t>(count, r.remaining() / 4));
    for (std::uint32_t i = 0; i < count; ++i) copy_blobs.push_back(r.bytes());
    assembler_sig = crypto::Signature::decode(r);
    r.expect_end();
  } catch (const util::SerdeError&) {
    return false;
  }
  if (copy_blobs.size() < n) return false;
  if (!ks.valid(proof_signing_bytes(copy_blobs), assembler_sig)) return false;

  std::set<ProcessId> signers;
  std::optional<Bytes> common_leader_blob;
  for (const auto& cb : copy_blobs) {
    const auto copy = decode_copy_blob(cb);
    if (!copy.has_value()) return false;
    if (!ks.valid_from(copy->sig.signer, cq_copy_signing_bytes(copy->leader_blob),
                       copy->sig)) {
      return false;
    }
    if (!signers.insert(copy->sig.signer).second) return false;  // duplicate
    if (common_leader_blob.has_value() && *common_leader_blob != copy->leader_blob) {
      return false;
    }
    common_leader_blob = copy->leader_blob;
  }
  if (signers.size() < n) return false;

  const auto lb = decode_leader_blob(*common_leader_blob);
  if (!lb.has_value() ||
      !ks.valid_from(leader, cq_value_signing_bytes(lb->value), lb->sig)) {
    return false;
  }
  if (out != nullptr) *out = *lb;
  return true;
}

// ---------------------------------------------------------------------------

CheapQuorum::CheapQuorum(sim::Executor& exec,
                         std::vector<mem::MemoryIface*> memories,
                         CheapQuorumRegions regions,
                         const crypto::KeyStore& keystore, crypto::Signer signer,
                         CheapQuorumConfig config)
    : exec_(&exec),
      memories_(std::move(memories)),
      regions_(regions),
      keystore_(&keystore),
      signer_(signer),
      config_(config) {}

swmr::ReplicatedRegister& CheapQuorum::reg(RegionId region,
                                           const std::string& name) {
  std::unique_ptr<swmr::ReplicatedRegister>& r = regs_[name];
  if (r == nullptr) {
    r = std::make_unique<swmr::ReplicatedRegister>(*exec_, memories_, region,
                                                   name);
  }
  return *r;
}

swmr::ReplicatedRegister& CheapQuorum::leader_value_reg() {
  return reg(regions_.leader, regions_.leader_value_name());
}

swmr::ReplicatedRegister& CheapQuorum::value_reg(ProcessId p) {
  return reg(regions_.per_process.at(p), regions_.process_prefix(p) + "value");
}

swmr::ReplicatedRegister& CheapQuorum::panic_reg(ProcessId p) {
  return reg(regions_.per_process.at(p), regions_.process_prefix(p) + "panic");
}

swmr::ReplicatedRegister& CheapQuorum::proof_reg(ProcessId p) {
  return reg(regions_.per_process.at(p), regions_.process_prefix(p) + "proof");
}

sim::Task<bool> CheapQuorum::anyone_panicked() {
  sim::Fanout<mem::ReadResult> fanout(*exec_);
  const auto all = all_processes(n());
  for (std::size_t i = 0; i < all.size(); ++i) {
    fanout.add(i, panic_reg(all[i]).read(signer_.id()));
  }
  auto results = co_await fanout.collect(all.size());
  for (auto& [idx, rr] : results) {
    if (rr.ok() && !util::is_bottom(rr.value)) co_return true;
  }
  co_return false;
}

sim::Task<void> CheapQuorum::wait_panic() {
  // Every Panic[q] lives in the watched scope, so the snapshot-then-read
  // pass loses no panic write.
  mem::WriteWatch watch(memories_, regions_.scope);
  while (true) {
    watch.snapshot();
    if (co_await anyone_panicked()) co_return;
    co_await watch.wait_change(*exec_, sim::kTimeInfinity);
  }
}

sim::Task<CqOutcome> CheapQuorum::propose(Bytes v) {
  const ProcessId self = signer_.id();
  if (self != leader()) {
    co_return co_await follower_body(std::move(v), /*decide_allowed=*/true);
  }

  // Leader (Algorithm 4, lines 1–6): sign v, write it to Value[ℓ]; decide on
  // ack, panic on nak. The signature is the fast path's *only* signature.
  const crypto::Signature sig = signer_.sign(cq_value_signing_bytes(v));
  ++signatures_on_path_;
  const Bytes blob = encode_leader_blob(v, sig);
  const mem::Status st = co_await leader_value_reg().write(self, blob);
  if (st != mem::Status::kAck) {
    co_return co_await panic_mode(v);
  }
  CqOutcome out;
  out.decided = true;
  out.is_leader_decision = true;
  out.value = v;
  out.leader_sig = [&] {
    util::Writer w;
    sig.encode(w);
    return std::move(w).take();
  }();
  out.at = exec_->now();
  // "p1 serves both as a leader and a follower": keep copying/proof-building
  // in the background so followers can reach unanimity, but never decide
  // again.
  exec_->spawn([](CheapQuorum* cq, Bytes input) -> sim::Task<void> {
    (void)co_await cq->follower_body(std::move(input), /*decide_allowed=*/false);
  }(this, v));
  co_return out;
}

sim::Task<CqOutcome> CheapQuorum::follower_body(Bytes input, bool decide_allowed) {
  const ProcessId self = signer_.id();
  const sim::Time deadline = exec_->now() + config_.timeout;

  // Both waits below are event-driven: a pass over the registers, then a
  // suspension on this instance's write scope (bounded by the panic
  // deadline) — a write by the leader, a copier or a panicker wakes us,
  // writes outside the scope never do, and an idle wait costs no events at
  // all. The watch snapshots before each pass, so writes landing mid-pass
  // rescan immediately.
  mem::WriteWatch watch(memories_, regions_.scope);

  // Wait for the leader's value (Algorithm 4 lines 10–12).
  Bytes leader_blob;
  std::optional<LeaderBlob> lb;
  while (true) {
    watch.snapshot();
    const mem::ReadResult rr = co_await leader_value_reg().read(self);
    if (rr.ok() && !util::is_bottom(rr.value)) {
      lb = decode_leader_blob(rr.value);
      if (lb.has_value() &&
          keystore_->valid_from(leader(), cq_value_signing_bytes(lb->value),
                                lb->sig)) {
        leader_blob = rr.value;
        break;
      }
      lb.reset();  // invalid signature: treat as nothing (Alg. 4 line 13)
    }
    if (co_await anyone_panicked() || exec_->now() >= deadline) {
      co_return co_await panic_mode(std::move(input));
    }
    co_await watch.wait_change(*exec_, deadline);
  }

  // Sign and replicate our copy (line 14–15).
  const crypto::Signature copy_sig = signer_.sign(cq_copy_signing_bytes(leader_blob));
  ++signatures_on_path_;
  const Bytes copy_blob = encode_copy_blob(leader_blob, copy_sig);
  (void)co_await value_reg(self).write(self, copy_blob);

  // Wait for unanimity, then for n proofs (lines 16–22).
  const auto all = all_processes(n());
  bool proof_written = false;
  while (true) {
    watch.snapshot();
    // Read all Value[q].
    sim::Fanout<mem::ReadResult> fanout(*exec_);
    for (std::size_t i = 0; i < all.size(); ++i) {
      fanout.add(i, value_reg(all[i]).read(self));
    }
    auto copies = co_await fanout.collect(all.size());
    std::vector<Bytes> copy_blobs;
    std::set<ProcessId> signers;
    for (auto& [idx, rr] : copies) {
      if (!rr.ok() || util::is_bottom(rr.value)) continue;
      const auto copy = decode_copy_blob(rr.value);
      if (!copy.has_value() || copy->leader_blob != leader_blob) continue;
      if (!keystore_->valid_from(all[idx], cq_copy_signing_bytes(copy->leader_blob),
                                 copy->sig)) {
        continue;
      }
      if (signers.insert(all[idx]).second) copy_blobs.push_back(rr.value);
    }

    if (signers.size() >= n()) {
      if (!proof_written) {
        const crypto::Signature proof_sig = signer_.sign(proof_signing_bytes(copy_blobs));
        ++signatures_on_path_;
        (void)co_await proof_reg(self).write(
            self, encode_unanimity_proof(copy_blobs, proof_sig));
        proof_written = true;
      }
      // Read all Proof[q].
      sim::Fanout<mem::ReadResult> pf(*exec_);
      for (std::size_t i = 0; i < all.size(); ++i) {
        pf.add(i, proof_reg(all[i]).read(self));
      }
      auto proofs = co_await pf.collect(all.size());
      std::size_t valid = 0;
      Bytes my_proof;
      for (auto& [idx, rr] : proofs) {
        if (!rr.ok() || util::is_bottom(rr.value)) continue;
        LeaderBlob proof_lb;
        if (verify_unanimity_proof(*keystore_, n(), leader(), rr.value,
                                   &proof_lb) &&
            encode_leader_blob(proof_lb.value, proof_lb.sig) == leader_blob) {
          ++valid;
          if (all[idx] == self) my_proof = rr.value;
        }
      }
      if (valid >= n()) {
        CqOutcome out;
        out.decided = decide_allowed;
        out.value = lb->value;
        out.proof = my_proof;
        out.leader_sig = [&] {
          util::Writer w;
          lb->sig.encode(w);
          return std::move(w).take();
        }();
        out.at = exec_->now();
        co_return out;
      }
    }

    if (co_await anyone_panicked() || exec_->now() >= deadline) {
      co_return co_await panic_mode(std::move(input));
    }
    co_await watch.wait_change(*exec_, deadline);
  }
}

sim::Task<CqOutcome> CheapQuorum::panic_mode(Bytes input) {
  const ProcessId self = signer_.id();

  // Announce panic (Algorithm 5 line 2).
  (void)co_await panic_reg(self).write(self, util::to_bytes("1"));

  // Revoke the leader's write permission on every memory; wait for a
  // majority so the revocation is effective against future leader writes
  // (line 3).
  sim::Fanout<mem::Status> revoke(*exec_);
  const mem::Permission ro = mem::Permission::read_only(all_processes(n()));
  for (std::size_t i = 0; i < memories_.size(); ++i) {
    revoke.add(i, memories_[i]->change_permission(self, regions_.leader, ro));
  }
  (void)co_await revoke.collect(majority(memories_.size()));

  // Choose the abort value (lines 4–9).
  const mem::ReadResult own = co_await value_reg(self).read(self);
  const mem::ReadResult prf = co_await proof_reg(self).read(self);

  CqOutcome out;
  out.decided = false;
  out.at = exec_->now();

  if (own.ok() && !util::is_bottom(own.value)) {
    const auto copy = decode_copy_blob(own.value);
    if (copy.has_value()) {
      const auto lb = decode_leader_blob(copy->leader_blob);
      if (lb.has_value()) {
        out.value = lb->value;
        util::Writer w;
        lb->sig.encode(w);
        out.leader_sig = std::move(w).take();
        if (prf.ok() && !util::is_bottom(prf.value)) out.proof = prf.value;
        co_return out;
      }
    }
  }

  const mem::ReadResult lval = co_await leader_value_reg().read(self);
  if (lval.ok() && !util::is_bottom(lval.value)) {
    const auto lb = decode_leader_blob(lval.value);
    if (lb.has_value() &&
        keystore_->valid_from(leader(), cq_value_signing_bytes(lb->value),
                              lb->sig)) {
      out.value = lb->value;
      util::Writer w;
      lb->sig.encode(w);
      out.leader_sig = std::move(w).take();
      co_return out;
    }
  }

  out.value = std::move(input);
  co_return out;
}

}  // namespace mnm::core
