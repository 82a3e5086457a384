#include "src/core/disk_paxos.hpp"

#include "src/sim/fanout.hpp"
#include "src/util/serde.hpp"

namespace mnm::core {

namespace {
/// Backoff between failed attempts.
constexpr sim::Time kRetryBackoff = 8;
}  // namespace

Bytes DiskBlock::encode() const {
  util::Writer w(8 + 8 + 1 + 4 + value.size());
  w.u64(mbal).u64(bal).boolean(has_value).bytes(value);
  return std::move(w).take();
}

std::optional<DiskBlock> DiskBlock::decode(util::ByteView raw) {
  if (util::is_bottom(raw)) return DiskBlock{};  // ⊥ block: all zero
  try {
    util::Reader r(raw);
    DiskBlock b;
    b.mbal = r.u64();
    b.bal = r.u64();
    b.has_value = r.boolean();
    b.value = r.bytes();
    r.expect_end();
    return b;
  } catch (const util::SerdeError&) {
    return std::nullopt;
  }
}

DiskMemories::DiskMemories(sim::Executor& exec,
                           std::vector<mem::MemoryIface*> memories,
                           RegionId region, ProcessId self, std::size_t n,
                           const std::string& registers, bool dynamic)
    : exec_(&exec) {
  std::vector<std::string> names;
  for (ProcessId p : all_processes(n)) {
    names.push_back(registers + "/" + std::to_string(p));
  }
  at_ = std::make_shared<const Access>(Access{
      std::move(memories), region, self, dynamic, std::move(names),
      mem::Permission::exclusive_writer(self, all_processes(n))});
}

sim::Task<DiskMemories::Scan> DiskMemories::phase_at(
    std::shared_ptr<const Access> at, std::size_t idx, DiskBlock own) {
  mem::MemoryIface* m = at->memories[idx];
  const ProcessId self = at->self;
  Scan out;
  if (at->dynamic) {
    const mem::Status grabbed =
        co_await m->change_permission(self, at->region, at->excl_perm);
    if (grabbed != mem::Status::kAck) co_return out;
  }
  const mem::Status wrote = co_await m->write(
      self, at->region, at->names[self - 1], own.encode());
  if (wrote != mem::Status::kAck) co_return out;
  auto reads = co_await m->read_many(self, at->region, at->names);
  out.blocks.resize(at->names.size());
  for (std::size_t i = 0; i < reads.size(); ++i) {
    if (!reads[i].ok()) co_return out;  // lost permission mid-phase: fail
    const auto block = DiskBlock::decode(reads[i].value);
    if (!block.has_value()) co_return out;
    out.blocks[i] = *block;
  }
  out.ok = true;
  co_return out;
}

sim::Task<mem::Status> DiskMemories::write_at(
    std::shared_ptr<const Access> at, std::size_t idx, DiskBlock own) {
  co_return co_await at->memories[idx]->write(
      at->self, at->region, at->names[at->self - 1], own.encode());
}

bool DiskMemories::fold(const Scan& scan, std::uint64_t mbal,
                        std::uint64_t& max_seen, ValueChoice* choice) {
  if (!scan.ok) return false;
  bool ok = true;
  for (const DiskBlock& b : scan.blocks) {
    max_seen = std::max(max_seen, b.mbal);
    if (b.mbal > mbal) ok = false;
    if (choice != nullptr) choice->offer(b.has_value, b.bal, b.value);
  }
  return ok;
}

sim::Task<bool> DiskMemories::phase_quorum(DiskBlock own,
                                           std::uint64_t& max_seen,
                                           ValueChoice* choice) {
  sim::Fanout<Scan> fanout(*exec_);
  for (std::size_t i = 0; i < size(); ++i) fanout.add(i, phase(i, own));
  const auto scans = co_await fanout.collect(majority(size()));
  for (const auto& [idx, scan] : scans) {
    if (!fold(scan, own.mbal, max_seen, choice)) co_return false;
  }
  co_return true;
}

sim::Task<bool> DiskMemories::write_quorum(DiskBlock own) {
  sim::Fanout<mem::Status> fanout(*exec_);
  for (std::size_t i = 0; i < size(); ++i) fanout.add(i, write(i, own));
  const auto acks = co_await fanout.collect(majority(size()));
  for (const auto& [idx, st] : acks) {
    if (st != mem::Status::kAck) co_return false;
  }
  co_return true;
}

DiskPaxos::DiskPaxos(sim::Executor& exec,
                     std::vector<mem::MemoryIface*> memories, RegionId region,
                     Transport& transport, Omega& omega, DiskPaxosConfig config)
    : DiskPaxos(exec, std::move(memories), region, transport, omega, config.n,
                config.prefix + "/block", /*dynamic=*/false) {}

DiskPaxos::DiskPaxos(sim::Executor& exec,
                     std::vector<mem::MemoryIface*> memories, RegionId region,
                     Transport& transport, Omega& omega, std::size_t n,
                     const std::string& registers, bool dynamic)
    : DecisionLatch(exec),
      exec_(&exec),
      transport_(&transport),
      omega_(&omega),
      self_(transport.self()),
      n_(n),
      memories_(exec, std::move(memories), region, self_, n, registers,
                dynamic) {}

void DiskPaxos::start() { exec_->spawn(decide_listener(), listener_); }

sim::Task<void> DiskPaxos::decide_listener() {
  while (true) {
    const TMsg m = co_await transport_->incoming().recv();
    decide(m.payload);
  }
}

sim::Task<Bytes> DiskPaxos::propose(Bytes v) {
  while (!decided()) {
    // Wait to become leader (Alg. 7 line 9), but wake up if a DECIDE arrives.
    co_await omega_->wait_leadership_or(self_, decision_gate());
    if (decided()) break;

    // p1's first attempt runs at ballot 0, whose phase 1 is implicit: every
    // block is still ⊥, so there is nothing to adopt, and with dynamic
    // permissions p1 already holds every write permission.
    const bool fast = self_ == kLeaderP1 && first_attempt_;
    first_attempt_ = false;
    std::uint64_t mbal = 0;
    ValueChoice choice{v};
    if (!fast) {
      // Phase 1: announce mbal, read every block from a majority, adopt the
      // highest accepted value (Alg. 7 lines 12–20).
      mbal = next_ballot(max_seen_, n_, self_);
      max_seen_ = mbal;
      const DiskBlock announce{mbal, 0, false, {}};
      if (!co_await memories_.phase_quorum(announce, max_seen_, &choice)) {
        co_await exec_->sleep(kRetryBackoff);
        continue;
      }
    }

    // Phase 2: write (mbal, mbal, value). With dynamic permissions a majority
    // of acks decides: an acked write proves the permission was still ours
    // (Alg. 7 lines 21–24). With static ones an ack proves nothing about
    // contention, so the leader re-reads every block to verify — the 2 extra
    // delays no static-permission algorithm avoids (§6).
    const DiskBlock commit{mbal, mbal, true, choice.value};
    bool chosen = false;
    if (memories_.dynamic()) {
      chosen = co_await memories_.write_quorum(commit);
    } else {
      chosen = co_await memories_.phase_quorum(commit, max_seen_, nullptr);
    }
    if (!chosen) {
      co_await exec_->sleep(kRetryBackoff);
      continue;
    }

    decide(choice.value, fast && memories_.dynamic());
    transport_->send_all(choice.value, /*include_self=*/false);
  }

  co_return decision();
}

}  // namespace mnm::core
