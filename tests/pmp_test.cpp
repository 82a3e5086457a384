// Unit tests for Protected Memory Paxos (Algorithm 7) and Disk Paxos,
// exercised directly (not through the harness): slot wire format, the
// permission-transfer mechanics (Lemma D.3), value adoption, and the
// 2-vs-4-delay structural difference.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/core/disk_paxos.hpp"
#include "src/core/omega.hpp"
#include "src/core/protected_memory_paxos.hpp"
#include "src/core/transport.hpp"
#include "src/mem/memory.hpp"
#include "src/net/network.hpp"
#include "src/sim/executor.hpp"

namespace mnm::core {
namespace {

using sim::Executor;
using sim::Task;
using util::to_bytes;
using util::to_string;

// PMP's slot (minProposal, accProposal, value) is Disk Paxos's block.
TEST(PmpSlotWire, RoundTrip) {
  DiskBlock s{7, 5, true, to_bytes("v")};
  const auto d = DiskBlock::decode(s.encode());
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->mbal, 7u);
  EXPECT_EQ(d->bal, 5u);
  EXPECT_TRUE(d->has_value);
  EXPECT_EQ(to_string(d->value), "v");
}

TEST(PmpSlotWire, BottomDecodesToEmptySlot) {
  const auto d = DiskBlock::decode({});
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->mbal, 0u);
  EXPECT_FALSE(d->has_value);
}

TEST(PmpSlotWire, GarbageRejected) {
  EXPECT_FALSE(DiskBlock::decode(to_bytes("xx")).has_value());
}

TEST(PmpLegalChange, OnlyExclusiveSelfGrabAllowed) {
  const auto all = all_processes(3);
  const auto legal = pmp_legal_change(all);
  // p2 taking exclusive writership for itself: legal.
  EXPECT_TRUE(legal(2, 1, mem::Permission::exclusive_writer(1, all),
                    mem::Permission::exclusive_writer(2, all)));
  // p2 granting writership to p3: illegal.
  EXPECT_FALSE(legal(2, 1, mem::Permission::exclusive_writer(1, all),
                     mem::Permission::exclusive_writer(3, all)));
  // p2 opening the region: illegal.
  EXPECT_FALSE(legal(2, 1, mem::Permission::exclusive_writer(1, all),
                     mem::Permission::open(all)));
}

struct PmpWorld {
  explicit PmpWorld(std::size_t n, std::size_t m, ProcessId leader = kLeaderP1)
      : n(n), network(exec, n), omega(Omega::fixed(exec, leader)) {
    for (std::size_t i = 0; i < m; ++i) {
      memories.push_back(std::make_unique<mem::Memory>(exec, static_cast<MemoryId>(i + 1)));
      region = make_pmp_region(*memories.back(), n);
      ifc.push_back(memories.back().get());
    }
    PmpConfig pc;
    pc.n = n;
    for (ProcessId p : all_processes(n)) {
      transports.push_back(
          std::make_unique<NetTransport>(exec, network, p, /*tag=*/900));
      pmps.push_back(std::make_unique<ProtectedMemoryPaxos>(
          exec, ifc, region, *transports.back(), omega, pc));
      pmps.back()->start();
    }
  }

  void propose(ProcessId p, const std::string& v) {
    exec.spawn([](ProtectedMemoryPaxos* pmp, Bytes value) -> Task<void> {
      (void)co_await pmp->propose(std::move(value));
    }(pmps[p - 1].get(), to_bytes(v)));
  }

  std::size_t n;
  Executor exec;
  net::Network network;
  Omega omega;
  std::vector<std::unique_ptr<mem::Memory>> memories;
  std::vector<mem::MemoryIface*> ifc;
  RegionId region = 0;
  std::vector<std::unique_ptr<NetTransport>> transports;
  std::vector<std::unique_ptr<ProtectedMemoryPaxos>> pmps;
};

TEST(ProtectedMemoryPaxos, LeaderFastPathIsOneWrite) {
  PmpWorld w(2, 3);
  w.propose(1, "fast");
  w.propose(2, "slow");
  w.exec.run_until([&] { return w.pmps[0]->decided(); }, 5000);
  ASSERT_TRUE(w.pmps[0]->decided());
  EXPECT_EQ(w.pmps[0]->decided_at(), 2u);
  EXPECT_EQ(to_string(w.pmps[0]->decision()), "fast");
  // The fast path did zero permission changes (p1 owns them initially).
  std::uint64_t changes = 0;
  for (auto& m : w.memories) changes += m->permission_changes();
  EXPECT_EQ(changes, 0u);
}

TEST(ProtectedMemoryPaxos, NonP1LeaderRunsFullPhase) {
  PmpWorld w(3, 3, /*leader=*/2);
  w.propose(2, "from-p2");
  w.exec.run_until([&] { return w.pmps[1]->decided(); }, 5000);
  ASSERT_TRUE(w.pmps[1]->decided());
  EXPECT_EQ(to_string(w.pmps[1]->decision()), "from-p2");
  // Phase 1 grabbed permissions on the memories.
  std::uint64_t changes = 0;
  for (auto& m : w.memories) changes += m->permission_changes();
  EXPECT_GE(changes, majority(3));
  // Full phase costs more than the fast path: grab(2)+write(2)+read(2)+write(2).
  EXPECT_GE(w.pmps[1]->decided_at(), 8u);
}

TEST(ProtectedMemoryPaxos, LateLeaderAdoptsDecidedValue) {
  // p1 decides; then Ω moves to p2 (simulated by a fresh oracle): p2's
  // phase-1 reads must adopt p1's value (agreement, Theorem D.2).
  PmpWorld w(2, 3);
  w.propose(1, "first");
  w.exec.run_until([&] { return w.pmps[0]->decided(); }, 5000);
  ASSERT_TRUE(w.pmps[0]->decided());

  // New world state: p2 becomes leader and proposes a different value. Use
  // a second PMP instance bound to the same memories (decide broadcast off:
  // fresh network tag).
  Omega omega2 = Omega::fixed(w.exec, 2);
  PmpConfig pc;
  pc.n = 2;
  NetTransport late_transport(w.exec, w.network, 2, /*tag=*/990);
  ProtectedMemoryPaxos late(w.exec, w.ifc, w.region, late_transport, omega2, pc);
  late.start();
  w.exec.spawn([](ProtectedMemoryPaxos* pmp) -> Task<void> {
    (void)co_await pmp->propose(to_bytes("second"));
  }(&late));
  w.exec.run_until([&] { return late.decided(); }, 10000);
  ASSERT_TRUE(late.decided());
  EXPECT_EQ(to_string(late.decision()), "first");  // adopted, not its own
}

TEST(ProtectedMemoryPaxos, StolenPermissionNaksOldLeaderWrite) {
  // Lemma D.3's mechanism in isolation: after p2 grabs a memory, p1's
  // phase-2 write naks there.
  PmpWorld w(2, 1);
  mem::Status p1_write = mem::Status::kAck;
  w.exec.spawn([](PmpWorld* w, mem::Status* out) -> Task<void> {
    // p2 seizes the permission.
    (void)co_await w->ifc[0]->change_permission(
        2, w->region, mem::Permission::exclusive_writer(2, all_processes(2)));
    // p1's write now fails.
    DiskBlock s{0, 0, true, to_bytes("stale")};
    *out = co_await w->ifc[0]->write(1, w->region, "pmp/slot/1", s.encode());
  }(&w, &p1_write));
  w.exec.run(100);
  EXPECT_EQ(p1_write, mem::Status::kNak);
}

struct DiskWorld {
  explicit DiskWorld(std::size_t n, std::size_t m)
      : n(n), network(exec, n), omega(Omega::fixed(exec, kLeaderP1)) {
    for (std::size_t i = 0; i < m; ++i) {
      memories.push_back(std::make_unique<mem::Memory>(exec, static_cast<MemoryId>(i + 1)));
      region = make_disk_region(*memories.back(), n);
      ifc.push_back(memories.back().get());
    }
    DiskPaxosConfig dc;
    dc.n = n;
    for (ProcessId p : all_processes(n)) {
      transports.push_back(
          std::make_unique<NetTransport>(exec, network, p, /*tag=*/910));
      dps.push_back(std::make_unique<DiskPaxos>(exec, ifc, region,
                                                *transports.back(), omega, dc));
      dps.back()->start();
    }
  }

  std::size_t n;
  Executor exec;
  net::Network network;
  Omega omega;
  std::vector<std::unique_ptr<mem::Memory>> memories;
  std::vector<mem::MemoryIface*> ifc;
  RegionId region = 0;
  std::vector<std::unique_ptr<NetTransport>> transports;
  std::vector<std::unique_ptr<DiskPaxos>> dps;
};

TEST(DiskPaxos, FourDelaysBecauseOfVerifyingRead) {
  DiskWorld w(2, 3);
  w.exec.spawn([](DiskPaxos* dp) -> Task<void> {
    (void)co_await dp->propose(to_bytes("v"));
  }(w.dps[0].get()));
  w.exec.run_until([&] { return w.dps[0]->decided(); }, 5000);
  ASSERT_TRUE(w.dps[0]->decided());
  EXPECT_EQ(w.dps[0]->decided_at(), 4u);
  // And it truly read back: every memory served reads, not just writes.
  for (auto& m : w.memories) EXPECT_GT(m->reads(), 0u);
}

TEST(DiskPaxos, StaticPermissionsNeverChange) {
  DiskWorld w(2, 3);
  mem::Status st = mem::Status::kAck;
  w.exec.spawn([](DiskWorld* w, mem::Status* out) -> Task<void> {
    *out = co_await w->ifc[0]->change_permission(
        1, w->region, mem::Permission::exclusive_writer(1, all_processes(2)));
  }(&w, &st));
  w.exec.run(100);
  EXPECT_EQ(st, mem::Status::kNak);  // the disk model has no changePermission
}

TEST(DiskPaxos, BothProposersAgreeUnderContention) {
  DiskWorld w(2, 3);
  Bytes d1, d2;
  w.exec.spawn([](DiskPaxos* dp, Bytes* out) -> Task<void> {
    *out = co_await dp->propose(to_bytes("a"));
  }(w.dps[0].get(), &d1));
  w.exec.spawn([](DiskPaxos* dp, Bytes* out) -> Task<void> {
    *out = co_await dp->propose(to_bytes("b"));
  }(w.dps[1].get(), &d2));
  w.exec.run_until([&] { return !d1.empty() && !d2.empty(); }, 20000);
  ASSERT_TRUE(w.dps[0]->decided());
  ASSERT_TRUE(w.dps[1]->decided());
  EXPECT_EQ(to_string(d1), to_string(d2));
}

TEST(DiskBlockWire, RoundTripAndBottom) {
  DiskBlock b{9, 3, true, to_bytes("x")};
  const auto d = DiskBlock::decode(b.encode());
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->mbal, 9u);
  EXPECT_EQ(d->bal, 3u);
  EXPECT_EQ(to_string(d->value), "x");
  const auto bot = DiskBlock::decode({});
  ASSERT_TRUE(bot.has_value());
  EXPECT_FALSE(bot->has_value);
  EXPECT_FALSE(DiskBlock::decode(to_bytes("?")).has_value());
}

}  // namespace
}  // namespace mnm::core
