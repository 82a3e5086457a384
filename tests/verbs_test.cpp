// Tests for the RDMA-like verbs layer (src/verbs): rkeys, protection
// domains, queue pairs, deregistration-as-revocation, and the VerbsMemory
// adapter's equivalence with mem::Memory (the §7 mapping).

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/mem/memory.hpp"
#include "src/sim/executor.hpp"
#include "src/util/bytes.hpp"
#include "src/verbs/verbs.hpp"

namespace mnm::verbs {
namespace {

using mem::Permission;
using mem::ReadResult;
using mem::Status;
using sim::Executor;
using sim::Task;
using util::to_bytes;
using util::to_string;

std::vector<ProcessId> procs(std::size_t n) { return all_processes(n); }

struct DeviceFixture {
  Executor exec;
  std::unique_ptr<RdmaDevice> dev = std::make_unique<RdmaDevice>(exec, 1, /*seed=*/7);
};

TEST(RdmaDevice, RegisterPostReadWrite) {
  DeviceFixture f;
  const PdId pd = f.dev->alloc_pd();
  const QpId qp = f.dev->create_qp(pd, /*owner=*/1);
  const RKey key = f.dev->register_mr(pd, {"data/"}, Access{true, true});

  Status wst = Status::kNak;
  ReadResult rr;
  f.exec.spawn([](RdmaDevice& d, QpId qp, RKey key, Status& wst,
                  ReadResult& rr) -> Task<void> {
    wst = co_await d.post_write(qp, 1, key, "data/x", to_bytes("hello"));
    rr = co_await d.post_read(qp, 1, key, "data/x");
  }(*f.dev, qp, key, wst, rr));
  f.exec.run();
  EXPECT_EQ(wst, Status::kAck);
  ASSERT_TRUE(rr.ok());
  EXPECT_EQ(to_string(rr.value), "hello");
}

TEST(RdmaDevice, StaleRkeyNaks) {
  DeviceFixture f;
  const PdId pd = f.dev->alloc_pd();
  const QpId qp = f.dev->create_qp(pd, 1);
  const RKey key = f.dev->register_mr(pd, {"data/"}, Access{true, true});
  EXPECT_TRUE(f.dev->deregister_mr(key));
  EXPECT_FALSE(f.dev->rkey_valid(key));

  Status wst = Status::kAck;
  f.exec.spawn([](RdmaDevice& d, QpId qp, RKey key, Status& wst) -> Task<void> {
    wst = co_await d.post_write(qp, 1, key, "data/x", to_bytes("late"));
  }(*f.dev, qp, key, wst));
  f.exec.run();
  EXPECT_EQ(wst, Status::kNak);
  EXPECT_EQ(f.dev->nic_naks(), 1u);
}

TEST(RdmaDevice, DeregistrationRacesInFlightWrite) {
  // §7: "p can revoke permissions dynamically by simply deregistering the
  // memory region". A write in flight when the rkey dies must nak — the NIC
  // checks at arrival.
  DeviceFixture f;
  const PdId pd = f.dev->alloc_pd();
  const QpId qp = f.dev->create_qp(pd, 1);
  const RKey key = f.dev->register_mr(pd, {"data/"}, Access{true, true});

  Status wst = Status::kAck;
  f.exec.spawn([](RdmaDevice& d, QpId qp, RKey key, Status& wst) -> Task<void> {
    wst = co_await d.post_write(qp, 1, key, "data/x", to_bytes("racer"));
  }(*f.dev, qp, key, wst));
  // Write posted at t=0, reaches NIC at t=1. Deregister at t=0 (control
  // plane is host-local and instant).
  f.dev->deregister_mr(key);
  f.exec.run();
  EXPECT_EQ(wst, Status::kNak);
  EXPECT_EQ(f.dev->peek("data/x"), std::nullopt);
}

TEST(RdmaDevice, PdMismatchNaks) {
  DeviceFixture f;
  const PdId pd1 = f.dev->alloc_pd();
  const PdId pd2 = f.dev->alloc_pd();
  const QpId qp_in_pd2 = f.dev->create_qp(pd2, 1);
  const RKey key_in_pd1 = f.dev->register_mr(pd1, {"d/"}, Access{true, true});

  ReadResult rr;
  f.exec.spawn([](RdmaDevice& d, QpId qp, RKey key, ReadResult& rr) -> Task<void> {
    rr = co_await d.post_read(qp, 1, key, "d/x");
  }(*f.dev, qp_in_pd2, key_in_pd1, rr));
  f.exec.run();
  EXPECT_FALSE(rr.ok());
}

TEST(RdmaDevice, QpOwnershipEnforced) {
  DeviceFixture f;
  const PdId pd = f.dev->alloc_pd();
  const QpId qp_of_p1 = f.dev->create_qp(pd, 1);
  const RKey key = f.dev->register_mr(pd, {"d/"}, Access{true, true});

  Status wst = Status::kAck;
  f.exec.spawn([](RdmaDevice& d, QpId qp, RKey key, Status& wst) -> Task<void> {
    wst = co_await d.post_write(qp, /*caller=*/2, key, "d/x", to_bytes("spoof"));
  }(*f.dev, qp_of_p1, key, wst));
  f.exec.run();
  EXPECT_EQ(wst, Status::kNak);
}

TEST(RdmaDevice, ReadOnlyAccessBlocksWrites) {
  DeviceFixture f;
  const PdId pd = f.dev->alloc_pd();
  const QpId qp = f.dev->create_qp(pd, 1);
  const RKey key = f.dev->register_mr(pd, {"d/"}, Access{.remote_read = true,
                                                         .remote_write = false});
  Status wst = Status::kAck;
  ReadResult rr;
  f.exec.spawn([](RdmaDevice& d, QpId qp, RKey key, Status& wst,
                  ReadResult& rr) -> Task<void> {
    wst = co_await d.post_write(qp, 1, key, "d/x", to_bytes("no"));
    rr = co_await d.post_read(qp, 1, key, "d/x");
  }(*f.dev, qp, key, wst, rr));
  f.exec.run();
  EXPECT_EQ(wst, Status::kNak);
  ASSERT_TRUE(rr.ok());
  EXPECT_TRUE(util::is_bottom(rr.value));
}

TEST(RdmaDevice, OverlappingRegistrations) {
  DeviceFixture f;
  const PdId pd = f.dev->alloc_pd();
  const QpId qp = f.dev->create_qp(pd, 1);
  const RKey ro_all = f.dev->register_mr(pd, {"arr/"}, Access{true, false});
  const RKey rw_row = f.dev->register_mr(pd, {"arr/row1/"}, Access{true, true});

  Status via_ro = Status::kAck, via_rw = Status::kNak;
  f.exec.spawn([](RdmaDevice& d, QpId qp, RKey ro, RKey rw, Status& a,
                  Status& b) -> Task<void> {
    a = co_await d.post_write(qp, 1, ro, "arr/row1/c", to_bytes("x"));
    b = co_await d.post_write(qp, 1, rw, "arr/row1/c", to_bytes("x"));
  }(*f.dev, qp, ro_all, rw_row, via_ro, via_rw));
  f.exec.run();
  EXPECT_EQ(via_ro, Status::kNak);
  EXPECT_EQ(via_rw, Status::kAck);
}

TEST(RdmaDevice, CrashHangsDataPlane) {
  DeviceFixture f;
  const PdId pd = f.dev->alloc_pd();
  const QpId qp = f.dev->create_qp(pd, 1);
  const RKey key = f.dev->register_mr(pd, {"d/"}, Access{true, true});
  f.dev->crash();

  bool completed = false;
  f.exec.spawn([](RdmaDevice& d, QpId qp, RKey key, bool& completed) -> Task<void> {
    (void)co_await d.post_read(qp, 1, key, "d/x");
    completed = true;
  }(*f.dev, qp, key, completed));
  f.exec.run();
  EXPECT_FALSE(completed);
}

// --- VerbsMemory: the §7 mapping must behave like mem::Memory. ---

struct AdapterFixture {
  Executor exec;
  VerbsMemory vm{exec, std::make_unique<RdmaDevice>(exec, 1, 7), procs(3)};
};

TEST(VerbsMemory, SwmrRegionBehaviour) {
  AdapterFixture f;
  const RegionId r = f.vm.create_region({"p1/"}, Permission::swmr(1, procs(3)));

  Status own = Status::kNak, other = Status::kAck;
  ReadResult rr;
  f.exec.spawn([](VerbsMemory& vm, RegionId r, Status& own, Status& other,
                  ReadResult& rr) -> Task<void> {
    own = co_await vm.write(1, r, "p1/v", to_bytes("mine"));
    other = co_await vm.write(2, r, "p1/v", to_bytes("stolen"));
    rr = co_await vm.read(3, r, "p1/v");
  }(f.vm, r, own, other, rr));
  f.exec.run();
  EXPECT_EQ(own, Status::kAck);
  EXPECT_EQ(other, Status::kNak);
  ASSERT_TRUE(rr.ok());
  EXPECT_EQ(to_string(rr.value), "mine");
}

TEST(VerbsMemory, OpsCostOneRoundTrip) {
  AdapterFixture f;
  const RegionId r = f.vm.create_region({"p1/"}, Permission::swmr(1, procs(3)));
  sim::Time wdone = 0, rdone = 0;
  f.exec.spawn([](Executor& e, VerbsMemory& vm, RegionId r, sim::Time& wd,
                  sim::Time& rd) -> Task<void> {
    (void)co_await vm.write(1, r, "p1/v", to_bytes("x"));
    wd = e.now();
    (void)co_await vm.read(2, r, "p1/v");
    rd = e.now();
  }(f.exec, f.vm, r, wdone, rdone));
  f.exec.run();
  EXPECT_EQ(wdone, sim::kMemoryOpDelay);
  EXPECT_EQ(rdone, 2 * sim::kMemoryOpDelay);
}

TEST(VerbsMemory, LegalChangeEnforcedByHostKernel) {
  AdapterFixture f;
  const auto all = procs(3);
  const auto only_revoke = [](ProcessId, RegionId, const Permission&,
                              const Permission& proposed) {
    return proposed.write.empty() && proposed.read_write.empty();
  };
  const RegionId r = f.vm.create_region({"L/"}, Permission::swmr(1, all), only_revoke);

  Status illegal = Status::kAck, legal = Status::kNak, after = Status::kAck;
  f.exec.spawn([](VerbsMemory& vm, RegionId r, const std::vector<ProcessId>& all,
                  Status& illegal, Status& legal, Status& after) -> Task<void> {
    illegal = co_await vm.change_permission(2, r, Permission::swmr(2, all));
    legal = co_await vm.change_permission(2, r, Permission::read_only(all));
    after = co_await vm.write(1, r, "L/v", to_bytes("too late"));
  }(f.vm, r, all, illegal, legal, after));
  f.exec.run();
  EXPECT_EQ(illegal, Status::kNak);
  EXPECT_EQ(legal, Status::kAck);
  EXPECT_EQ(after, Status::kNak);  // leader's rkey was deregistered
}

TEST(VerbsMemory, PermissionChangeRotatesRkeys) {
  // After a revoke-and-regrant cycle the new writer works and the old
  // writer's access is gone — rkeys rotated underneath.
  AdapterFixture f;
  const auto all = procs(3);
  const RegionId r = f.vm.create_region({"s/"}, Permission::swmr(1, all),
                                        mem::dynamic_permissions());
  Status p1_after = Status::kAck, p2_after = Status::kNak;
  f.exec.spawn([](VerbsMemory& vm, RegionId r, const std::vector<ProcessId>& all,
                  Status& p1_after, Status& p2_after) -> Task<void> {
    (void)co_await vm.change_permission(2, r, Permission::swmr(2, all));
    p1_after = co_await vm.write(1, r, "s/v", to_bytes("old writer"));
    p2_after = co_await vm.write(2, r, "s/v", to_bytes("new writer"));
  }(f.vm, r, all, p1_after, p2_after));
  f.exec.run();
  EXPECT_EQ(p1_after, Status::kNak);
  EXPECT_EQ(p2_after, Status::kAck);
}

TEST(VerbsMemory, UnknownRegionNaks) {
  AdapterFixture f;
  Status st = Status::kAck;
  f.exec.spawn([](VerbsMemory& vm, Status& st) -> Task<void> {
    st = co_await vm.write(1, 42, "x", to_bytes("y"));
  }(f.vm, st));
  f.exec.run();
  EXPECT_EQ(st, Status::kNak);
}

// --- destroy_region: mirrors mem::Memory's, and also deregisters the
// region's MRs and frees its registers in the device's DRAM. ---

TEST(VerbsMemory, DestroyedRegionNaksEveryOperation) {
  AdapterFixture f;
  const RegionId r = f.vm.create_region({"d/"}, Permission::open(procs(3)),
                                        mem::dynamic_permissions());
  f.vm.device().poke("d/a", to_bytes("old"));
  f.vm.destroy_region(r);
  Status wst = Status::kAck;
  Status cst = Status::kAck;
  ReadResult rr{Status::kAck, {}};
  std::vector<ReadResult> many;
  f.exec.spawn([](VerbsMemory& vm, RegionId r, Status& wst, ReadResult& rr,
                  std::vector<ReadResult>& many, Status& cst) -> Task<void> {
    wst = co_await vm.write(1, r, "d/a", to_bytes("x"));
    rr = co_await vm.read(1, r, "d/a");
    std::vector<std::string> regs = {"d/a", "d/b"};
    many = co_await vm.read_many(1, r, std::move(regs));
    cst = co_await vm.change_permission(1, r, Permission::read_only(procs(3)));
  }(f.vm, r, wst, rr, many, cst));
  f.exec.run();
  EXPECT_EQ(wst, Status::kNak);
  EXPECT_FALSE(rr.ok());
  ASSERT_EQ(many.size(), 2u);
  EXPECT_FALSE(many[0].ok());
  EXPECT_FALSE(many[1].ok());
  EXPECT_EQ(cst, Status::kNak);
  EXPECT_EQ(f.vm.permission_changes(), 0u);
  EXPECT_EQ(f.vm.device().peek("d/a"), std::nullopt);
}

TEST(VerbsMemory, DestroyDeregistersAndFreesOnlyTheRegion) {
  AdapterFixture f;
  const RegionId gone = f.vm.create_region(
      {"s1/pmp/"}, Permission::swmr(1, procs(3)), mem::static_permissions(),
      {"s1/extra"});
  const RegionId kept =
      f.vm.create_region({"s10/pmp/"}, Permission::swmr(2, procs(3)));
  EXPECT_EQ(f.vm.device().mrs_held(), 6u);  // one per process and region
  for (const char* reg :
       {"s1/pmp/slot/1", "s1/extra", "s10/pmp/slot/1", "s1/outside"}) {
    f.vm.device().poke(reg, to_bytes("v"));
  }
  f.vm.destroy_region(gone);
  EXPECT_EQ(f.vm.device().mrs_held(), 3u);  // the rkeys of `gone` are dead
  EXPECT_EQ(f.vm.regions_held(), 1u);
  EXPECT_EQ(f.vm.device().peek("s1/pmp/slot/1"), std::nullopt);
  EXPECT_EQ(f.vm.device().peek("s1/extra"), std::nullopt);
  EXPECT_TRUE(f.vm.device().peek("s1/outside").has_value());  // in no region
  EXPECT_EQ(f.vm.device().registers_held(), 2u);

  ReadResult rr;
  f.exec.spawn([](VerbsMemory& vm, RegionId kept, ReadResult& rr) -> Task<void> {
    rr = co_await vm.read(1, kept, "s10/pmp/slot/1");
  }(f.vm, kept, rr));
  f.exec.run();
  ASSERT_TRUE(rr.ok());  // the neighbour's registration still works
  EXPECT_EQ(to_string(rr.value), "v");
}

TEST(VerbsMemory, RegionIdsAreNeverReused) {
  AdapterFixture f;
  const auto make = [&] {
    return f.vm.create_region({"r/"}, Permission::open(procs(3)));
  };
  for (RegionId want = 1; want <= 4; ++want) EXPECT_EQ(make(), want);
  f.vm.destroy_region(3);
  f.vm.destroy_region(1);  // out of creation order
  EXPECT_EQ(make(), 5u);
  f.vm.destroy_region(5);
  f.vm.destroy_region(2);
  EXPECT_EQ(make(), 6u);
  EXPECT_EQ(f.vm.regions_held(), 2u);
  EXPECT_EQ(f.vm.device().mrs_held(), 6u);
}

TEST(VerbsMemory, DestroyingAnUnknownRegionIsANoOp) {
  AdapterFixture f;
  const RegionId r = f.vm.create_region({"r/"}, Permission::open(procs(3)));
  f.vm.destroy_region(42);
  EXPECT_EQ(f.vm.regions_held(), 1u);
  EXPECT_EQ(f.vm.device().mrs_held(), 3u);
  f.vm.destroy_region(r);
  f.vm.destroy_region(r);  // already destroyed
  EXPECT_EQ(f.vm.regions_held(), 0u);
  EXPECT_EQ(f.vm.device().mrs_held(), 0u);
  EXPECT_EQ(f.vm.create_region({"r/"}, Permission::open(procs(3))), 2u);
}

TEST(VerbsMemory, WriteInFlightAtTheDestroyNaks) {
  // As in RdmaDevice.DeregistrationRacesInFlightWrite: the write is posted
  // at t=0 with the region's rkey, the destroy deregisters it at t=0, and
  // the NIC refuses the write when it arrives at t=1.
  AdapterFixture f;
  const RegionId r = f.vm.create_region({"d/"}, Permission::open(procs(3)));
  Status st = Status::kAck;
  f.exec.spawn([](VerbsMemory& vm, RegionId r, Status& st) -> Task<void> {
    st = co_await vm.write(1, r, "d/x", to_bytes("racer"));
  }(f.vm, r, st));
  f.exec.run(/*until=*/0);  // posted
  f.vm.destroy_region(r);
  f.exec.run();
  EXPECT_EQ(st, Status::kNak);
  EXPECT_EQ(f.vm.device().nic_naks(), 1u);
  EXPECT_EQ(f.vm.device().posted_writes(), 0u);
  EXPECT_EQ(f.vm.device().peek("d/x"), std::nullopt);
}

}  // namespace
}  // namespace mnm::verbs
