// Tests for the shared-memory substrate (src/mem): regions, permissions,
// legalChange, operation timing, crash semantics.

#include <gtest/gtest.h>

#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/mem/memory.hpp"
#include "src/sim/executor.hpp"
#include "src/util/bytes.hpp"

namespace mnm::mem {
namespace {

using sim::Executor;
using sim::Task;
using sim::Time;
using util::to_bytes;
using util::to_string;

std::vector<ProcessId> procs(std::size_t n) { return all_processes(n); }

TEST(Permission, DisjointnessChecked) {
  Permission p;
  p.read = {1, 2};
  p.write = {3};
  p.read_write = {4};
  EXPECT_TRUE(p.disjoint());
  p.write.insert(1);
  EXPECT_FALSE(p.disjoint());
}

TEST(Permission, SwmrShape) {
  const Permission p = Permission::swmr(2, procs(3));
  EXPECT_TRUE(p.can_write(2));
  EXPECT_TRUE(p.can_read(2));
  EXPECT_FALSE(p.can_write(1));
  EXPECT_TRUE(p.can_read(1));
  EXPECT_TRUE(p.can_read(3));
  EXPECT_TRUE(p.disjoint());
}

TEST(Permission, OpenAndReadOnly) {
  const Permission open = Permission::open(procs(2));
  EXPECT_TRUE(open.can_write(1));
  EXPECT_TRUE(open.can_write(2));
  const Permission ro = Permission::read_only(procs(2));
  EXPECT_TRUE(ro.can_read(1));
  EXPECT_FALSE(ro.can_write(1));
}

// Helper: run one write then read, return (status, value, finish time).
struct RunResult {
  Status wstatus = Status::kNak;
  ReadResult rresult;
  Time wdone = 0, rdone = 0;
};

RunResult write_then_read(ProcessId writer, ProcessId reader) {
  Executor exec;
  Memory memory(exec, 1);
  const RegionId r =
      memory.create_region({"slot/"}, Permission::swmr(writer, procs(3)));
  RunResult out;
  exec.spawn([](Executor& e, Memory& m, RegionId r, ProcessId w, ProcessId rd,
                RunResult& out) -> Task<void> {
    out.wstatus = co_await m.write(w, r, "slot/a", to_bytes("v1"));
    out.wdone = e.now();
    out.rresult = co_await m.read(rd, r, "slot/a");
    out.rdone = e.now();
  }(exec, memory, r, writer, reader, out));
  exec.run();
  return out;
}

TEST(Memory, WriteThenReadHappyPath) {
  const RunResult out = write_then_read(/*writer=*/1, /*reader=*/2);
  EXPECT_EQ(out.wstatus, Status::kAck);
  ASSERT_TRUE(out.rresult.ok());
  EXPECT_EQ(to_string(out.rresult.value), "v1");
}

TEST(Memory, EachOpCostsTwoDelays) {
  const RunResult out = write_then_read(1, 2);
  EXPECT_EQ(out.wdone, sim::kMemoryOpDelay);
  EXPECT_EQ(out.rdone, 2 * sim::kMemoryOpDelay);
}

TEST(Memory, WriteWithoutPermissionNaks) {
  const RunResult out = write_then_read(/*writer=*/2, /*reader=*/2);
  // Region is SWMR(2) here, so writing as 2 works; use a fresh scenario where
  // a non-writer tries.
  EXPECT_EQ(out.wstatus, Status::kAck);

  Executor exec;
  Memory memory(exec, 1);
  const RegionId r = memory.create_region({"slot/"}, Permission::swmr(1, procs(3)));
  Status status = Status::kAck;
  exec.spawn([](Memory& m, RegionId r, Status& status) -> Task<void> {
    status = co_await m.write(3, r, "slot/a", to_bytes("intruder"));
  }(memory, r, status));
  exec.run();
  EXPECT_EQ(status, Status::kNak);
  EXPECT_EQ(memory.naks(), 1u);
  EXPECT_EQ(memory.peek("slot/a"), std::nullopt);  // nothing written
}

TEST(Memory, ReadUnwrittenRegisterReturnsBottom) {
  Executor exec;
  Memory memory(exec, 1);
  const RegionId r = memory.create_region({"x/"}, Permission::open(procs(1)));
  ReadResult rr;
  exec.spawn([](Memory& m, RegionId r, ReadResult& rr) -> Task<void> {
    rr = co_await m.read(1, r, "x/fresh");
  }(memory, r, rr));
  exec.run();
  ASSERT_TRUE(rr.ok());
  EXPECT_TRUE(util::is_bottom(rr.value));
}

TEST(Memory, RegisterOutsideRegionNaks) {
  Executor exec;
  Memory memory(exec, 1);
  const RegionId r = memory.create_region({"a/"}, Permission::open(procs(1)));
  ReadResult rr;
  exec.spawn([](Memory& m, RegionId r, ReadResult& rr) -> Task<void> {
    rr = co_await m.read(1, r, "b/elsewhere");
  }(memory, r, rr));
  exec.run();
  EXPECT_FALSE(rr.ok());
}

TEST(Memory, UnknownRegionNaks) {
  Executor exec;
  Memory memory(exec, 1);
  Status st = Status::kAck;
  exec.spawn([](Memory& m, Status& st) -> Task<void> {
    st = co_await m.write(1, /*region=*/77, "r", to_bytes("x"));
  }(memory, st));
  exec.run();
  EXPECT_EQ(st, Status::kNak);
}

TEST(Memory, StaticPermissionsRefuseChange) {
  Executor exec;
  Memory memory(exec, 1);
  const RegionId r = memory.create_region({"s/"}, Permission::swmr(1, procs(2)),
                                          static_permissions());
  Status st = Status::kAck;
  exec.spawn([](Memory& m, RegionId r, Status& st) -> Task<void> {
    st = co_await m.change_permission(2, r, Permission::open(procs(2)));
  }(memory, r, st));
  exec.run();
  EXPECT_EQ(st, Status::kNak);
  EXPECT_EQ(memory.region_permission(r), Permission::swmr(1, procs(2)));
}

TEST(Memory, DynamicPermissionChangeApplies) {
  Executor exec;
  Memory memory(exec, 1);
  const RegionId r = memory.create_region({"s/"}, Permission::swmr(1, procs(2)),
                                          dynamic_permissions());
  Status st = Status::kNak;
  exec.spawn([](Memory& m, RegionId r, Status& st) -> Task<void> {
    st = co_await m.change_permission(2, r, Permission::swmr(2, procs(2)));
  }(memory, r, st));
  exec.run();
  EXPECT_EQ(st, Status::kAck);
  EXPECT_TRUE(memory.region_permission(r).can_write(2));
  EXPECT_FALSE(memory.region_permission(r).can_write(1));
  EXPECT_EQ(memory.permission_changes(), 1u);
}

TEST(Memory, LegalChangePredicateIsConsulted) {
  // Cheap Quorum's rule: the only legal change removes the leader's write
  // permission (§4.2).
  Executor exec;
  Memory memory(exec, 1);
  const auto all = procs(3);
  const auto only_revoke_leader = [](ProcessId, RegionId, const Permission&,
                                     const Permission& proposed) {
    return proposed.write.empty() && proposed.read_write.empty();
  };
  const RegionId r = memory.create_region({"L/"}, Permission::swmr(1, all),
                                          only_revoke_leader);

  Status grab = Status::kAck, revoke = Status::kNak;
  exec.spawn([](Memory& m, RegionId r, const std::vector<ProcessId>& all,
                Status& grab, Status& revoke) -> Task<void> {
    // Illegal: p2 tries to take write permission for itself.
    grab = co_await m.change_permission(2, r, Permission::swmr(2, all));
    // Legal: p2 revokes the leader's write permission.
    revoke = co_await m.change_permission(2, r, Permission::read_only(all));
  }(memory, r, all, grab, revoke));
  exec.run();
  EXPECT_EQ(grab, Status::kNak);
  EXPECT_EQ(revoke, Status::kAck);
  EXPECT_FALSE(memory.region_permission(r).can_write(1));
}

TEST(Memory, RevocationInFlightBeatsWrite) {
  // A write issued before, but arriving after, a permission revocation must
  // nak — the "uncontended instantaneous guarantee" race (§1, §4.2).
  Executor exec;
  Memory memory(exec, 1);
  const auto all = procs(2);
  const RegionId r = memory.create_region({"L/"}, Permission::swmr(1, all),
                                          dynamic_permissions());
  Status wstatus = Status::kAck;

  // p2's revocation is issued at t=0, taking effect at t=1.
  exec.spawn([](Memory& m, RegionId r, const std::vector<ProcessId>& all) -> Task<void> {
    (void)co_await m.change_permission(2, r, Permission::read_only(all));
  }(memory, r, all));
  // p1's write is also issued at t=0, arriving at t=1 — after the
  // revocation's effect (FIFO tie-break puts the earlier-scheduled effect
  // first).
  exec.spawn([](Memory& m, RegionId r, Status& st) -> Task<void> {
    st = co_await m.write(1, r, "L/value", to_bytes("v"));
  }(memory, r, wstatus));
  exec.run();
  EXPECT_EQ(wstatus, Status::kNak);
  EXPECT_EQ(memory.peek("L/value"), std::nullopt);
}

TEST(Memory, CrashedMemoryHangsOperations) {
  Executor exec;
  Memory memory(exec, 1);
  const RegionId r = memory.create_region({"s/"}, Permission::open(procs(1)));
  memory.crash();
  bool completed = false;
  exec.spawn([](Memory& m, RegionId r, bool& completed) -> Task<void> {
    (void)co_await m.write(1, r, "s/a", to_bytes("x"));
    completed = true;
  }(memory, r, completed));
  exec.run();
  EXPECT_FALSE(completed);  // hangs forever (§3), never naks
}

TEST(Memory, CrashBetweenEffectAndResponseAppliesButHangs) {
  Executor exec;
  Memory memory(exec, 1);
  const RegionId r = memory.create_region({"s/"}, Permission::open(procs(1)));
  bool completed = false;
  exec.spawn([](Memory& m, RegionId r, bool& completed) -> Task<void> {
    (void)co_await m.write(1, r, "s/a", to_bytes("persisted"));
    completed = true;
  }(memory, r, completed));
  // Write effect lands at t=1; the crash is scheduled at t=2 and — having
  // been registered before the coroutine ran — fires ahead of the response
  // event at the same instant, so the response is swallowed.
  exec.call_at(2, [&] { memory.crash(); });
  exec.run();
  EXPECT_FALSE(completed);
  ASSERT_TRUE(memory.peek("s/a").has_value());
  EXPECT_EQ(to_string(*memory.peek("s/a")), "persisted");
}

TEST(Memory, OverlappingRegionsGrantIndependentAccess) {
  // §3: "a register may belong to several regions, and a process may have
  // access to the register on one region but not another".
  Executor exec;
  Memory memory(exec, 1);
  const auto all = procs(2);
  const RegionId ro = memory.create_region({"arr/"}, Permission::read_only(all));
  Permission writer_only;
  writer_only.read_write = {1};
  const RegionId rw1 = memory.create_region({"arr/row1/"}, writer_only);

  Status via_ro = Status::kAck, via_rw = Status::kNak;
  ReadResult read_back;
  exec.spawn([](Memory& m, RegionId ro, RegionId rw1, Status& via_ro,
                Status& via_rw, ReadResult& rb) -> Task<void> {
    via_ro = co_await m.write(1, ro, "arr/row1/c3", to_bytes("x"));   // denied
    via_rw = co_await m.write(1, rw1, "arr/row1/c3", to_bytes("x"));  // allowed
    rb = co_await m.read(2, ro, "arr/row1/c3");                       // read via other region
  }(memory, ro, rw1, via_ro, via_rw, read_back));
  exec.run();
  EXPECT_EQ(via_ro, Status::kNak);
  EXPECT_EQ(via_rw, Status::kAck);
  ASSERT_TRUE(read_back.ok());
  EXPECT_EQ(to_string(read_back.value), "x");
}

TEST(Memory, ExactRegisterRegions) {
  Executor exec;
  Memory memory(exec, 1);
  const RegionId r = memory.create_region({}, Permission::open(procs(1)),
                                          static_permissions(), {"only_this"});
  EXPECT_TRUE(memory.region_contains(r, "only_this"));
  EXPECT_FALSE(memory.region_contains(r, "only_this_not"));
  EXPECT_FALSE(memory.region_contains(r, "other"));
}

TEST(Memory, NonDisjointRegionRejected) {
  Executor exec;
  Memory memory(exec, 1);
  Permission bad;
  bad.read = {1};
  bad.read_write = {1};
  EXPECT_THROW(memory.create_region({"x/"}, bad), std::invalid_argument);
}

TEST(Memory, CountersTrackOperations) {
  Executor exec;
  Memory memory(exec, 1);
  const RegionId r = memory.create_region({"s/"}, Permission::open(procs(1)));
  exec.spawn([](Memory& m, RegionId r) -> Task<void> {
    (void)co_await m.write(1, r, "s/a", to_bytes("1"));
    (void)co_await m.read(1, r, "s/a");
    (void)co_await m.read(1, r, "s/a");
  }(memory, r));
  exec.run();
  EXPECT_EQ(memory.writes(), 1u);
  EXPECT_EQ(memory.reads(), 2u);
}

// --- destroy_region: the region and its registers are gone, its id is
// never reused, and nothing is scheduled or counted. ---

TEST(Memory, DestroyedRegionNaksEveryOperation) {
  Executor exec;
  Memory memory(exec, 1);
  const RegionId r = memory.create_region({"d/"}, Permission::open(procs(2)),
                                          dynamic_permissions());
  memory.poke("d/a", to_bytes("old"));
  memory.destroy_region(r);
  EXPECT_EQ(exec.events_processed(), 0u);  // destroying schedules nothing
  Status wst = Status::kAck;
  Status cst = Status::kAck;
  ReadResult rr{Status::kAck, {}};
  std::vector<ReadResult> many;
  exec.spawn([](Memory& m, RegionId r, Status& wst, ReadResult& rr,
                std::vector<ReadResult>& many, Status& cst) -> Task<void> {
    wst = co_await m.write(1, r, "d/a", to_bytes("x"));
    rr = co_await m.read(1, r, "d/a");
    std::vector<std::string> regs = {"d/a", "d/b"};
    many = co_await m.read_many(1, r, std::move(regs));
    cst = co_await m.change_permission(1, r, Permission::read_only(procs(2)));
  }(memory, r, wst, rr, many, cst));
  exec.run();
  EXPECT_EQ(wst, Status::kNak);
  EXPECT_FALSE(rr.ok());
  ASSERT_EQ(many.size(), 2u);
  EXPECT_FALSE(many[0].ok());
  EXPECT_FALSE(many[1].ok());
  EXPECT_EQ(cst, Status::kNak);
  EXPECT_EQ(memory.naks(), 5u);  // the write, the read, two slots, the change
  EXPECT_EQ(memory.writes() + memory.reads() + memory.permission_changes(),
            0u);
  EXPECT_EQ(memory.peek("d/a"), std::nullopt);
  EXPECT_THROW((void)memory.region_permission(r), std::out_of_range);
}

TEST(Memory, DestroyDropsOnlyTheRegionsRegisters) {
  Executor exec;
  Memory memory(exec, 1);
  const auto all = procs(2);
  const RegionId gone = memory.create_region(
      {"s1/pmp/"}, Permission::open(all), static_permissions(), {"s1/extra"});
  const RegionId kept = memory.create_region({"s10/pmp/"}, Permission::open(all));
  for (const char* reg :
       {"s1/pmp/slot/1", "s1/pmp/slot/2", "s1/extra", "s10/pmp/slot/1",
        "s1/outside"}) {
    memory.poke(reg, to_bytes("v"));
  }
  memory.destroy_region(gone);
  EXPECT_EQ(memory.peek("s1/pmp/slot/1"), std::nullopt);
  EXPECT_EQ(memory.peek("s1/pmp/slot/2"), std::nullopt);
  EXPECT_EQ(memory.peek("s1/extra"), std::nullopt);
  EXPECT_TRUE(memory.peek("s10/pmp/slot/1").has_value());
  EXPECT_TRUE(memory.peek("s1/outside").has_value());  // in no region
  EXPECT_TRUE(memory.region_contains(kept, "s10/pmp/slot/1"));
  EXPECT_FALSE(memory.region_contains(gone, "s1/pmp/slot/1"));
  EXPECT_EQ(memory.regions_held(), 1u);
  EXPECT_EQ(memory.registers_held(), 2u);
}

TEST(Memory, RegionIdsAreNeverReused) {
  Executor exec;
  Memory memory(exec, 1);
  const auto make = [&] {
    return memory.create_region({"r/"}, Permission::open(procs(1)));
  };
  for (RegionId want = 1; want <= 4; ++want) EXPECT_EQ(make(), want);
  memory.destroy_region(3);
  memory.destroy_region(1);  // out of creation order
  EXPECT_EQ(make(), 5u);
  memory.destroy_region(5);
  memory.destroy_region(2);
  EXPECT_EQ(make(), 6u);
  EXPECT_EQ(memory.regions_held(), 2u);  // 4 and 6
  EXPECT_TRUE(memory.region_contains(4, "r/x"));
  EXPECT_TRUE(memory.region_contains(6, "r/x"));
}

TEST(Memory, DestroyingAnUnknownRegionIsANoOp) {
  Executor exec;
  Memory memory(exec, 1);
  const RegionId r = memory.create_region({"r/"}, Permission::open(procs(1)));
  memory.poke("r/a", to_bytes("v"));
  memory.destroy_region(77);
  EXPECT_EQ(memory.regions_held(), 1u);
  EXPECT_TRUE(memory.peek("r/a").has_value());
  memory.destroy_region(r);
  memory.destroy_region(r);  // already destroyed
  EXPECT_EQ(memory.regions_held(), 0u);
  EXPECT_EQ(memory.naks(), 0u);
  EXPECT_EQ(memory.create_region({"r/"}, Permission::open(procs(1))), 2u);
}

TEST(Memory, WriteInFlightAtTheDestroyNaks) {
  // The write is posted at t=0 and takes effect at t=1; the region dies at
  // t=0 in between.
  Executor exec;
  Memory memory(exec, 1);
  const RegionId r = memory.create_region({"d/"}, Permission::open(procs(1)));
  Status st = Status::kAck;
  exec.spawn([](Memory& m, RegionId r, Status& st) -> Task<void> {
    st = co_await m.write(1, r, "d/x", to_bytes("racer"));
  }(memory, r, st));
  exec.run(/*until=*/0);  // posted
  memory.destroy_region(r);
  exec.run();
  EXPECT_EQ(st, Status::kNak);
  EXPECT_EQ(memory.peek("d/x"), std::nullopt);
  EXPECT_EQ(memory.writes(), 0u);
  EXPECT_EQ(memory.naks(), 1u);
}

}  // namespace
}  // namespace mnm::mem
