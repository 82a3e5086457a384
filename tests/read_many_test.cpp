// Batched scatter-gather reads (MemoryIface::read_many) on both backends:
// one round trip, one batch counter tick, per-slot results and naks, crash
// semantics — plus the scoped write signals poll-free watchers wait on.

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <vector>

#include "src/harness/process_view.hpp"
#include "src/mem/memory.hpp"
#include "src/mem/write_watch.hpp"
#include "src/sim/executor.hpp"
#include "src/sim/select.hpp"
#include "src/sim/task.hpp"
#include "src/verbs/verbs.hpp"

namespace mnm::mem {
namespace {

using sim::Executor;
using sim::Task;
using util::to_bytes;

Task<void> write_reg(Memory* m, ProcessId p, RegionId r, std::string reg,
                     Bytes v) {
  (void)co_await m->write(p, r, std::move(reg), std::move(v));
}

TEST(ReadMany, OneRoundTripPerSlotResultsInOrder) {
  Executor exec;
  Memory m(exec, 1);
  const auto all = all_processes(2);
  const RegionId r = m.create_region({"slot/"}, Permission::open(all));
  exec.spawn(write_reg(&m, 1, r, "slot/a", to_bytes("A")));
  exec.spawn(write_reg(&m, 1, r, "slot/c", to_bytes("C")));
  exec.run();

  std::vector<ReadResult> out;
  sim::Time completed_at = 0;
  std::vector<std::string> regs{"slot/a", "slot/b", "slot/c"};
  exec.spawn([](Executor* e, Memory* m, RegionId r, std::vector<std::string> regs,
                std::vector<ReadResult>* out, sim::Time* at) -> Task<void> {
    *out = co_await m->read_many(1, r, std::move(regs));
    *at = e->now();
  }(&exec, &m, r, std::move(regs), &out, &completed_at));
  const sim::Time start = exec.now();
  exec.run();

  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].value, to_bytes("A"));
  EXPECT_TRUE(util::is_bottom(out[1].value));  // unwritten slot reads ⊥
  EXPECT_EQ(out[2].value, to_bytes("C"));
  for (const auto& rr : out) EXPECT_TRUE(rr.ok());
  // The whole batch costs exactly one memory round trip.
  EXPECT_EQ(completed_at - start, sim::kMemoryOpDelay);
  // Counters: one batch, per-slot read detail.
  EXPECT_EQ(m.read_batches(), 1u);
  EXPECT_EQ(m.reads(), 3u);
}

TEST(ReadMany, PerSlotNaksForSlotsOutsideRegion) {
  Executor exec;
  Memory m(exec, 1);
  const auto all = all_processes(2);
  const RegionId r = m.create_region({"slot/"}, Permission::open(all));
  std::vector<ReadResult> out;
  std::vector<std::string> regs{"slot/a", "other/x"};
  exec.spawn([](Memory* m, RegionId r, std::vector<std::string> regs,
                std::vector<ReadResult>* out) -> Task<void> {
    *out = co_await m->read_many(1, r, std::move(regs));
  }(&m, r, std::move(regs), &out));
  exec.run();
  ASSERT_EQ(out.size(), 2u);
  EXPECT_TRUE(out[0].ok());
  EXPECT_FALSE(out[1].ok());  // outside the region: per-slot nak
}

TEST(ReadMany, NoReadPermissionNaksEverySlot) {
  Executor exec;
  Memory m(exec, 1);
  const auto all = all_processes(2);
  // p1 is exclusive writer; p2 can read, p3 is a stranger with no rights.
  const RegionId r = m.create_region({"slot/"}, Permission::exclusive_writer(1, all));
  std::vector<ReadResult> out;
  std::vector<std::string> regs{"slot/a", "slot/b"};
  exec.spawn([](Memory* m, RegionId r, std::vector<std::string> regs,
                std::vector<ReadResult>* out) -> Task<void> {
    *out = co_await m->read_many(3, r, std::move(regs));
  }(&m, r, std::move(regs), &out));
  exec.run();
  ASSERT_EQ(out.size(), 2u);
  EXPECT_FALSE(out[0].ok());
  EXPECT_FALSE(out[1].ok());
  EXPECT_EQ(m.reads(), 0u);
  EXPECT_EQ(m.read_batches(), 1u);  // the batch arrived; every slot nak'd
}

TEST(ReadMany, CrashedMemoryHangsTheWholeBatch) {
  Executor exec;
  Memory m(exec, 1);
  const RegionId r = m.create_region({"slot/"}, Permission::open(all_processes(2)));
  m.crash();
  bool completed = false;
  std::vector<std::string> regs{"slot/a"};
  exec.spawn([](Memory* m, RegionId r, std::vector<std::string> regs,
                bool* done) -> Task<void> {
    (void)co_await m->read_many(1, r, std::move(regs));
    *done = true;
  }(&m, r, std::move(regs), &completed));
  exec.run(1000);
  EXPECT_FALSE(completed);  // §3: operations on crashed memories hang
}

TEST(ReadMany, VerbsBackendMatchesModelBackend) {
  Executor exec;
  const auto all = all_processes(2);
  verbs::VerbsMemory vm(exec,
                        std::make_unique<verbs::RdmaDevice>(exec, 1, 0xfeed),
                        all);
  const RegionId r = vm.create_region({"slot/"}, Permission::open(all));
  exec.spawn([](verbs::VerbsMemory* vm, RegionId r) -> Task<void> {
    (void)co_await vm->write(1, r, "slot/a", to_bytes("A"));
  }(&vm, r));
  exec.run();

  std::vector<ReadResult> out;
  sim::Time completed_at = 0;
  std::vector<std::string> regs{"slot/a", "slot/b"};
  exec.spawn([](Executor* e, verbs::VerbsMemory* vm, RegionId r,
                std::vector<std::string> regs, std::vector<ReadResult>* out,
                sim::Time* at) -> Task<void> {
    *out = co_await vm->read_many(1, r, std::move(regs));
    *at = e->now();
  }(&exec, &vm, r, std::move(regs), &out, &completed_at));
  const sim::Time start = exec.now();
  exec.run();

  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].value, to_bytes("A"));
  EXPECT_TRUE(out[1].ok());
  EXPECT_TRUE(util::is_bottom(out[1].value));
  EXPECT_EQ(completed_at - start, sim::kMemoryOpDelay);
  EXPECT_EQ(vm.device().posted_read_batches(), 1u);
  EXPECT_EQ(vm.device().posted_reads(), 2u);
}

TEST(ReadMany, VerbsRevokedRkeyNaksAtTheNic) {
  Executor exec;
  const auto all = all_processes(2);
  verbs::VerbsMemory vm(exec,
                        std::make_unique<verbs::RdmaDevice>(exec, 1, 0xbeef),
                        all);
  // p1 exclusive writer: p2 may read; nobody else registered.
  const RegionId r = vm.create_region({"slot/"}, Permission::exclusive_writer(1, all));
  std::vector<ReadResult> p2;
  std::vector<std::string> regs{"slot/a"};
  exec.spawn([](verbs::VerbsMemory* vm, RegionId r,
                std::vector<std::string> regs,
                std::vector<ReadResult>* out) -> Task<void> {
    *out = co_await vm->read_many(2, r, std::move(regs));
  }(&vm, r, std::move(regs), &p2));
  exec.run();
  ASSERT_EQ(p2.size(), 1u);
  EXPECT_TRUE(p2[0].ok());  // reader registration present

  // An unknown region naks immediately without touching the device,
  // mirroring read().
  std::vector<ReadResult> bad;
  sim::Time at = 0;
  std::vector<std::string> regs2{"slot/a"};
  exec.spawn([](Executor* e, verbs::VerbsMemory* vm,
                std::vector<std::string> regs, std::vector<ReadResult>* out,
                sim::Time* at) -> Task<void> {
    *out = co_await vm->read_many(2, RegionId{99}, std::move(regs));
    *at = e->now();
  }(&exec, &vm, std::move(regs2), &bad, &at));
  const sim::Time start = exec.now();
  exec.run();
  ASSERT_EQ(bad.size(), 1u);
  EXPECT_FALSE(bad[0].ok());
  EXPECT_EQ(at, start);  // no device round trip for an unknown region
}

TEST(ReadMany, ProcessViewHangsBatchAfterCrash) {
  Executor exec;
  Memory m(exec, 1);
  const RegionId r = m.create_region({"slot/"}, Permission::open(all_processes(2)));
  auto alive = std::make_shared<bool>(true);
  harness::ProcessView view(exec, m, alive);
  *alive = false;
  bool completed = false;
  std::vector<std::string> regs{"slot/a"};
  exec.spawn([](harness::ProcessView* v, RegionId r,
                std::vector<std::string> regs, bool* done) -> Task<void> {
    (void)co_await v->read_many(1, r, std::move(regs));
    *done = true;
  }(&view, r, std::move(regs), &completed));
  exec.run(1000);
  EXPECT_FALSE(completed);
}

// --- Scoped write signals: a write wakes only the watchers of its own
// region's scope, at the write's effect point. ---

/// Two regions, one per scope: "a/" in the default scope, "b/" in a fresh
/// one. p1 is the only writer of both.
template <typename M>
struct TwoScopes {
  explicit TwoScopes(M& m) : m(&m) {
    const auto all = all_processes(2);
    scope_b = m.new_scope();
    region_a = m.create_region({"a/"}, Permission::exclusive_writer(1, all));
    region_b = m.create_region({"b/"}, Permission::exclusive_writer(1, all),
                               static_permissions(), {}, scope_b);
  }
  std::uint64_t version(ScopeId s) const { return m->write_signal(s).version(); }

  M* m;
  ScopeId scope_b = 0;
  RegionId region_a = 0, region_b = 0;
};

Task<void> write_via(MemoryIface* m, ProcessId p, RegionId r, std::string reg) {
  (void)co_await m->write(p, r, std::move(reg), to_bytes("v"));
}

/// Wake time of the first bump of `scope` past its current version.
Task<void> first_bump_at(Executor* e, MemoryIface* m, ScopeId scope,
                         sim::Time* at) {
  sim::Select sel(*e);
  sel.on(m->write_signal(scope), m->write_signal(scope).version());
  (void)co_await sel;
  *at = e->now();
}

template <typename M>
void expect_write_bumps_only_its_scope(Executor& exec, M& m) {
  TwoScopes<M> t(m);
  ASSERT_NE(t.scope_b, kDefaultScope);
  exec.spawn(write_via(&m, 1, t.region_b, "b/x"));
  exec.run();
  EXPECT_EQ(t.version(t.scope_b), 1u);
  EXPECT_EQ(t.version(kDefaultScope), 0u);  // the other scope never moved
  exec.spawn(write_via(&m, 1, t.region_a, "a/x"));
  exec.run();
  EXPECT_EQ(t.version(kDefaultScope), 1u);
  EXPECT_EQ(t.version(t.scope_b), 1u);
}

template <typename M>
void expect_nak_bumps_nothing(Executor& exec, M& m) {
  TwoScopes<M> t(m);
  exec.spawn(write_via(&m, 2, t.region_b, "b/x"));  // p2 may not write
  exec.spawn(write_via(&m, 1, t.region_b, "a/x"));  // outside the region
  exec.run();
  EXPECT_EQ(t.version(kDefaultScope), 0u);
  EXPECT_EQ(t.version(t.scope_b), 0u);
}

template <typename M>
void expect_bump_at_effect_point(Executor& exec, M& m) {
  TwoScopes<M> t(m);
  sim::Time woke = sim::kTimeInfinity;
  exec.spawn(first_bump_at(&exec, &m, t.scope_b, &woke));
  const sim::Time start = exec.now();
  exec.spawn(write_via(&m, 1, t.region_b, "b/x"));
  exec.run();
  // The effect point is the request's arrival, half a round trip in —
  // never the completion a full round trip in.
  EXPECT_EQ(woke - start, sim::kMemoryOpDelay / 2);
}

verbs::VerbsMemory make_verbs(Executor& exec) {
  return verbs::VerbsMemory(
      exec, std::make_unique<verbs::RdmaDevice>(exec, 1, 0x5c09e),
      all_processes(2));
}

TEST(ScopedWriteSignal, MemoryWriteBumpsOnlyItsRegionsScope) {
  Executor exec;
  Memory m(exec, 1);
  expect_write_bumps_only_its_scope(exec, m);
}

TEST(ScopedWriteSignal, VerbsWriteBumpsOnlyItsRegionsScope) {
  Executor exec;
  verbs::VerbsMemory vm = make_verbs(exec);
  expect_write_bumps_only_its_scope(exec, vm);
}

TEST(ScopedWriteSignal, MemoryNakBumpsNothing) {
  Executor exec;
  Memory m(exec, 1);
  expect_nak_bumps_nothing(exec, m);
}

TEST(ScopedWriteSignal, VerbsNakBumpsNothing) {
  Executor exec;
  verbs::VerbsMemory vm = make_verbs(exec);
  expect_nak_bumps_nothing(exec, vm);
}

TEST(ScopedWriteSignal, MemoryBumpsAtTheEffectPoint) {
  Executor exec;
  Memory m(exec, 1);
  expect_bump_at_effect_point(exec, m);
}

TEST(ScopedWriteSignal, VerbsBumpsAtTheNicEffectPoint) {
  Executor exec;
  verbs::VerbsMemory vm = make_verbs(exec);
  expect_bump_at_effect_point(exec, vm);
}

TEST(ScopedWriteSignal, PokeBumpsTheScopeOfTheRegionHoldingTheRegister) {
  Executor exec;
  Memory m(exec, 1);
  TwoScopes<Memory> t(m);
  m.poke("b/x", to_bytes("P"));
  EXPECT_EQ(t.version(t.scope_b), 1u);
  EXPECT_EQ(t.version(kDefaultScope), 0u);
  m.poke("nowhere/x", to_bytes("P"));  // in no region: nobody to wake
  EXPECT_EQ(t.version(t.scope_b), 1u);
  EXPECT_EQ(t.version(kDefaultScope), 0u);

  // The device counterpart: one bump per scope, even though the region
  // carries one MR per registered process.
  verbs::VerbsMemory vm = make_verbs(exec);
  TwoScopes<verbs::VerbsMemory> tv(vm);
  vm.device().poke("b/x", to_bytes("P"));
  EXPECT_EQ(tv.version(tv.scope_b), 1u);
  EXPECT_EQ(tv.version(kDefaultScope), 0u);
}

TEST(ScopedWriteSignal, ProcessViewForwardsEveryScope) {
  Executor exec;
  Memory m(exec, 1);
  TwoScopes<Memory> t(m);
  auto alive = std::make_shared<bool>(true);
  harness::ProcessView view(exec, m, alive);
  EXPECT_EQ(&view.write_signal(t.scope_b), &m.write_signal(t.scope_b));
  EXPECT_EQ(&view.write_signal(kDefaultScope), &m.write_signal(kDefaultScope));

  // A write through the view bumps at the inner memory's effect point.
  sim::Time woke = sim::kTimeInfinity;
  exec.spawn(first_bump_at(&exec, &view, t.scope_b, &woke));
  exec.spawn(write_via(&view, 1, t.region_b, "b/x"));
  exec.run();
  EXPECT_EQ(woke, sim::kMemoryOpDelay / 2);
  EXPECT_EQ(t.version(kDefaultScope), 0u);
}

TEST(ScopedWriteSignal, UnknownScopesAreRefused) {
  Executor exec;
  Memory m(exec, 1);
  EXPECT_THROW(m.write_signal(1), std::out_of_range);
  EXPECT_THROW(m.create_region({"x/"}, Permission::open(all_processes(1)),
                               static_permissions(), {}, 1),
               std::invalid_argument);
  verbs::VerbsMemory vm = make_verbs(exec);
  EXPECT_THROW(vm.write_signal(1), std::out_of_range);
  EXPECT_THROW(vm.create_region({"x/"}, Permission::open(all_processes(1)),
                                static_permissions(), {}, 1),
               std::invalid_argument);
}

TEST(WriteWatch, WakesOnItsOwnScopeOnly) {
  Executor exec;
  Memory m(exec, 1);
  TwoScopes<Memory> t(m);
  std::vector<MemoryIface*> mems{&m};
  WriteWatch watch(mems, t.scope_b);
  watch.snapshot();
  sim::Time woke = sim::kTimeInfinity;
  exec.spawn([](Executor* e, WriteWatch* w, sim::Time* at) -> Task<void> {
    co_await w->wait_change(*e, sim::kTimeInfinity);
    *at = e->now();
  }(&exec, &watch, &woke));
  exec.spawn(write_via(&m, 1, t.region_a, "a/x"));  // other scope: no wake
  exec.run();
  EXPECT_EQ(woke, sim::kTimeInfinity);
  const sim::Time start = exec.now();
  exec.spawn(write_via(&m, 1, t.region_b, "b/x"));
  exec.run();
  EXPECT_EQ(woke - start, sim::kMemoryOpDelay / 2);
}

TEST(WriteWatch, MoreMemoriesThanSelectSourcesIsAConstructionError) {
  Executor exec;
  std::vector<std::unique_ptr<Memory>> owned;
  std::vector<MemoryIface*> mems;
  for (std::size_t i = 0; i <= sim::Select::kMaxSources; ++i) {
    owned.push_back(std::make_unique<Memory>(exec, static_cast<MemoryId>(i + 1)));
    mems.push_back(owned.back().get());
  }
  EXPECT_THROW(WriteWatch(mems, kDefaultScope), std::length_error);
  mems.pop_back();  // exactly kMaxSources fits
  EXPECT_NO_THROW(WriteWatch(mems, kDefaultScope));
  EXPECT_THROW(WriteWatch({}, kDefaultScope), std::length_error);
}

}  // namespace
}  // namespace mnm::mem
