// core::ConsensusEngine conformance across all seven protocol adapters.
//
// The engine contract every adapter must honor (engine.hpp): propose
// resolves with the slot's decision, decisions() streams each locally
// decided slot exactly once, replicas agree per slot, slots are independent
// (different slots may decide different values), and everything runs over
// ONE base transport / memory set per replica — no per-slot tags or
// regions leak into the caller.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/core/engine.hpp"
#include "src/core/omega.hpp"
#include "src/core/transport.hpp"
#include "src/mem/memory.hpp"
#include "src/net/network.hpp"
#include "src/sim/executor.hpp"
#include "src/verbs/verbs.hpp"

namespace mnm::core {
namespace {

using sim::Executor;
using sim::Task;
using util::to_bytes;
using util::to_string;

enum class Kind {
  kPaxos,
  kFastPaxos,
  kDiskPaxos,
  kPmp,
  kAligned,
  kRobustBackup,
  kFastRobust,
};

/// Minimal cluster: n processes, m memories, one engine per process over one
/// NetTransport (message engines) or the shared memories (Byzantine engines).
/// The last memory answers after `last_memory_delay`; with `verbs` the
/// memories are VerbsMemory instead, all at the default delay.
struct EngineWorld {
  EngineWorld(Kind kind, std::size_t n, std::size_t m,
              sim::Time last_memory_delay = sim::kMemoryOpDelay,
              bool verbs = false)
      : n(n),
        network(exec, n),
        omega(Omega::fixed(exec, kLeaderP1)),
        keystore(99) {
    for (std::size_t i = 0; i < m; ++i) {
      const auto id = static_cast<MemoryId>(i + 1);
      if (verbs) {
        verbs_memories.push_back(std::make_unique<verbs::VerbsMemory>(
            exec, std::make_unique<verbs::RdmaDevice>(exec, id, id),
            all_processes(n)));
        ifc.push_back(verbs_memories.back().get());
        continue;
      }
      memories.push_back(std::make_unique<mem::Memory>(
          exec, id, i + 1 == m ? last_memory_delay : sim::kMemoryOpDelay));
      ifc.push_back(memories.back().get());
    }
    for (ProcessId p : all_processes(n)) {
      signers.push_back(keystore.register_process(p));
    }

    switch (kind) {
      case Kind::kPaxos:
      case Kind::kFastPaxos: {
        PaxosConfig pc;
        pc.leader_terms = (kind == Kind::kFastPaxos);
        for (ProcessId p : all_processes(n)) {
          transports.push_back(
              std::make_unique<NetTransport>(exec, network, p, /*tag=*/100));
          engines.push_back(std::make_unique<PaxosEngine>(
              exec, *transports.back(), omega, pc));
        }
        break;
      }
      case Kind::kDiskPaxos: {
        auto pool = region_pool([this](auto& m, const std::string& ns) {
          return make_disk_region(m, this->n, ns).id;
        });
        for (ProcessId p : all_processes(n)) {
          transports.push_back(
              std::make_unique<NetTransport>(exec, network, p, /*tag=*/910));
          engines.push_back(std::make_unique<DiskPaxosEngine>(
              exec, ifc, *transports.back(), omega, pool));
        }
        break;
      }
      case Kind::kPmp:
      case Kind::kAligned: {
        auto pool = region_pool([this](auto& m, const std::string& ns) {
          return make_pmp_region(m, this->n, kLeaderP1, ns).id;
        });
        for (ProcessId p : all_processes(n)) {
          transports.push_back(
              std::make_unique<NetTransport>(exec, network, p, /*tag=*/920));
          if (kind == Kind::kAligned) {
            engines.push_back(std::make_unique<AlignedEngine>(
                exec, ifc, *transports.back(), omega, pool));
          } else {
            engines.push_back(std::make_unique<PmpEngine>(
                exec, ifc, *transports.back(), omega, pool));
          }
        }
        break;
      }
      case Kind::kRobustBackup: {
        auto pool = std::make_shared<SlotRegions<NebSlotRegions>>(
            "", [this](const std::string& ns) {
              NebSlotRegions out;
              for (auto& mp : memories) {
                out = make_neb_slot_regions(*mp, this->n, ns);
              }
              return out;
            });
        RobustBackupConfig rc;
        rc.paxos.round_timeout = 150 * n;
        rc.paxos.retry_backoff = 40;
        for (ProcessId p : all_processes(n)) {
          engines.push_back(std::make_unique<RobustBackupEngine>(
              exec, ifc, pool, keystore, signers[p - 1], omega, rc));
        }
        break;
      }
      case Kind::kFastRobust: {
        auto pool = std::make_shared<SlotRegions<FastRobustSlotRegions>>(
            "", [this](const std::string& ns) {
              FastRobustSlotRegions out;
              for (auto& mp : memories) {
                out = make_fast_robust_slot_regions(*mp, this->n, ns);
              }
              return out;
            });
        FastRobustConfig fc;
        fc.paxos.round_timeout = 150 * n;
        fc.paxos.retry_backoff = 40;
        for (ProcessId p : all_processes(n)) {
          engines.push_back(std::make_unique<FastRobustEngine>(
              exec, ifc, pool, keystore, signers[p - 1], omega, fc));
        }
        break;
      }
    }
    for (auto& e : engines) e->start();
    decided.resize(n);
  }

  /// Apply `fn` to every memory, of whichever backend.
  template <typename Fn>
  void for_each_memory(Fn fn) {
    for (auto& m : memories) fn(*m);
    for (auto& m : verbs_memories) fn(*m);
  }

  /// The crash engines' pool, as the harness builds it: slot s's region is
  /// make(memory, ns(s)) on every memory, destroyed on all of them once
  /// every engine has released the slot.
  template <typename Make>
  std::shared_ptr<SlotRegions<RegionId>> region_pool(Make make) {
    regions = std::make_shared<SlotRegions<RegionId>>(
        "",
        [this, make](const std::string& ns) {
          RegionId id = 0;
          for_each_memory([&](auto& m) { id = make(m, ns); });
          return id;
        },
        n,
        [this](RegionId id) {
          for_each_memory([id](auto& m) { m.destroy_region(id); });
        });
    return regions;
  }

  /// Collect every decision each replica's stream emits.
  void start_collectors() {
    for (ProcessId p : all_processes(n)) {
      exec.spawn([](ConsensusEngine* e,
                    std::map<Slot, std::string>* out) -> Task<void> {
        while (true) {
          const SlotDecision sd = co_await e->decisions().recv();
          EXPECT_FALSE(out->contains(sd.slot))
              << "slot " << sd.slot << " decided twice";
          (*out)[sd.slot] = to_string(sd.decision.value);
        }
      }(engines[p - 1].get(), &decided[p - 1]));
    }
  }

  void propose(ProcessId p, Slot s, const std::string& v) {
    exec.spawn([](ConsensusEngine* e, Slot s, Bytes v) -> Task<void> {
      (void)co_await e->propose(s, std::move(v));
    }(engines[p - 1].get(), s, to_bytes(v)));
  }

  bool all_decided(std::size_t slots) const {
    for (const auto& d : decided) {
      if (d.size() < slots) return false;
    }
    return true;
  }

  std::size_t n;
  Executor exec;
  net::Network network;
  Omega omega;
  crypto::KeyStore keystore;
  std::vector<crypto::Signer> signers;
  std::vector<std::unique_ptr<mem::Memory>> memories;
  std::vector<std::unique_ptr<verbs::VerbsMemory>> verbs_memories;
  std::vector<mem::MemoryIface*> ifc;
  std::shared_ptr<SlotRegions<RegionId>> regions;  // crash engines only
  std::vector<std::unique_ptr<NetTransport>> transports;
  std::vector<std::unique_ptr<ConsensusEngine>> engines;
  std::vector<std::map<Slot, std::string>> decided;  // index p - 1
};

/// Leader-driven conformance: the leader proposes 3 slots; followers must
/// discover the slots from traffic, participate, and stream identical
/// decisions.
void leader_driven_roundtrip(Kind kind, std::size_t n, std::size_t m) {
  EngineWorld w(kind, n, m);
  w.start_collectors();
  w.propose(1, 0, "v0");
  w.propose(1, 1, "v1");
  w.propose(1, 2, "v2");
  w.exec.run_until([&] { return w.all_decided(3); }, 100000);
  ASSERT_TRUE(w.all_decided(3));
  for (ProcessId p : all_processes(n)) {
    EXPECT_FALSE(w.engines[p - 1]->all_propose()) << "p" << p;
    EXPECT_EQ(w.decided[p - 1].at(0), "v0") << "p" << p;
    EXPECT_EQ(w.decided[p - 1].at(1), "v1") << "p" << p;
    EXPECT_EQ(w.decided[p - 1].at(2), "v2") << "p" << p;
  }
}

/// All-propose conformance (Byzantine engines): every replica proposes its
/// own candidate per slot; per slot exactly one candidate wins everywhere.
void all_propose_roundtrip(Kind kind, std::size_t n, std::size_t m) {
  EngineWorld w(kind, n, m);
  w.start_collectors();
  for (Slot s = 0; s < 2; ++s) {
    for (ProcessId p : all_processes(n)) {
      w.propose(p, s, "s" + std::to_string(s) + "-from-p" + std::to_string(p));
    }
  }
  w.exec.run_until([&] { return w.all_decided(2); }, 200000);
  ASSERT_TRUE(w.all_decided(2));
  for (ProcessId p : all_processes(n)) {
    EXPECT_TRUE(w.engines[p - 1]->all_propose()) << "p" << p;
  }
  for (Slot s = 0; s < 2; ++s) {
    const std::string& winner = w.decided[0].at(s);
    EXPECT_TRUE(winner.rfind("s" + std::to_string(s) + "-from-p", 0) == 0)
        << winner;
    for (ProcessId p : all_processes(n)) {
      EXPECT_EQ(w.decided[p - 1].at(s), winner) << "p" << p << " slot " << s;
    }
  }
}

// --- Region factories: an instance reads n, its leader, its write scope and
// its register names from a factory's result, so the result must be the
// same on every memory, on either backend. ---

/// `make(memory)` twice on each of three memories per backend (the first
/// call stands for an earlier slot, so ids move past 1); every second
/// result must equal the first one.
template <typename Make>
auto made_on_every_memory(Make make) {
  Executor exec;
  std::vector<decltype(make(std::declval<mem::Memory&>()))> made;
  for (MemoryId id = 1; id <= 3; ++id) {
    mem::Memory m(exec, id);
    (void)make(m);
    made.push_back(make(m));
  }
  for (MemoryId id = 1; id <= 3; ++id) {
    verbs::VerbsMemory m(exec, std::make_unique<verbs::RdmaDevice>(exec, id, id),
                         all_processes(3));
    (void)make(m);
    made.push_back(make(m));
  }
  for (const auto& r : made) EXPECT_TRUE(r == made.front());
  return made.front();
}

TEST(RegionFactories, EveryMemoryAgrees) {
  const DiskRegion disk = made_on_every_memory(
      [](auto& m) { return make_disk_region(m, 3, "s1/"); });
  EXPECT_EQ(disk.id, 2u);
  EXPECT_EQ(disk.ns, "s1/");
  const DiskRegion pmp = made_on_every_memory(
      [](auto& m) { return make_pmp_region(m, 3, 2, "s1/"); });
  EXPECT_EQ(pmp.id, 2u);
  EXPECT_EQ(pmp.ns, "s1/");

  const NebRegions neb = made_on_every_memory(
      [](auto& m) { return make_neb_regions(m, 3, "s1/", m.new_scope()); });
  EXPECT_EQ(neb.ns, "s1/");
  EXPECT_EQ(neb.per_process.size(), 3u);
  EXPECT_EQ(neb.per_process.at(1), 4u);
  EXPECT_EQ(neb.scope, 2u);
  const CheapQuorumRegions cq = made_on_every_memory([](auto& m) {
    return make_cq_regions(m, 3, /*leader=*/2, "s1/", m.new_scope());
  });
  EXPECT_EQ(cq.ns, "s1/");
  EXPECT_EQ(cq.leader_process, 2u);
  EXPECT_EQ(cq.leader, 5u);
  EXPECT_EQ(cq.per_process.size(), 3u);
  EXPECT_EQ(cq.scope, 2u);

  // The slot pools' entries: ids only, named by the pool's namespace.
  const NebSlotRegions nebs = made_on_every_memory(
      [](auto& m) { return make_neb_slot_regions(m, 3, "s1/"); });
  EXPECT_EQ(nebs.neb_regions("s1/"), neb);
  const FastRobustSlotRegions fr = made_on_every_memory(
      [](auto& m) { return make_fast_robust_slot_regions(m, 3, "s1/"); });
  const CheapQuorumRegions fr_cq = fr.cq_regions("s1/");
  EXPECT_EQ(fr_cq.leader_process, kLeaderP1);
  EXPECT_EQ(fr_cq.per_process.size(), 3u);
  EXPECT_EQ(fr_cq.scope, 3u);
  EXPECT_EQ(fr.neb_regions("s1/").per_process.size(), 3u);
  EXPECT_EQ(fr.neb_scope, 4u);
  SlotRegions<RegionId> pool("g2/", [](const std::string&) { return 0; });
  EXPECT_EQ(pool.ns(7), "s7/g2/");
}

// --- Slot-region pools: a slot's regions live until every member that
// has not crashed has released the slot. ---

/// A PMP slot pool of `members` members over three mem::Memory and three
/// VerbsMemory, which must agree on every slot's region id.
struct PoolWorld {
  explicit PoolWorld(std::size_t members) {
    for (MemoryId id = 1; id <= 3; ++id) {
      mems.push_back(std::make_unique<mem::Memory>(exec, id));
      verbs.push_back(std::make_unique<verbs::VerbsMemory>(
          exec, std::make_unique<verbs::RdmaDevice>(exec, id, id),
          all_processes(3)));
    }
    pool = std::make_shared<SlotRegions<RegionId>>(
        "g0/",
        [this](const std::string& ns) {
          std::optional<RegionId> id;
          for_each([&](auto& m) {
            const RegionId got = make_pmp_region(m, 3, kLeaderP1, ns).id;
            if (id.has_value()) EXPECT_EQ(got, *id) << ns;
            id = got;
          });
          return *id;
        },
        members,
        [this](RegionId id) {
          for_each([id](auto& m) { m.destroy_region(id); });
        });
  }

  template <typename Fn>
  void for_each(Fn fn) {
    for (auto& m : mems) fn(*m);
    for (auto& m : verbs) fn(*m);
  }

  /// The regions each memory holds, which must be the pool's count.
  void expect_held(std::size_t regions) {
    EXPECT_EQ(pool->held(), regions);
    for_each([&](auto& m) { EXPECT_EQ(m.regions_held(), regions); });
  }

  Executor exec;
  std::vector<std::unique_ptr<mem::Memory>> mems;
  std::vector<std::unique_ptr<verbs::VerbsMemory>> verbs;
  std::shared_ptr<SlotRegions<RegionId>> pool;
};

TEST(SlotRegionPool, LaggingMemberPinsTheFloor) {
  PoolWorld w(3);
  for (Slot s = 0; s < 4; ++s) EXPECT_EQ(w.pool->get(s), s + 1);
  w.pool->release(1, 3);
  w.pool->release(2, 3);
  EXPECT_EQ(w.pool->floor(), 0u);  // p3 has not released slot 0
  w.expect_held(4);
  w.pool->release(3, 1);
  EXPECT_EQ(w.pool->floor(), 1u);
  w.expect_held(3);
  EXPECT_FALSE(w.mems[0]->region_contains(1, "s0/g0/pmp/slot/1"));
  EXPECT_TRUE(w.mems[0]->region_contains(2, "s1/g0/pmp/slot/1"));
  // A floor at or below the one a member released changes nothing.
  w.pool->release(3, 0);
  EXPECT_EQ(w.pool->floor(), 1u);
}

TEST(SlotRegionPool, CrashedMemberReleasesIt) {
  PoolWorld w(3);
  for (Slot s = 0; s < 4; ++s) (void)w.pool->get(s);
  w.pool->release(1, 3);
  w.pool->release(2, 2);
  EXPECT_EQ(w.pool->floor(), 0u);
  w.pool->leave(3);  // p3 crashed before releasing anything
  EXPECT_EQ(w.pool->floor(), 2u);
  w.expect_held(2);
  w.pool->release(3, 4);  // a crashed member's late report changes nothing
  EXPECT_EQ(w.pool->floor(), 2u);
  w.pool->leave(2);
  EXPECT_EQ(w.pool->floor(), 3u);
  // The last member to leave keeps the floor where it is.
  w.pool->leave(1);
  EXPECT_EQ(w.pool->floor(), 3u);
  w.expect_held(1);
}

TEST(SlotRegionPool, GetBelowTheFloorThrows) {
  // A fresh, empty region for a decided slot could decide a different
  // value, so a retired slot is never re-created.
  PoolWorld w(2);
  for (Slot s = 0; s < 3; ++s) (void)w.pool->get(s);
  w.pool->release(1, 2);
  w.pool->release(2, 2);
  EXPECT_THROW((void)w.pool->get(1), std::out_of_range);
  EXPECT_THROW((void)w.pool->get(0), std::out_of_range);
  EXPECT_EQ(w.pool->get(2), 3u);  // a live slot keeps its region
  w.expect_held(1);
  EXPECT_EQ(w.pool->get(3), 4u);  // the next slot's region gets a fresh id
  w.expect_held(2);
}

TEST(SlotRegionPool, RegionIdsStayAlignedAcrossDestroys) {
  // Ids are never reused, so every memory issues the same id for each slot
  // however many regions the pool has destroyed (PoolWorld checks the six
  // memories agree), and a slot whose members retired past it before it
  // was ever made is never made.
  PoolWorld w(2);
  for (Slot s = 0; s < 8; ++s) (void)w.pool->get(s);
  w.pool->release(1, 5);
  w.pool->release(2, 6);
  w.expect_held(3);
  for (Slot s = 8; s < 12; ++s) EXPECT_EQ(w.pool->get(s), s + 1);
  w.pool->release(1, 14);
  w.pool->release(2, 14);
  w.expect_held(0);
  EXPECT_THROW((void)w.pool->get(13), std::out_of_range);
  EXPECT_EQ(w.pool->get(14), 13u);
  w.for_each([](auto& m) { EXPECT_EQ(m.regions_held(), 1u); });
}

TEST(SlotRegionPool, WithoutDestroyKeepsEverySlot) {
  // The Byzantine engines' pools: nothing is ever released.
  SlotRegions<RegionId> pool("", [](const std::string&) { return 7; }, 2);
  for (Slot s = 0; s < 4; ++s) (void)pool.get(s);
  pool.release(1, 4);
  pool.release(2, 4);
  EXPECT_EQ(pool.floor(), 0u);
  EXPECT_EQ(pool.held(), 4u);
  EXPECT_EQ(pool.get(0), 7u);
}

TEST(ConsensusEngine, PaxosThreeSlots) {
  leader_driven_roundtrip(Kind::kPaxos, 3, 0);
}

TEST(ConsensusEngine, FastPaxosThreeSlots) {
  leader_driven_roundtrip(Kind::kFastPaxos, 3, 0);
}

TEST(ConsensusEngine, DiskPaxosThreeSlots) {
  leader_driven_roundtrip(Kind::kDiskPaxos, 2, 3);
}

TEST(ConsensusEngine, ProtectedMemoryPaxosThreeSlots) {
  leader_driven_roundtrip(Kind::kPmp, 2, 3);
}

TEST(ConsensusEngine, AlignedPaxosThreeSlots) {
  leader_driven_roundtrip(Kind::kAligned, 3, 3);
}

TEST(ConsensusEngine, RobustBackupTwoSlots) {
  all_propose_roundtrip(Kind::kRobustBackup, 3, 3);
}

TEST(ConsensusEngine, FastRobustTwoSlots) {
  all_propose_roundtrip(Kind::kFastRobust, 3, 3);
}

TEST(ConsensusEngine, FastPaxosLeaderDecisionsAreFastPath) {
  EngineWorld w(Kind::kFastPaxos, 3, 0);
  bool fast = false;
  w.exec.spawn([](ConsensusEngine* e, bool* fast) -> Task<void> {
    const Decision d = co_await e->propose(0, to_bytes("v"));
    *fast = d.fast;
  }(w.engines[0].get(), &fast));
  w.exec.run_until([&] { return fast; }, 100000);
  EXPECT_TRUE(fast) << "p1's term 0 should report the fast path";
}

TEST(ConsensusEngine, FastRobustStreamsTheCheapQuorumDecision) {
  // Fast & Robust answers at the Cheap Quorum decision: p1's decision stream
  // yields slot 0 at t = 2, on the fast path, without waiting for a backup
  // that nobody's panic calls for.
  EngineWorld w(Kind::kFastRobust, 3, 3);
  std::optional<SlotDecision> first;
  sim::Time streamed_at = 0;
  w.exec.spawn([](EngineWorld* w, std::optional<SlotDecision>* first,
                  sim::Time* at) -> Task<void> {
    *first = co_await w->engines[0]->decisions().recv();
    *at = w->exec.now();
  }(&w, &first, &streamed_at));
  for (ProcessId p : all_processes(3)) {
    w.propose(p, 0, "from-p" + std::to_string(p));
  }
  w.exec.run_until([&] { return first.has_value(); }, 100000);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->slot, 0u);
  EXPECT_EQ(to_string(first->decision.value), "from-p1");
  EXPECT_TRUE(first->decision.fast);
  EXPECT_EQ(first->decision.decided_at, 2u);
  EXPECT_EQ(streamed_at, 2u);
}

TEST(ConsensusEngine, SlotsAreIndependentInstances) {
  // Different slots decide different values; a slot proposed twice resolves
  // both proposals with the same (first) decision.
  EngineWorld w(Kind::kFastPaxos, 3, 0);
  std::vector<std::string> got;
  w.exec.spawn([](ConsensusEngine* e, std::vector<std::string>* got) -> Task<void> {
    const Decision a = co_await e->propose(7, to_bytes("first"));
    got->push_back(to_string(a.value));
    const Decision b = co_await e->propose(7, to_bytes("second"));
    got->push_back(to_string(b.value));
    const Decision c = co_await e->propose(8, to_bytes("other"));
    got->push_back(to_string(c.value));
  }(w.engines[0].get(), &got));
  w.exec.run_until([&] { return got.size() == 3; }, 100000);
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0], "first");
  EXPECT_EQ(got[1], "first");  // slot 7 already decided
  EXPECT_EQ(got[2], "other");  // slot 8 is a fresh instance
}

TEST(ConsensusEngine, DiscoveryOpensOnlyHeardSlots) {
  // A follower opens the slots it hears a frame for, not every slot below
  // them: a replica that rejoins a long-running group and first hears slot
  // 700 builds one instance. A late first frame below the horizon still
  // opens its slot, so frames for 5 and then 4 open both.
  EngineWorld w(Kind::kFastPaxos, 3, 0);
  const auto inject = [&](ProcessId dst, Slot s) {
    const PaxosMsg m{PaxosKind::kPrepare, /*ballot=*/1000, 0, false, {}};
    w.network.send(1, dst, /*tag=*/100, SlotTransportHub::frame(s, m.encode()));
    w.exec.run();
  };
  ConsensusEngine& p2 = *w.engines[1];
  inject(2, 700);
  EXPECT_EQ(p2.instances_held(), 1u);
  EXPECT_EQ(p2.subs_held(), 1u);
  EXPECT_EQ(p2.slot_horizon(), 701u);

  ConsensusEngine& p3 = *w.engines[2];
  inject(3, 5);
  EXPECT_EQ(p3.instances_held(), 1u);
  inject(3, 4);
  EXPECT_EQ(p3.instances_held(), 2u);
  EXPECT_EQ(p3.subs_held(), 2u);
  EXPECT_EQ(p3.slot_horizon(), 6u);
}

TEST(SlotTransportHub, OversizedSlotIdsAreDropped) {
  // A malformed frame claiming an absurd slot id must create no sub and
  // list nothing for discovery (learners would open unbounded state).
  sim::Executor exec;
  net::Network network(exec, 2);
  NetTransport t1(exec, network, 1, /*tag=*/5);
  NetTransport t2(exec, network, 2, /*tag=*/5);
  SlotTransportHub hub(exec, t2);
  hub.start();
  (void)hub.slot(0);  // a local open: a sub, but nothing heard
  // p1 sends a frame for an enormous slot id and a well-formed one.
  t1.send(2, SlotTransportHub::frame(Slot{1} << 40, to_bytes("x")));
  t1.send(2, SlotTransportHub::frame(3, to_bytes("y")));
  exec.run();
  std::vector<Slot> heard;
  hub.take_heard(heard);
  EXPECT_EQ(heard, std::vector<Slot>{3});  // slot 3 heard; 2^40 dropped
  EXPECT_EQ(hub.subs_held(), 2u);           // slots 0 and 3
  EXPECT_EQ(hub.heard().version(), 1u);     // bumped by slot 3's sub alone

  // The guard rides the retirement floor, so a long-running group never
  // reaches it. With an 8-slot guard and the floor at 100, frames below 100
  // and from 108 up are dropped, and one in between is delivered.
  constexpr Slot kGuard = 8;
  NetTransport u1(exec, network, 1, /*tag=*/6);
  NetTransport u2(exec, network, 2, /*tag=*/6);
  SlotTransportHub small(exec, u2, kGuard);
  small.start();
  small.retire_below(100);
  u1.send(2, SlotTransportHub::frame(99, to_bytes("retired")));
  u1.send(2, SlotTransportHub::frame(100 + kGuard, to_bytes("too far")));
  u1.send(2, SlotTransportHub::frame(105, to_bytes("in between")));
  exec.run();
  small.take_heard(heard);
  EXPECT_EQ(heard, std::vector<Slot>{105});
  EXPECT_EQ(small.subs_held(), 1u);  // no sub for either dropped frame
  sim::Channel<TMsg>& in = small.slot(105).incoming();
  ASSERT_EQ(in.size(), 1u);
  EXPECT_EQ(to_string(in.try_recv()->payload), "in between");
}

TEST(ConsensusEngine, RetiredSlotNeverReopens) {
  // A fresh acceptor at a retired slot could accept a second value, so
  // traffic for a slot below the floor must find nothing to answer it: no
  // PROMISE or ACCEPTED, no new instance or sub, no horizon move.
  EngineWorld w(Kind::kFastPaxos, 3, 0);
  w.start_collectors();
  for (Slot s = 0; s < 4; ++s) w.propose(1, s, "v" + std::to_string(s));
  w.exec.run_until([&] { return w.all_decided(4); }, 100000);
  ASSERT_TRUE(w.all_decided(4));
  w.exec.run();  // let the DECIDE broadcasts drain

  ConsensusEngine& p2 = *w.engines[1];
  EXPECT_EQ(p2.instances_held(), 4u);
  EXPECT_EQ(p2.subs_held(), 4u);
  p2.retire_below(3);
  EXPECT_EQ(p2.instances_held(), 1u);
  EXPECT_EQ(p2.subs_held(), 1u);
  p2.open_slot(1);  // below the floor: a no-op
  EXPECT_EQ(p2.instances_held(), 1u);

  const Slot horizon = p2.slot_horizon();
  const std::uint64_t sent = w.network.messages_sent();
  const auto inject = [&](Slot s, PaxosKind kind) {
    const PaxosMsg m{kind, /*ballot=*/1000, 0, kind == PaxosKind::kAccept,
                     to_bytes("second value")};
    w.network.send(3, 2, /*tag=*/100, SlotTransportHub::frame(s, m.encode()));
  };
  inject(1, PaxosKind::kPrepare);
  inject(1, PaxosKind::kAccept);
  w.exec.run();
  EXPECT_EQ(w.network.messages_sent(), sent + 2);  // ours, and no answer
  EXPECT_EQ(p2.instances_held(), 1u);
  EXPECT_EQ(p2.subs_held(), 1u);
  EXPECT_EQ(p2.slot_horizon(), horizon);
  EXPECT_EQ(w.decided[1].size(), 4u);

  // Control: the same PREPARE at a live slot is answered with a PROMISE.
  inject(3, PaxosKind::kPrepare);
  w.exec.run();
  EXPECT_EQ(w.network.messages_sent(), sent + 4);

  // A term PREPARE asking from slot 0 is answered with one PROMISE (which
  // reports from the floor up) and reopens nothing below the floor.
  w.network.send(3, 2, /*tag=*/100,
                 SlotTransportHub::frame(
                     SlotTransportHub::kTermSlot,
                     PaxosTermMsg{PaxosTermKind::kPrepare, 2000, 0, {}}
                         .encode()));
  w.exec.run();
  EXPECT_EQ(w.network.messages_sent(), sent + 6);
  EXPECT_EQ(p2.instances_held(), 1u);
  EXPECT_EQ(p2.subs_held(), 1u);
  EXPECT_EQ(p2.slot_horizon(), horizon);
  EXPECT_EQ(static_cast<PaxosEngine&>(p2).term()->promised(), 2000u);
  EXPECT_EQ(w.decided[1].size(), 4u);
}

// --- Leader terms (Fast Paxos): one phase 1 per leader, not per slot. ---

/// Three Fast Paxos engines on tag 100 under a scripted Ω: lead(p) moves the
/// leader and pokes, as the harness does at a fault.
struct TermWorld {
  TermWorld() : network(exec, 3), omega(exec, [this](sim::Time) { return leader; }, true) {
    pc.leader_terms = true;
    for (ProcessId p : all_processes(3)) {
      transports.push_back(nullptr);
      engines.push_back(nullptr);
      incarnate(p);
    }
  }

  /// A fresh incarnation of p over a fresh transport (the rejoin path); the
  /// old one is kept, severed, as the harness keeps crashed incarnations.
  void incarnate(ProcessId p) {
    if (transports[p - 1] != nullptr) {
      transports[p - 1]->sever();
      retired.push_back(std::move(transports[p - 1]));
      retired_engines.push_back(std::move(engines[p - 1]));
    }
    transports[p - 1] =
        std::make_unique<NetTransport>(exec, network, p, /*tag=*/100);
    engines[p - 1] =
        std::make_unique<PaxosEngine>(exec, *transports[p - 1], omega, pc);
    engines[p - 1]->start();
  }

  void lead(ProcessId p) {
    leader = p;
    omega.poke();
  }

  const PaxosTerm& term(ProcessId p) const { return *engines[p - 1]->term(); }

  /// p proposes v for slot s; the decision lands in `out`.
  void propose(ProcessId p, Slot s, const std::string& v,
               std::optional<Decision>* out) {
    exec.spawn([](ConsensusEngine* e, Slot s, Bytes v,
                  std::optional<Decision>* out) -> Task<void> {
      *out = co_await e->propose(s, std::move(v));
    }(engines[p - 1].get(), s, to_bytes(v), out));
  }

  Decision decide(ProcessId p, Slot s, const std::string& v) {
    std::optional<Decision> d;
    propose(p, s, v, &d);
    exec.run_until([&] { return d.has_value(); }, exec.now() + 10000);
    EXPECT_TRUE(d.has_value()) << "slot " << s << " undecided";
    return d.value_or(Decision{});
  }

  /// Deliver `m` on p_from's term frame to each of `to`.
  void send_term(ProcessId from, std::vector<ProcessId> to,
                 const PaxosTermMsg& m) {
    for (ProcessId dst : to) {
      network.send(from, dst, /*tag=*/100,
                   SlotTransportHub::frame(SlotTransportHub::kTermSlot,
                                           m.encode()));
    }
  }

  Executor exec;
  net::Network network;
  ProcessId leader = kLeaderP1;
  Omega omega;
  PaxosConfig pc;
  std::vector<std::unique_ptr<NetTransport>> transports;  // index p - 1
  std::vector<std::unique_ptr<PaxosEngine>> engines;
  std::vector<std::unique_ptr<NetTransport>> retired;
  std::vector<std::unique_ptr<PaxosEngine>> retired_engines;
};

TEST(LeaderTerm, NewTermAdoptsAValueAMinorityAccepted) {
  // p1 got "minority" accepted at ballot 0 by p3 alone, then went silent.
  // p2's term PREPARE reaches p2 and p3 only, so p3's PROMISE must carry
  // the pair and p2 must propose it, not its own value. The next slot then
  // runs phase 2 alone: decided 2 delays after its propose, fast, with no
  // second PREPARE.
  TermWorld w;
  w.transports[0]->sever();  // p1 silent from here on
  w.network.send(1, 3, /*tag=*/100,
                 SlotTransportHub::frame(
                     0, PaxosMsg{PaxosKind::kAccept, 0, 0, true,
                                 to_bytes("minority")}
                            .encode()));
  w.exec.run();
  w.lead(2);
  const Decision d0 = w.decide(2, 0, "p2-value");
  EXPECT_EQ(to_string(d0.value), "minority");
  EXPECT_FALSE(d0.fast);  // this round waited for the term's phase 1
  ASSERT_TRUE(w.term(2).ballot().has_value());
  EXPECT_EQ(*w.term(2).ballot(), 4u);  // p2's first ballot above 0
  EXPECT_EQ(w.term(2).prepares_sent(), 1u);

  const sim::Time start = w.exec.now();
  const Decision d1 = w.decide(2, 1, "p2-next");
  EXPECT_EQ(to_string(d1.value), "p2-next");
  EXPECT_TRUE(d1.fast);
  EXPECT_EQ(d1.decided_at, start + 2);
  EXPECT_EQ(w.term(2).prepares_sent(), 1u);
}

TEST(LeaderTerm, NackEndsTheTermAndTheLeaderReestablishesAbove) {
  // p2 holds term 4. A rival's term PREPARE at ballot 8 (p3's) raises every
  // acceptor's group promise, so p2's next ACCEPT at 4 is NACKed: the term
  // ends, and p2's retry establishes term 10, above the NACKed promise.
  TermWorld w;
  w.lead(2);
  EXPECT_EQ(to_string(w.decide(2, 0, "a").value), "a");
  EXPECT_EQ(*w.term(2).ballot(), 4u);

  w.send_term(3, {1, 2, 3}, PaxosTermMsg{PaxosTermKind::kPrepare, 8, 0, {}});
  w.exec.run();
  EXPECT_EQ(w.term(1).promised(), 8u);
  EXPECT_EQ(*w.term(2).ballot(), 4u);  // nothing told p2 yet

  const Decision d = w.decide(2, 1, "b");
  EXPECT_EQ(to_string(d.value), "b");
  EXPECT_FALSE(d.fast);
  ASSERT_TRUE(w.term(2).ballot().has_value());
  EXPECT_EQ(*w.term(2).ballot(), 10u);
  EXPECT_EQ(w.term(2).prepares_sent(), 2u);
  EXPECT_EQ(w.term(3).promised(), 10u);
}

TEST(LeaderTerm, RejoinedP1IsRefusedAtBallotZeroThenEstablishesItsOwnTerm) {
  // p2 leads while p1 is away and holds term 4 at every acceptor. p1 comes
  // back as a fresh incarnation, which holds term 0 — the implicit promise
  // of ballot 0 — and leads: its ballot-0 ACCEPT is refused under p2's
  // term promise, the term ends, and p1 establishes term 6.
  TermWorld w;
  w.lead(2);
  EXPECT_EQ(to_string(w.decide(2, 0, "from-p2").value), "from-p2");
  EXPECT_EQ(w.term(1).promised(), 4u);

  w.incarnate(1);
  ASSERT_TRUE(w.term(1).ballot().has_value());
  EXPECT_EQ(*w.term(1).ballot(), 0u);  // term 0, held from the start
  w.lead(1);
  const sim::Time start = w.exec.now();
  const Decision d = w.decide(1, 1, "from-p1");
  EXPECT_EQ(to_string(d.value), "from-p1");
  EXPECT_FALSE(d.fast);
  // NACKed after 2 delays; the round whose term ended retries at once,
  // with no backoff: PREPARE / PROMISE, then ACCEPT / ACCEPTED.
  EXPECT_EQ(d.decided_at, start + 2 + 4);
  ASSERT_TRUE(w.term(1).ballot().has_value());
  EXPECT_EQ(*w.term(1).ballot(), 6u);
  EXPECT_EQ(w.term(1).prepares_sent(), 1u);
  EXPECT_EQ(w.term(2).promised(), 6u);
  // p1's next slot runs under its own term: 2 delays, fast.
  const sim::Time next = w.exec.now();
  const Decision d2 = w.decide(1, 2, "again");
  EXPECT_TRUE(d2.fast);
  EXPECT_EQ(d2.decided_at, next + 2);
}

TEST(ConsensusEngine, SlowMemoryStragglerOutlivesItsRetiredInstance) {
  // Disk Paxos decides on two memories' verifying scans while the third,
  // slow memory's scan straggles on past the slot's retirement. Resuming
  // after its write, the straggler must not touch the destroyed instance
  // (the sanitizer build catches it if it does). Both engines retire the
  // slot, so the pool destroys its region first: the slow write lands on a
  // destroyed region and naks, and the scan ends there.
  constexpr sim::Time kSlow = 100;
  EngineWorld w(Kind::kDiskPaxos, 2, 3, kSlow);
  w.start_collectors();
  w.propose(1, 0, "v0");
  w.exec.run_until([&] { return w.all_decided(1); }, 1000);
  ASSERT_TRUE(w.all_decided(1));
  ASSERT_LT(w.exec.now(), kSlow / 2);  // the slow write has not landed yet
  for (auto& e : w.engines) e->retire_below(1);
  EXPECT_EQ(w.engines[0]->instances_held(), 0u);
  EXPECT_EQ(w.regions->held(), 0u);
  w.exec.run();
  EXPECT_EQ(w.memories[2]->writes(), 0u);
  EXPECT_EQ(w.memories[2]->naks(), 1u);
  EXPECT_EQ(w.memories[2]->read_batches(), 0u);
}

/// The registers a memory of either backend holds.
std::size_t held_registers(mem::Memory& m) { return m.registers_held(); }
std::size_t held_registers(verbs::VerbsMemory& m) {
  return m.device().registers_held();
}

/// `kind` over three memories of either backend: p1 decides kSlots slots
/// one at a time, and every replica retires a window behind each, as
/// smr::Log does. Every memory must end holding the last window's regions
/// and registers alone.
void long_run_holds_one_window(Kind kind, std::size_t n, bool verbs) {
  constexpr Slot kSlots = 4096;
  constexpr Slot kWindow = 4;
  EngineWorld w(kind, n, 3, sim::kMemoryOpDelay, verbs);
  w.start_collectors();
  std::size_t per_slot = 0;  // registers one slot leaves on a memory
  for (Slot s = 0; s < kSlots; ++s) {
    w.propose(1, s, "v" + std::to_string(s));
    w.exec.run();
    if (s == 0) w.for_each_memory([&](auto& m) { per_slot = held_registers(m); });
    if (s + 1 >= kWindow) {
      for (auto& e : w.engines) e->retire_below(s + 1 - kWindow);
    }
  }
  ASSERT_TRUE(w.all_decided(kSlots));
  ASSERT_GT(per_slot, 0u);
  EXPECT_EQ(w.regions->held(), kWindow);
  EXPECT_EQ(w.regions->floor(), kSlots - kWindow);
  w.for_each_memory([&](auto& m) {
    EXPECT_EQ(m.regions_held(), kWindow);
    EXPECT_EQ(held_registers(m), kWindow * per_slot);
  });
  for (auto& m : w.verbs_memories) {
    // One registration per process the region's permission names.
    EXPECT_EQ(m->device().mrs_held(), kWindow * n);
  }
}

TEST(ConsensusEngine, LongRunHoldsOneWindowOnEveryMemory) {
  for (const bool verbs : {false, true}) {
    SCOPED_TRACE(verbs ? "verbs" : "mem");
    long_run_holds_one_window(Kind::kDiskPaxos, 2, verbs);
    long_run_holds_one_window(Kind::kPmp, 2, verbs);
    long_run_holds_one_window(Kind::kAligned, 3, verbs);
  }
}

}  // namespace
}  // namespace mnm::core
