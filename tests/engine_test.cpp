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
#include <string>
#include <vector>

#include "src/core/engine.hpp"
#include "src/core/omega.hpp"
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

enum class Kind {
  kPaxos,
  kFastPaxos,
  kDiskPaxos,
  kPmp,
  kAligned,
  kCheapQuorum,
  kFastRobust,
};

/// Minimal cluster: n processes, m memories, one engine per process over one
/// NetTransport (message engines) or the shared memories (Byzantine engines).
struct EngineWorld {
  EngineWorld(Kind kind, std::size_t n, std::size_t m)
      : n(n),
        network(exec, n),
        omega(Omega::fixed(exec, kLeaderP1)),
        keystore(99) {
    for (std::size_t i = 0; i < m; ++i) {
      memories.push_back(
          std::make_unique<mem::Memory>(exec, static_cast<MemoryId>(i + 1)));
      ifc.push_back(memories.back().get());
    }
    for (ProcessId p : all_processes(n)) {
      signers.push_back(keystore.register_process(p));
    }

    switch (kind) {
      case Kind::kPaxos:
      case Kind::kFastPaxos: {
        PaxosConfig pc;
        pc.n = n;
        pc.skip_phase1_for_p1 = (kind == Kind::kFastPaxos);
        for (ProcessId p : all_processes(n)) {
          transports.push_back(
              std::make_unique<NetTransport>(exec, network, p, /*tag=*/100));
          engines.push_back(std::make_unique<PaxosEngine>(
              exec, *transports.back(), omega, pc));
        }
        break;
      }
      case Kind::kDiskPaxos: {
        auto pool = std::make_shared<SlotRegions<RegionId>>([this](Slot s) {
          RegionId region = 0;
          for (auto& mp : memories) {
            region = make_disk_region(*mp, this->n, slot_ns(s, "dp"));
          }
          return region;
        });
        DiskPaxosConfig dc;
        dc.n = n;
        for (ProcessId p : all_processes(n)) {
          transports.push_back(
              std::make_unique<NetTransport>(exec, network, p, /*tag=*/910));
          engines.push_back(std::make_unique<DiskPaxosEngine>(
              exec, ifc, *transports.back(), omega, pool, dc));
        }
        break;
      }
      case Kind::kPmp:
      case Kind::kAligned: {
        auto pool = std::make_shared<SlotRegions<RegionId>>([this](Slot s) {
          RegionId region = 0;
          for (auto& mp : memories) {
            region = make_pmp_region(*mp, this->n, kLeaderP1, slot_ns(s, "pmp"));
          }
          return region;
        });
        for (ProcessId p : all_processes(n)) {
          transports.push_back(
              std::make_unique<NetTransport>(exec, network, p, /*tag=*/920));
          if (kind == Kind::kAligned) {
            AlignedPaxosConfig ac;
            ac.n = n;
            engines.push_back(std::make_unique<AlignedEngine>(
                exec, ifc, *transports.back(), omega, pool, ac));
          } else {
            PmpConfig pc;
            pc.n = n;
            engines.push_back(std::make_unique<PmpEngine>(
                exec, ifc, *transports.back(), omega, pool, pc));
          }
        }
        break;
      }
      case Kind::kCheapQuorum: {
        auto pool =
            std::make_shared<SlotRegions<CheapQuorumRegions>>([this](Slot s) {
              CheapQuorumRegions out;
              for (auto& mp : memories) {
                out = make_cq_regions(*mp, this->n, kLeaderP1, slot_ns(s, "cq"),
                                      mp->new_scope());
              }
              return out;
            });
        CheapQuorumConfig cc;
        cc.n = n;
        cc.timeout = 120;
        for (ProcessId p : all_processes(n)) {
          engines.push_back(std::make_unique<CheapQuorumEngine>(
              exec, ifc, pool, keystore, signers[p - 1], cc));
        }
        break;
      }
      case Kind::kFastRobust: {
        auto pool = std::make_shared<SlotRegions<FastRobustSlotRegions>>(
            [this](Slot s) {
              FastRobustSlotRegions out;
              for (auto& mp : memories) {
                out = make_fast_robust_slot_regions(*mp, this->n, s);
              }
              return out;
            });
        FastRobustConfig fc;
        fc.n = n;
        fc.f = (n - 1) / 2;
        fc.cheap.n = n;
        fc.neb.n = n;
        fc.paxos.n = n;
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
  std::vector<mem::MemoryIface*> ifc;
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
  for (Slot s = 0; s < 2; ++s) {
    const std::string& winner = w.decided[0].at(s);
    EXPECT_TRUE(winner.rfind("s" + std::to_string(s) + "-from-p", 0) == 0)
        << winner;
    for (ProcessId p : all_processes(n)) {
      EXPECT_EQ(w.decided[p - 1].at(s), winner) << "p" << p << " slot " << s;
    }
  }
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

TEST(ConsensusEngine, CheapQuorumTwoSlots) {
  all_propose_roundtrip(Kind::kCheapQuorum, 3, 3);
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
  EXPECT_TRUE(fast) << "p1's ballot-0 skip should report the fast path";
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

TEST(ConsensusEngine, CheapQuorumAbortThrowsProposeAborted) {
  // The leader never proposes: followers time out, panic, and abort — the
  // engine surfaces that as ProposeAborted instead of hanging or deciding.
  EngineWorld w(Kind::kCheapQuorum, 3, 3);
  int aborted = 0;
  for (ProcessId p : {ProcessId{2}, ProcessId{3}}) {
    w.exec.spawn([](ConsensusEngine* e, ProcessId p, int* aborted) -> Task<void> {
      try {
        (void)co_await e->propose(0, to_bytes("v" + std::to_string(p)));
      } catch (const ProposeAborted&) {
        ++*aborted;
      }
    }(w.engines[p - 1].get(), p, &aborted));
  }
  w.exec.run_until([&] { return aborted == 2; }, 100000);
  EXPECT_EQ(aborted, 2);
}

TEST(SlotTransportHub, OversizedSlotIdsAreDropped) {
  // A malformed frame claiming an absurd slot id must not inflate the
  // horizon (learners would open unbounded state).
  sim::Executor exec;
  net::Network network(exec, 2);
  NetTransport t1(exec, network, 1, /*tag=*/5);
  NetTransport t2(exec, network, 2, /*tag=*/5);
  SlotTransportHub hub(exec, t2);
  hub.start();
  (void)hub.slot(0);  // open slot 0 so the demux has somewhere to deliver
  // p1 sends a frame for an enormous slot id and a well-formed one.
  t1.send(2, SlotTransportHub::frame(Slot{1} << 40, to_bytes("x")));
  t1.send(2, SlotTransportHub::frame(3, to_bytes("y")));
  exec.run_until([&] { return hub.horizon() >= 4; }, 1000);
  EXPECT_EQ(hub.horizon(), 4u);  // slot 3 heard; 2^40 dropped
}

}  // namespace
}  // namespace mnm::core
