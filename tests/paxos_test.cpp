// Unit tests for classic Paxos over NetTransport (src/core/paxos.*) and the
// Ω oracle.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/core/omega.hpp"
#include "src/core/paxos.hpp"
#include "src/core/transport.hpp"
#include "src/net/network.hpp"
#include "src/sim/executor.hpp"

namespace mnm::core {
namespace {

using sim::Executor;
using sim::Task;
using sim::Time;
using util::to_bytes;
using util::to_string;

TEST(PaxosMsgWire, RoundTrip) {
  PaxosMsg m{PaxosKind::kAccept, 42, 7, true, to_bytes("v")};
  const auto decoded = PaxosMsg::decode(m.encode());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->kind, PaxosKind::kAccept);
  EXPECT_EQ(decoded->ballot, 42u);
  EXPECT_EQ(decoded->acc_ballot, 7u);
  EXPECT_TRUE(decoded->has_value);
  EXPECT_EQ(to_string(decoded->value), "v");
}

TEST(PaxosMsgWire, RejectsMalformed) {
  EXPECT_FALSE(PaxosMsg::decode(to_bytes("")).has_value());
  EXPECT_FALSE(PaxosMsg::decode(to_bytes("\x09garbage")).has_value());
  Bytes truncated = PaxosMsg{PaxosKind::kPrepare, 1, 0, false, {}}.encode();
  truncated.pop_back();
  EXPECT_FALSE(PaxosMsg::decode(truncated).has_value());
  Bytes padded = PaxosMsg{PaxosKind::kPrepare, 1, 0, false, {}}.encode();
  padded.push_back(0);
  EXPECT_FALSE(PaxosMsg::decode(padded).has_value());
}

TEST(OmegaOracle, FixedLeader) {
  Executor exec;
  Omega omega = Omega::fixed(exec, 2);
  EXPECT_EQ(omega.leader(), 2u);
  EXPECT_TRUE(omega.trusts(2));
  EXPECT_FALSE(omega.trusts(1));
}

TEST(OmegaOracle, TimeVaryingLeaderAndWait) {
  // wait_leadership is notification-driven: whoever changes the oracle's
  // inputs pokes Ω, and the waiter wakes at exactly that instant (no
  // per-tick polling).
  Executor exec;
  Omega omega(exec, [](Time t) -> ProcessId { return t < 10 ? 1u : 3u; });
  Time became_leader_at = 0;
  exec.spawn([](Executor& e, Omega& o, Time& at) -> Task<void> {
    co_await o.wait_leadership(3);
    at = e.now();
  }(exec, omega, became_leader_at));
  exec.schedule_at(10, [&omega] { omega.poke(); });
  exec.run(/*until=*/100);
  EXPECT_EQ(became_leader_at, 10u);
}

TEST(OmegaOracle, UnpokedScheduleChangeCaughtByBackoff) {
  // Without a poke the capped-backoff fallback still observes the change,
  // within kBackoffCap ticks of the flip.
  Executor exec;
  Omega omega(exec, [](Time t) -> ProcessId { return t < 10 ? 1u : 3u; });
  Time became_leader_at = 0;
  exec.spawn([](Executor& e, Omega& o, Time& at) -> Task<void> {
    co_await o.wait_leadership(3);
    at = e.now();
  }(exec, omega, became_leader_at));
  exec.run(/*until=*/200);
  EXPECT_GE(became_leader_at, 10u);
  EXPECT_LE(became_leader_at, 10u + Omega::kBackoffCap);
}

struct PaxosCluster {
  explicit PaxosCluster(std::size_t n, bool fast = false,
                        ProcessId fixed_leader = kLeaderP1)
      : n(n), network(exec, n), omega(Omega::fixed(exec, fixed_leader)) {
    PaxosConfig pc;
    pc.n = n;
    pc.skip_phase1_for_p1 = fast;
    for (ProcessId p : all_processes(n)) {
      transports.push_back(std::make_unique<NetTransport>(exec, network, p, 100));
      paxoses.push_back(std::make_unique<Paxos>(exec, *transports.back(), omega, pc));
      paxoses.back()->start();
    }
  }

  void propose_all() {
    for (ProcessId p : all_processes(n)) {
      exec.spawn([](Paxos* px, Bytes v) -> Task<void> {
        (void)co_await px->propose(std::move(v));
      }(paxoses[p - 1].get(), to_bytes("input-" + std::to_string(p))));
    }
  }

  bool all_decided() const {
    for (const auto& px : paxoses) {
      if (!px->decided()) return false;
    }
    return true;
  }

  std::size_t n;
  sim::Executor exec;
  net::Network network;
  Omega omega;
  std::vector<std::unique_ptr<NetTransport>> transports;
  std::vector<std::unique_ptr<Paxos>> paxoses;
};

TEST(Paxos, AllProcessesDecideSameValue) {
  PaxosCluster c(3);
  c.propose_all();
  c.exec.run_until([&] { return c.all_decided(); }, 5000);
  ASSERT_TRUE(c.all_decided());
  const std::string v = to_string(c.paxoses[0]->decision());
  for (const auto& px : c.paxoses) EXPECT_EQ(to_string(px->decision()), v);
  EXPECT_EQ(v, "input-1");  // fixed leader p1 proposes its own input
}

TEST(Paxos, LeaderDecidesInFourDelays) {
  PaxosCluster c(3);
  c.propose_all();
  c.exec.run_until([&] { return c.paxoses[0]->decided(); }, 5000);
  EXPECT_EQ(c.paxoses[0]->decided_at(), 4u);
}

TEST(Paxos, FastVariantDecidesInTwoDelays) {
  PaxosCluster c(3, /*fast=*/true);
  c.propose_all();
  c.exec.run_until([&] { return c.paxoses[0]->decided(); }, 5000);
  EXPECT_EQ(c.paxoses[0]->decided_at(), 2u);
}

TEST(Paxos, NonLeaderEventuallyLeadsWhenOmegaChanges) {
  // Leader is p2 from the start: p1's fast ballot is never used; p2 runs the
  // full two phases.
  PaxosCluster c(3, /*fast=*/false, /*fixed_leader=*/2);
  c.propose_all();
  c.exec.run_until([&] { return c.all_decided(); }, 5000);
  ASSERT_TRUE(c.all_decided());
  EXPECT_EQ(to_string(c.paxoses[0]->decision()), "input-2");
}

TEST(Paxos, FivePaxosScalesAndAgrees) {
  PaxosCluster c(5);
  c.propose_all();
  c.exec.run_until([&] { return c.all_decided(); }, 5000);
  ASSERT_TRUE(c.all_decided());
  const std::string v = to_string(c.paxoses[0]->decision());
  for (const auto& px : c.paxoses) EXPECT_EQ(to_string(px->decision()), v);
}

TEST(Paxos, MalformedMessagesAreIgnored) {
  PaxosCluster c(3);
  // Inject garbage on the Paxos tag before and during the run.
  c.network.broadcast(2, 100, to_bytes("\xff\xff\xff"));
  c.propose_all();
  c.network.broadcast(3, 100, to_bytes(""));
  c.exec.run_until([&] { return c.all_decided(); }, 5000);
  EXPECT_TRUE(c.all_decided());
}

TEST(Paxos, CompetingProposersConverge) {
  // Ω flaps between p1 and p2 before settling on p2: both run rounds; the
  // protocol must still reach a single decision.
  struct Flapping {
    static ProcessId leader(Time t) {
      if (t < 20) return 1;
      if (t < 40) return 2;
      if (t < 60) return 1;
      return 2;
    }
  };
  sim::Executor exec;
  net::Network network(exec, 3);
  Omega omega(exec, [](Time t) { return Flapping::leader(t); });
  PaxosConfig pc;
  pc.n = 3;
  std::vector<std::unique_ptr<NetTransport>> transports;
  std::vector<std::unique_ptr<Paxos>> paxoses;
  for (ProcessId p : all_processes(3)) {
    transports.push_back(std::make_unique<NetTransport>(exec, network, p, 100));
    paxoses.push_back(std::make_unique<Paxos>(exec, *transports.back(), omega, pc));
    paxoses.back()->start();
    exec.spawn([](Paxos* px, Bytes v) -> Task<void> {
      (void)co_await px->propose(std::move(v));
    }(paxoses.back().get(), to_bytes("input-" + std::to_string(p))));
  }
  exec.run_until(
      [&] {
        for (const auto& px : paxoses) {
          if (!px->decided()) return false;
        }
        return true;
      },
      20000);
  ASSERT_TRUE(paxoses[0]->decided());
  const std::string v = to_string(paxoses[0]->decision());
  for (const auto& px : paxoses) {
    ASSERT_TRUE(px->decided());
    EXPECT_EQ(to_string(px->decision()), v);
  }
  EXPECT_TRUE(v == "input-1" || v == "input-2") << v;
}

}  // namespace
}  // namespace mnm::core
