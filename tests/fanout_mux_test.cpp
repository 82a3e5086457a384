// Tests for the quorum fan-out (sim::Fanout), one-shot futures
// (sim::OneShot) and the transport multiplexer — the plumbing under every
// "wait for m − fM of the memories" step and Fast & Robust's two
// conversations over one trusted transport.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/core/transport.hpp"
#include "src/core/transport_mux.hpp"
#include "src/net/network.hpp"
#include "src/sim/executor.hpp"
#include "src/sim/fanout.hpp"
#include "src/sim/oneshot.hpp"

namespace mnm::sim {
namespace {

using util::to_bytes;
using util::to_string;

Task<int> delayed_value(Executor* exec, Time delay, int value) {
  co_await exec->sleep(delay);
  co_return value;
}

Task<int> never(Executor* exec) {
  co_await OneShot<int>(*exec).wait();  // never fulfilled
  co_return -1;
}

TEST(Fanout, CollectsFirstKInCompletionOrder) {
  Executor exec;
  auto fanout = std::make_shared<Fanout<int>>(exec);
  fanout->add(0, delayed_value(&exec, 30, 100));
  fanout->add(1, delayed_value(&exec, 10, 101));
  fanout->add(2, delayed_value(&exec, 20, 102));

  std::vector<std::pair<std::size_t, int>> got;
  exec.spawn([](std::shared_ptr<Fanout<int>> f,
                std::vector<std::pair<std::size_t, int>>* out) -> Task<void> {
    *out = co_await f->collect(2);
  }(fanout, &got));
  exec.run();
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0], (std::pair<std::size_t, int>{1, 101}));
  EXPECT_EQ(got[1], (std::pair<std::size_t, int>{2, 102}));
  EXPECT_EQ(exec.now(), 30u);  // straggler still ran to completion
}

TEST(Fanout, QuorumProceedsDespiteHangingMember) {
  // The m − fM pattern: one "memory" never answers; collect(majority) still
  // completes, and teardown reaps the hung task without issue.
  Executor exec;
  auto fanout = std::make_shared<Fanout<int>>(exec);
  fanout->add(0, delayed_value(&exec, 5, 0));
  fanout->add(1, never(&exec));
  fanout->add(2, delayed_value(&exec, 7, 2));

  std::size_t got = 0;
  exec.spawn([](std::shared_ptr<Fanout<int>> f, std::size_t* n) -> Task<void> {
    auto v = co_await f->collect(2);
    *n = v.size();
  }(fanout, &got));
  exec.run(1000);
  EXPECT_EQ(got, 2u);
}

TEST(Fanout, RepeatedCollectDrainsStragglers) {
  Executor exec;
  auto fanout = std::make_shared<Fanout<int>>(exec);
  for (std::size_t i = 0; i < 4; ++i) {
    fanout->add(i, delayed_value(&exec, (i + 1) * 10, static_cast<int>(i)));
  }
  std::vector<std::size_t> sizes;
  exec.spawn([](std::shared_ptr<Fanout<int>> f,
                std::vector<std::size_t>* sizes) -> Task<void> {
    sizes->push_back((co_await f->collect(2)).size());
    sizes->push_back((co_await f->collect(2)).size());  // the remaining two
  }(fanout, &sizes));
  exec.run();
  EXPECT_EQ(sizes, (std::vector<std::size_t>{2, 2}));
}

TEST(OneShot, FulfillBeforeWaitReturnsImmediately) {
  Executor exec;
  OneShot<int> shot(exec);
  shot.fulfill(7);
  int got = 0;
  Time at = 99;
  exec.spawn([](Executor* e, OneShot<int> s, int* got, Time* at) -> Task<void> {
    *got = co_await s.wait();
    *at = e->now();
  }(&exec, shot, &got, &at));
  exec.run();
  EXPECT_EQ(got, 7);
  EXPECT_EQ(at, 0u);
}

TEST(OneShot, SecondFulfillIgnored) {
  Executor exec;
  OneShot<int> shot(exec);
  shot.fulfill(1);
  shot.fulfill(2);
  int got = 0;
  exec.spawn([](OneShot<int> s, int* got) -> Task<void> {
    *got = co_await s.wait();
  }(shot, &got));
  exec.run();
  EXPECT_EQ(got, 1);
}

}  // namespace
}  // namespace mnm::sim

namespace mnm::core {
namespace {

using sim::Executor;
using sim::Task;
using util::to_bytes;
using util::to_string;

TEST(TransportMux, RoutesByTag) {
  Executor exec;
  net::Network network(exec, 2);
  NetTransport base1(exec, network, 1, 50);
  NetTransport base2(exec, network, 2, 50);
  TransportMux mux1(exec, base1);
  TransportMux mux2(exec, base2);
  Transport& paxos2 = mux2.sub(kMuxPaxos);
  Transport& setup2 = mux2.sub(kMuxSetup);
  mux1.start();
  mux2.start();

  mux1.sub(kMuxPaxos).send(2, to_bytes("ballot"));
  mux1.sub(kMuxSetup).send(2, to_bytes("input"));

  std::string got_paxos, got_setup;
  exec.spawn([](Transport* t, std::string* out) -> Task<void> {
    TMsg m = co_await t->incoming().recv();
    *out = to_string(m.payload);
  }(&paxos2, &got_paxos));
  exec.spawn([](Transport* t, std::string* out) -> Task<void> {
    TMsg m = co_await t->incoming().recv();
    *out = to_string(m.payload);
  }(&setup2, &got_setup));
  exec.run(100);
  EXPECT_EQ(got_paxos, "ballot");  // tag stripped
  EXPECT_EQ(got_setup, "input");
}

TEST(TransportMux, UnknownTagsDropped) {
  Executor exec;
  net::Network network(exec, 2);
  NetTransport base1(exec, network, 1, 50);
  NetTransport base2(exec, network, 2, 50);
  TransportMux mux2(exec, base2);
  Transport& paxos2 = mux2.sub(kMuxPaxos);
  mux2.start();

  base1.send(2, TransportMux::frame(0x7F, to_bytes("mystery")));
  base1.send(2, {});  // empty payload
  base1.send(2, TransportMux::frame(kMuxPaxos, to_bytes("real")));

  std::string got;
  exec.spawn([](Transport* t, std::string* out) -> Task<void> {
    TMsg m = co_await t->incoming().recv();
    *out = to_string(m.payload);
  }(&paxos2, &got));
  exec.run(100);
  EXPECT_EQ(got, "real");
  EXPECT_TRUE(paxos2.incoming().empty());
}

TEST(TransportMux, SendAllFramesEveryCopy) {
  Executor exec;
  net::Network network(exec, 3);
  std::vector<std::unique_ptr<NetTransport>> bases;
  std::vector<std::unique_ptr<TransportMux>> muxes;
  for (ProcessId p : all_processes(3)) {
    bases.push_back(std::make_unique<NetTransport>(exec, network, p, 50));
    muxes.push_back(std::make_unique<TransportMux>(exec, *bases.back()));
    (void)muxes.back()->sub(kMuxSetup);
    muxes.back()->start();
  }
  muxes[0]->sub(kMuxSetup).send_all(to_bytes("hello"));
  int received = 0;
  for (ProcessId p : all_processes(3)) {
    exec.spawn([](Transport* t, int* n) -> Task<void> {
      (void)co_await t->incoming().recv();
      ++*n;
    }(&muxes[p - 1]->sub(kMuxSetup), &received));
  }
  exec.run(100);
  EXPECT_EQ(received, 3);
}

}  // namespace
}  // namespace mnm::core
