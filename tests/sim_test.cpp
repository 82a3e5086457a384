// Tests for the virtual-time coroutine simulator (src/sim).

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "src/sim/channel.hpp"
#include "src/sim/executor.hpp"
#include "src/sim/rng.hpp"
#include "src/sim/sync.hpp"
#include "src/sim/task.hpp"

namespace mnm::sim {
namespace {

TEST(Executor, StartsAtTimeZero) {
  Executor exec;
  EXPECT_EQ(exec.now(), 0u);
}

TEST(Executor, RunsCallbacksInTimeOrder) {
  Executor exec;
  std::vector<int> order;
  exec.call_at(5, [&] { order.push_back(5); });
  exec.call_at(1, [&] { order.push_back(1); });
  exec.call_at(3, [&] { order.push_back(3); });
  exec.run();
  EXPECT_EQ(order, (std::vector<int>{1, 3, 5}));
  EXPECT_EQ(exec.now(), 5u);
}

TEST(Executor, TiesBreakByInsertionOrder) {
  Executor exec;
  std::vector<int> order;
  exec.call_at(2, [&] { order.push_back(0); });
  exec.call_at(2, [&] { order.push_back(1); });
  exec.call_at(2, [&] { order.push_back(2); });
  exec.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(Executor, CancelledTimerDoesNotFire) {
  Executor exec;
  bool fired = false;
  TimerHandle h = exec.call_at(3, [&] { fired = true; });
  h.cancel();
  exec.run();
  EXPECT_FALSE(fired);
}

TEST(Executor, RunUntilStopsAtHorizon) {
  Executor exec;
  int fired = 0;
  exec.call_at(1, [&] { ++fired; });
  exec.call_at(10, [&] { ++fired; });
  exec.run(/*until=*/5);
  EXPECT_EQ(fired, 1);
  exec.run();
  EXPECT_EQ(fired, 2);
}

TEST(Executor, RunUntilPredicate) {
  Executor exec;
  int counter = 0;
  for (Time t = 1; t <= 10; ++t) exec.call_at(t, [&] { ++counter; });
  const bool reached = exec.run_until([&] { return counter == 4; });
  EXPECT_TRUE(reached);
  EXPECT_EQ(counter, 4);
  EXPECT_EQ(exec.now(), 4u);
}

TEST(Task, SleepAdvancesVirtualTime) {
  Executor exec;
  Time woke_at = 0;
  exec.spawn([](Executor& e, Time& woke) -> Task<void> {
    co_await e.sleep(7);
    woke = e.now();
  }(exec, woke_at));
  exec.run();
  EXPECT_EQ(woke_at, 7u);
}

TEST(Task, NestedAwaitPropagatesValue) {
  Executor exec;
  int result = 0;

  auto inner = [](Executor& e) -> Task<int> {
    co_await e.sleep(2);
    co_return 21;
  };
  exec.spawn([](Executor& e, auto inner, int& result) -> Task<void> {
    const int a = co_await inner(e);
    const int b = co_await inner(e);
    result = a + b;
  }(exec, inner, result));

  exec.run();
  EXPECT_EQ(result, 42);
  EXPECT_EQ(exec.now(), 4u);
}

TEST(Task, ExceptionPropagatesAcrossAwait) {
  Executor exec;
  bool caught = false;

  auto thrower = [](Executor& e) -> Task<int> {
    co_await e.sleep(1);
    throw std::runtime_error("boom");
  };
  exec.spawn([](Executor& e, auto thrower, bool& caught) -> Task<void> {
    try {
      (void)co_await thrower(e);
    } catch (const std::runtime_error&) {
      caught = true;
    }
  }(exec, thrower, caught));

  exec.run();
  EXPECT_TRUE(caught);
}

TEST(Task, SuspendedRootsAreReapedSafelyAtTeardown) {
  // A coroutine suspended forever (awaiting a sleep beyond the horizon)
  // must be destroyed cleanly when the executor dies; ASAN would flag
  // leaks/double-frees here.
  auto exec = std::make_unique<Executor>();
  exec->spawn([](Executor& e) -> Task<void> {
    co_await e.sleep(kTimeInfinity - 1);
  }(*exec));
  exec->run(/*until=*/10);
  EXPECT_EQ(exec->live_roots(), 1u);
  exec.reset();  // must not crash or leak
}

Task<void> recv_forever(Channel<int>& ch, int* got) {
  while (true) *got = co_await ch.recv();
}

TEST(OwnedRoot, ResetDestroysASuspendedRootInPlace) {
  // A value already handed to the waiter (its resume event queued) is
  // dropped with the frame: the queued event finds the waiter dead.
  Executor exec;
  Channel<int> ch(exec);
  int got = 0;
  OwnedRoot reader;
  exec.spawn(recv_forever(ch, &got), reader);
  exec.run();
  ch.send(1);
  exec.run();
  EXPECT_EQ(got, 1);
  EXPECT_EQ(exec.live_roots(), 1u);
  ch.send(2);
  const std::size_t events = exec.events_processed();
  reader.reset();
  EXPECT_FALSE(reader.active());
  EXPECT_EQ(exec.live_roots(), 0u);
  exec.run();
  EXPECT_EQ(got, 1);
  EXPECT_EQ(exec.events_processed(), events + 1);  // the stale wake-up only
  ch.send(3);
  exec.run();
  EXPECT_EQ(got, 1);
  EXPECT_EQ(ch.size(), 1u);  // queued: nobody receives any more
}

TEST(OwnedRoot, ResetBeforeTheFirstResumeLeavesNoEvent) {
  Executor exec;
  Channel<int> ch(exec);
  int got = 0;
  {
    OwnedRoot reader;
    exec.spawn(recv_forever(ch, &got), reader);
  }  // destroyed before its start event ran
  EXPECT_EQ(exec.run(), 0u);
  EXPECT_EQ(exec.live_roots(), 0u);
}

TEST(OwnedRoot, FinishedRootIsReapedAndTheHandleEmpties) {
  Executor exec;
  OwnedRoot root;
  exec.spawn([](Executor& e) -> Task<void> { co_await e.sleep(1); }(exec),
             root);
  EXPECT_TRUE(root.active());
  exec.run();  // run() reaps finished roots on exit
  EXPECT_FALSE(root.active());
  root.reset();  // a no-op now
  EXPECT_EQ(exec.live_roots(), 0u);
}

TEST(OwnedRoot, ExecutorTeardownEmptiesTheHandle) {
  OwnedRoot reader;  // outlives the executor
  int got = 0;
  {
    Executor exec;
    Channel<int> ch(exec);
    exec.spawn(recv_forever(ch, &got), reader);
    exec.run();
    EXPECT_TRUE(reader.active());
  }
  EXPECT_FALSE(reader.active());  // ~OwnedRoot must not touch the executor
}

TEST(OwnedRoot, ResetLeavesOtherRootsRunning) {
  // Roots spawned around the destroyed one keep their places: the root list
  // closes the gap at the next reap.
  Executor exec;
  Channel<int> a(exec);
  Channel<int> b(exec);
  int got_a = 0;
  int got_b = 0;
  exec.spawn(recv_forever(a, &got_a));
  OwnedRoot middle;
  int got_m = 0;
  Channel<int> m(exec);
  exec.spawn(recv_forever(m, &got_m), middle);
  OwnedRoot last;
  exec.spawn(recv_forever(b, &got_b), last);
  exec.run();
  middle.reset();
  a.send(1);
  b.send(2);
  exec.run();  // reaps the gap
  EXPECT_EQ(got_a, 1);
  EXPECT_EQ(got_b, 2);
  last.reset();  // still found at its (shifted) place in the list
  EXPECT_EQ(exec.live_roots(), 1u);
}

TEST(Channel, SendBeforeRecvIsQueued) {
  Executor exec;
  Channel<int> ch(exec);
  ch.send(1);
  ch.send(2);
  std::vector<int> got;
  exec.spawn([](Channel<int>& ch, std::vector<int>& got) -> Task<void> {
    got.push_back(co_await ch.recv());
    got.push_back(co_await ch.recv());
  }(ch, got));
  exec.run();
  EXPECT_EQ(got, (std::vector<int>{1, 2}));
}

TEST(Channel, RecvBlocksUntilSend) {
  Executor exec;
  Channel<std::string> ch(exec);
  std::string got;
  Time when = 0;
  exec.spawn([](Executor& e, Channel<std::string>& ch, std::string& got,
                Time& when) -> Task<void> {
    got = co_await ch.recv();
    when = e.now();
  }(exec, ch, got, when));
  exec.call_at(9, [&] { ch.send("hello"); });
  exec.run();
  EXPECT_EQ(got, "hello");
  EXPECT_EQ(when, 9u);
}

TEST(Channel, RecvUntilTimesOut) {
  Executor exec;
  Channel<int> ch(exec);
  std::optional<int> got = 123;
  exec.spawn([](Channel<int>& ch, std::optional<int>& got) -> Task<void> {
    got = co_await ch.recv_until(5);
  }(ch, got));
  exec.run();
  EXPECT_EQ(got, std::nullopt);
  EXPECT_EQ(exec.now(), 5u);
}

TEST(Channel, RecvUntilDeliversValueBeforeDeadline) {
  Executor exec;
  Channel<int> ch(exec);
  std::optional<int> got;
  exec.spawn([](Channel<int>& ch, std::optional<int>& got) -> Task<void> {
    got = co_await ch.recv_until(100);
  }(ch, got));
  exec.call_at(3, [&] { ch.send(77); });
  exec.run();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, 77);
  EXPECT_EQ(exec.now(), 3u);
}

TEST(Channel, TimedOutWaiterDoesNotStealLaterValue) {
  Executor exec;
  Channel<int> ch(exec);
  std::optional<int> first;
  int second = 0;

  exec.spawn([](Channel<int>& ch, std::optional<int>& first) -> Task<void> {
    first = co_await ch.recv_until(2);
  }(ch, first));
  exec.spawn([](Channel<int>& ch, int& second) -> Task<void> {
    second = co_await ch.recv();
  }(ch, second));
  exec.call_at(10, [&] { ch.send(5); });

  exec.run();
  EXPECT_EQ(first, std::nullopt);
  EXPECT_EQ(second, 5);
}

TEST(Channel, MultipleWaitersServedFifo) {
  Executor exec;
  Channel<int> ch(exec);
  std::vector<std::pair<int, int>> got;  // (waiter, value)
  for (int i = 0; i < 3; ++i) {
    exec.spawn([](Channel<int>& ch, std::vector<std::pair<int, int>>& got,
                  int idx) -> Task<void> {
      const int v = co_await ch.recv();
      got.emplace_back(idx, v);
    }(ch, got, i));
  }
  exec.call_at(1, [&] {
    ch.send(10);
    ch.send(20);
    ch.send(30);
  });
  exec.run();
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0], (std::pair<int, int>{0, 10}));
  EXPECT_EQ(got[1], (std::pair<int, int>{1, 20}));
  EXPECT_EQ(got[2], (std::pair<int, int>{2, 30}));
}

TEST(Gate, OpenWakesAllWaiters) {
  Executor exec;
  Gate gate(exec);
  int woken = 0;
  for (int i = 0; i < 4; ++i) {
    exec.spawn([](Gate& g, int& woken) -> Task<void> {
      co_await g.wait();
      ++woken;
    }(gate, woken));
  }
  exec.call_at(6, [&] { gate.open(); });
  exec.run();
  EXPECT_EQ(woken, 4);
  EXPECT_TRUE(gate.is_open());
}

TEST(Gate, WaitAfterOpenReturnsImmediately) {
  Executor exec;
  Gate gate(exec);
  gate.open();
  Time when = 99;
  exec.spawn([](Executor& e, Gate& g, Time& when) -> Task<void> {
    co_await g.wait();
    when = e.now();
  }(exec, gate, when));
  exec.run();
  EXPECT_EQ(when, 0u);
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++equal;
  }
  EXPECT_LT(equal, 4);
}

TEST(Rng, BelowStaysInRange) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(r.below(13), 13u);
    const auto v = r.range(5, 9);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 9u);
  }
}


// --- Allocation-free event loop: determinism and pooling contracts. ---

/// The (time, seq) ordering contract, exercised through a mixed schedule of
/// cancellable and non-cancellable events. The trace is compared against a
/// golden order (insertion order within a timestamp, timestamps ascending),
/// which pins the pre-pool scheduling semantics bit-for-bit.
TEST(Executor, MixedScheduleTraceIsDeterministic) {
  auto run_trace = []() {
    Executor exec;
    std::vector<int> trace;
    exec.schedule_at(5, [&] { trace.push_back(1); });
    exec.call_at(2, [&] { trace.push_back(2); });
    exec.schedule_at(2, [&] { trace.push_back(3); });
    TimerHandle cancelled = exec.call_at(3, [&] { trace.push_back(99); });
    exec.schedule_at(5, [&] { trace.push_back(4); });
    exec.call_after(1, [&] { trace.push_back(5); });
    cancelled.cancel();
    exec.run();
    return trace;
  };
  const std::vector<int> expected{5, 2, 3, 1, 4};
  EXPECT_EQ(run_trace(), expected);
  EXPECT_EQ(run_trace(), run_trace());
}

/// Events scheduled from inside a callback at the current instant run after
/// everything already queued for that instant (the yield() contract).
TEST(Executor, SameInstantInsertionKeepsFifoOrder) {
  Executor exec;
  std::vector<int> trace;
  exec.schedule_at(1, [&] {
    trace.push_back(1);
    exec.schedule_at(1, [&] { trace.push_back(3); });
  });
  exec.schedule_at(1, [&] { trace.push_back(2); });
  exec.run();
  EXPECT_EQ(trace, (std::vector<int>{1, 2, 3}));
}

/// Cancel cells are recycled through the free list: a handle from a fired
/// timer goes stale and cannot cancel the timer that reused its cell.
TEST(Executor, StaleTimerHandleCannotCancelRecycledCell) {
  Executor exec;
  int fired = 0;
  TimerHandle first = exec.call_at(1, [&] { ++fired; });
  EXPECT_TRUE(first.valid());
  exec.run();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(first.valid());  // cell retired, generation bumped

  // The next cancellable timer reuses the pooled cell; the stale handle
  // must not be able to touch it.
  TimerHandle second = exec.call_at(2, [&] { ++fired; });
  first.cancel();  // no-op: generation mismatch
  EXPECT_TRUE(second.valid());
  exec.run();
  EXPECT_EQ(fired, 2);
}

/// sleep()/yield() carry no cancel state at all; a long mixed workload must
/// not grow the cancel-cell pool beyond the cancellable timers in flight.
TEST(Executor, SleepAndYieldScheduleWithoutCancelCells) {
  Executor exec;
  int wakes = 0;
  auto sleeper = [](Executor* e, int* w) -> Task<void> {
    for (int i = 0; i < 100; ++i) {
      co_await e->sleep(1);
      co_await e->yield();
      ++*w;
    }
  };
  exec.spawn(sleeper(&exec, &wakes));
  exec.run();
  EXPECT_EQ(wakes, 100);
}

/// Channel fast path: a queued value is consumed without suspending (and
/// without allocating a waiter node — observable as no extra resume event).
TEST(Channel, ReadyValueConsumedWithoutExtraEvent) {
  Executor exec;
  Channel<int> ch(exec);
  ch.send(7);
  std::optional<int> got;
  auto reader = [](Channel<int>* c, std::optional<int>* out) -> Task<void> {
    *out = co_await c->recv();
  };
  exec.spawn(reader(&ch, &got));
  exec.run();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, 7);
}

}  // namespace
}  // namespace mnm::sim
