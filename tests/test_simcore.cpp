// Unit tests for the discrete-event engine, processes, signals, resources,
// statistics, and the deterministic PRNG.
#include <gtest/gtest.h>

#include <cstddef>
#include <exception>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "simcore/engine.hpp"
#include "simcore/pdes.hpp"
#include "simcore/process.hpp"
#include "simcore/prng.hpp"
#include "simcore/resource.hpp"
#include "simcore/stats.hpp"
#include "simcore/time.hpp"

namespace vibe::sim {
namespace {

TEST(TimeTest, UsecRoundsToNearestNanosecond) {
  EXPECT_EQ(usec(1.0), 1000);
  EXPECT_EQ(usec(0.19), 190);
  EXPECT_EQ(usec(0.0004), 0);
  EXPECT_EQ(usec(0.0006), 1);
  EXPECT_EQ(msec(1.5), 1'500'000);
}

TEST(TimeTest, TransferTimeMatchesRate) {
  // 100 MB/s -> 10 ns per byte.
  EXPECT_EQ(transferTime(1, 100.0), 10);
  EXPECT_EQ(transferTime(1000, 100.0), 10'000);
  EXPECT_EQ(transferTime(0, 100.0), 0);
  // 125 MB/s (1 Gb/s) -> 8 ns per byte.
  EXPECT_EQ(transferTime(1500, 125.0), 12'000);
}

TEST(EngineTest, EventsFireInTimeOrder) {
  Engine eng;
  std::vector<int> order;
  eng.post(30, [&] { order.push_back(3); });
  eng.post(10, [&] { order.push_back(1); });
  eng.post(20, [&] { order.push_back(2); });
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(eng.now(), 30);
}

TEST(EngineTest, TiesBreakByInsertionOrder) {
  Engine eng;
  std::vector<int> order;
  for (int i = 0; i < 16; ++i) {
    eng.post(5, [&order, i] { order.push_back(i); });
  }
  eng.run();
  for (int i = 0; i < 16; ++i) EXPECT_EQ(order[i], i);
}

TEST(EngineTest, CancelPreventsExecution) {
  Engine eng;
  int fired = 0;
  EventId id = eng.post(10, [&] { ++fired; });
  eng.post(5, [&] { EXPECT_TRUE(eng.cancel(id)); });
  eng.run();
  EXPECT_EQ(fired, 0);
  EXPECT_FALSE(eng.cancel(id));  // already gone
}

TEST(EngineTest, MoveOnlyCallbacksArePostable) {
  // EventFn (unlike std::function) accepts move-only captures, so payloads
  // ride inside the event itself — the fabric layer depends on this.
  Engine eng;
  auto payload = std::make_unique<int>(41);
  int got = 0;
  eng.post(5, [&got, p = std::move(payload)] { got = *p + 1; });
  eng.run();
  EXPECT_EQ(got, 42);
}

TEST(EngineTest, NullCallableThrowsAtPostTime) {
  Engine eng;
  EXPECT_THROW(eng.post(10, std::function<void()>{}), SimError);
  EXPECT_THROW(eng.postAt(10, EventFn{}), SimError);
  EXPECT_THROW(eng.post(10, nullptr), SimError);
  // Nothing leaked into the queue and the engine still runs cleanly.
  EXPECT_EQ(eng.pendingEvents(), 0u);
  eng.run();
  // Cancel of never-issued ids (including the 0 sentinel) is well-defined.
  EXPECT_FALSE(eng.cancel(0));
  EXPECT_FALSE(eng.cancel(12345));
  EXPECT_FALSE(eng.cancel(~EventId{0}));
}

TEST(EngineTest, CancelledEventsDoNotLingerInQueue) {
  // Regression: cancel used to tombstone the queue entry until fire time,
  // so far-future post+cancel cycles grew the queue without bound.
  Engine eng;
  for (int i = 0; i < 100000; ++i) {
    const EventId id = eng.post(1'000'000'000, [] {});
    ASSERT_TRUE(eng.cancel(id));
  }
  EXPECT_EQ(eng.pendingEvents(), 0u);
  EXPECT_LT(eng.queuedHandles(), 200u);  // compaction keeps stale handles small
  EXPECT_LE(eng.poolSlots(), 256u);      // slots recycle; one slab suffices
  eng.run();
  EXPECT_EQ(eng.executedEvents(), 0u);
}

TEST(EngineTest, PostCancelStormStaysBounded) {
  // The reliability layer's retransmit-timer pattern: a live timer per
  // endpoint, constantly rearmed. 1M rearms must not grow queue or pool.
  Engine eng;
  constexpr std::size_t kEndpoints = 32;
  EventId timers[kEndpoints] = {};
  for (int i = 0; i < 1'000'000; ++i) {
    const std::size_t ep = static_cast<std::size_t>(i) % kEndpoints;
    if (timers[ep] != 0) {
      EXPECT_TRUE(eng.cancel(timers[ep]));
    }
    timers[ep] = eng.post(1'000'000 + i, [] {});
  }
  EXPECT_EQ(eng.pendingEvents(), kEndpoints);
  EXPECT_LT(eng.queuedHandles(), 1000u);
  EXPECT_LT(eng.poolSlots(), 1000u);
  eng.run();
  EXPECT_EQ(eng.executedEvents(), kEndpoints);
}

TEST(EngineTest, CancelInsideOwnCallbackReturnsFalse) {
  Engine eng;
  EventId id = 0;
  bool sawFalse = false;
  id = eng.post(10, [&] { sawFalse = !eng.cancel(id); });
  eng.run();
  EXPECT_TRUE(sawFalse);
}

TEST(EngineTest, StaleIdDoesNotCancelRecycledSlot) {
  // Generation tags: after an event fires, its pool slot is recycled; the
  // old id must not cancel the new occupant.
  Engine eng;
  const EventId first = eng.post(1, [] {});
  eng.run();
  EXPECT_FALSE(eng.cancel(first));
  int fired = 0;
  const EventId second = eng.post(1, [&] { ++fired; });
  EXPECT_NE(first, second);        // same slot, new generation
  EXPECT_FALSE(eng.cancel(first)); // stale id is inert
  eng.run();
  EXPECT_EQ(fired, 1);
}

TEST(EngineTest, PostIntoPastThrows) {
  Engine eng;
  eng.post(10, [&] {
    EXPECT_THROW(eng.postAt(5, [] {}), SimError);
  });
  eng.run();
}

TEST(EngineTest, NestedPostsExecute) {
  Engine eng;
  SimTime innerTime = -1;
  eng.post(10, [&] {
    eng.post(7, [&] { innerTime = eng.now(); });
  });
  eng.run();
  EXPECT_EQ(innerTime, 17);
}

// Horizon runs go through ShardedEngine::runUntil. One domain is the
// serial engine bit for bit, so these pin the horizon contract for plain
// Engine code: inclusive horizon, clock landed on it, drain reported.
TEST(EngineTest, RunUntilStopsAtHorizon) {
  ShardedEngine pdes(EngineConfig{});
  Engine& eng = pdes.domainEngine(0);
  int fired = 0;
  eng.post(10, [&] { ++fired; });
  eng.post(100, [&] { ++fired; });
  EXPECT_FALSE(pdes.runUntil(50));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(eng.now(), 50);
  EXPECT_TRUE(pdes.runUntil(200));
  EXPECT_EQ(fired, 2);
}

TEST(EngineTest, RunUntilFiresEventExactlyAtHorizon) {
  ShardedEngine pdes(EngineConfig{});
  Engine& eng = pdes.domainEngine(0);
  int fired = 0;
  eng.post(50, [&] { ++fired; });
  EXPECT_TRUE(pdes.runUntil(50));  // inclusive horizon; queue drains
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(eng.now(), 50);
}

TEST(EngineTest, RunUntilSkipsCancelledEventAtTopOfHeap) {
  ShardedEngine pdes(EngineConfig{});
  Engine& eng = pdes.domainEngine(0);
  int fired = 0;
  const EventId early = eng.post(10, [&] { ++fired; });
  eng.post(100, [&] { ++fired; });
  ASSERT_TRUE(eng.cancel(early));
  // The earliest handle is stale; runUntil must skip it, see that the next
  // live event is beyond the horizon, and stop at the horizon time.
  EXPECT_FALSE(pdes.runUntil(50));
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(eng.now(), 50);
  EXPECT_TRUE(pdes.runUntil(100));
  EXPECT_EQ(fired, 1);
}

TEST(EngineTest, RunUntilNeverMovesTimeBackwards) {
  ShardedEngine pdes(EngineConfig{});
  Engine& eng = pdes.domainEngine(0);
  eng.post(80, [] {});
  EXPECT_TRUE(pdes.runUntil(100));
  EXPECT_EQ(eng.now(), 100);
  EXPECT_TRUE(pdes.runUntil(50));  // horizon in the past: clock stays put
  EXPECT_EQ(eng.now(), 100);
  // And posting still measures against the unchanged now().
  EXPECT_THROW(eng.postAt(99, [] {}), SimError);
}

TEST(ProcessTest, AdvanceMovesVirtualTimeAndAccountsCpu) {
  Engine eng;
  SimTime sawTime = -1;
  Process p(eng, "worker", [&] {
    Process& self = *eng.currentProcess();
    self.advance(usec(5));
    self.advance(usec(3), CpuUse::Idle);
    sawTime = eng.now();
  });
  eng.run();
  EXPECT_EQ(sawTime, usec(8));
  EXPECT_EQ(p.cpuBusy(), usec(5));
  EXPECT_TRUE(p.finished());
}

TEST(ProcessTest, TwoProcessesInterleaveDeterministically) {
  Engine eng;
  std::vector<std::pair<char, SimTime>> trace;
  Process a(eng, "a", [&] {
    Process& self = *eng.currentProcess();
    for (int i = 0; i < 3; ++i) {
      self.advance(usec(10));
      trace.emplace_back('a', eng.now());
    }
  });
  Process b(eng, "b", [&] {
    Process& self = *eng.currentProcess();
    for (int i = 0; i < 3; ++i) {
      self.advance(usec(15));
      trace.emplace_back('b', eng.now());
    }
  });
  eng.run();
  // At the t=30 tie, b's resume event was posted (at t=15) before a's
  // (at t=20), so insertion order puts b first.
  const std::vector<std::pair<char, SimTime>> expected = {
      {'a', usec(10)}, {'b', usec(15)}, {'a', usec(20)},
      {'b', usec(30)}, {'a', usec(30)}, {'b', usec(45)},
  };
  EXPECT_EQ(trace, expected);
}

TEST(ProcessTest, SignalWakesWaiter) {
  Engine eng;
  Signal sig(eng);
  SimTime wokenAt = -1;
  Process waiter(eng, "waiter", [&] {
    eng.currentProcess()->await(sig);
    wokenAt = eng.now();
  });
  Process notifier(eng, "notifier", [&] {
    eng.currentProcess()->advance(usec(42));
    sig.notifyAll();
  });
  eng.run();
  EXPECT_EQ(wokenAt, usec(42));
  EXPECT_EQ(waiter.cpuBusy(), 0);  // await is idle
}

TEST(ProcessTest, AwaitBusyChargesCpu) {
  Engine eng;
  Signal sig(eng);
  Process waiter(eng, "waiter", [&] { eng.currentProcess()->awaitBusy(sig); });
  Process notifier(eng, "notifier", [&] {
    eng.currentProcess()->advance(usec(42));
    sig.notifyAll();
  });
  eng.run();
  EXPECT_EQ(waiter.cpuBusy(), usec(42));
}

TEST(ProcessTest, AwaitForTimesOut) {
  Engine eng;
  Signal sig(eng);
  bool fired = true;
  SimTime endTime = -1;
  Process waiter(eng, "waiter", [&] {
    fired = eng.currentProcess()->awaitFor(sig, usec(100));
    endTime = eng.now();
  });
  eng.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(endTime, usec(100));
}

TEST(ProcessTest, SignalBeatsTimeout) {
  Engine eng;
  Signal sig(eng);
  bool fired = false;
  Process waiter(eng, "waiter", [&] {
    fired = eng.currentProcess()->awaitFor(sig, usec(100));
  });
  Process notifier(eng, "notifier", [&] {
    eng.currentProcess()->advance(usec(10));
    sig.notifyAll();
  });
  eng.run();
  EXPECT_TRUE(fired);
  EXPECT_EQ(eng.now(), usec(10));
}

TEST(ProcessTest, TimedOutWaiterIsNotWokenBySubsequentNotify) {
  Engine eng;
  Signal sig(eng);
  int wakeups = 0;
  Process waiter(eng, "waiter", [&] {
    Process& self = *eng.currentProcess();
    EXPECT_FALSE(self.awaitFor(sig, usec(10)));
    ++wakeups;
    // Waits again; this time the notify at t=50 should land.
    EXPECT_TRUE(self.awaitFor(sig, usec(1000)));
    ++wakeups;
  });
  Process notifier(eng, "notifier", [&] {
    eng.currentProcess()->advance(usec(50));
    sig.notifyAll();
  });
  eng.run();
  EXPECT_EQ(wakeups, 2);
}

TEST(ProcessTest, NotifyOneWakesSingleWaiterInFifoOrder) {
  Engine eng;
  Signal sig(eng);
  std::vector<int> woken;
  auto makeWaiter = [&](int idx) {
    return [&, idx] {
      eng.currentProcess()->await(sig);
      woken.push_back(idx);
    };
  };
  Process w0(eng, "w0", makeWaiter(0));
  Process w1(eng, "w1", makeWaiter(1));
  Process n(eng, "n", [&] {
    Process& self = *eng.currentProcess();
    self.advance(usec(5));
    sig.notifyOne();
    self.advance(usec(5));
    sig.notifyOne();
  });
  eng.run();
  EXPECT_EQ(woken, (std::vector<int>{0, 1}));
}

TEST(ProcessTest, DeadlockIsDetected) {
  Engine eng;
  Signal sig(eng);
  auto waiter = std::make_unique<Process>(
      eng, "stuck", [&] { eng.currentProcess()->await(sig); });
  EXPECT_THROW(eng.run(), DeadlockError);
}

TEST(ProcessTest, BodyExceptionPropagatesOutOfRun) {
  Engine eng;
  Process p(eng, "thrower", [&] {
    eng.currentProcess()->advance(usec(1));
    throw std::runtime_error("boom");
  });
  EXPECT_THROW(eng.run(), std::runtime_error);
}

TEST(ProcessTest, UnstartedProcessIsKilledCleanlyOnDestruction) {
  Engine eng;
  bool ran = false;
  auto capture = std::make_shared<int>(0);
  {
    Process p(eng, "never-run", [&ran, &eng, capture] {
      ran = true;
      eng.currentProcess()->advance(1);
    });
    EXPECT_EQ(capture.use_count(), 2);
    // Engine never runs; the destructor frees the fiber without entering it.
  }
  EXPECT_FALSE(ran);
  EXPECT_EQ(capture.use_count(), 1);  // the body's captures went with it
}

TEST(ProcessTest, BodyExceptionAfterSeveralYieldsReachesRun) {
  Engine eng;
  Process p(eng, "late-thrower", [&] {
    Process& self = *eng.currentProcess();
    for (int i = 0; i < 5; ++i) self.advance(usec(2));
    throw std::logic_error("thrown at t=" + std::to_string(eng.now()));
  });
  try {
    eng.run();
    FAIL() << "expected the body's exception";
  } catch (const std::logic_error& e) {
    EXPECT_STREQ(e.what(), "thrown at t=10000");
  }
  EXPECT_TRUE(p.finished());
  EXPECT_EQ(eng.now(), usec(10));
}

// Each fiber keeps its own caught-exception stack and uncaught count:
// both processes park inside a catch block (and one inside a destructor
// running during unwinding) while the other throws and catches, and each
// must rethrow its own exception when it resumes.
TEST(ProcessTest, ExceptionStateIsPerProcess) {
  Engine eng;
  struct AdvanceOnUnwind {
    Process& self;
    int& seenUncaught;
    ~AdvanceOnUnwind() {
      seenUncaught = std::uncaught_exceptions();
      self.advance(usec(5));
    }
  };
  std::vector<std::string> rethrown;
  int unwindUncaught = -1;
  int otherUncaught = -1;
  auto body = [&](const std::string& tag, Duration pause) {
    return [&, tag, pause] {
      Process& self = *eng.currentProcess();
      for (int i = 0; i < 3; ++i) {
        try {
          throw std::runtime_error(tag + std::to_string(i));
        } catch (const std::runtime_error&) {
          self.advance(pause);  // the other process throws meanwhile
          try {
            throw;
          } catch (const std::runtime_error& again) {
            rethrown.push_back(again.what());
          }
        }
      }
      if (tag == "a") {
        try {
          AdvanceOnUnwind guard{self, unwindUncaught};
          throw std::runtime_error("unwinding");
        } catch (const std::runtime_error&) {
        }
      } else {
        self.advance(usec(1));  // lands while "a" is parked mid-unwind
        otherUncaught = std::uncaught_exceptions();
      }
    };
  };
  Process a(eng, "a", body("a", usec(2)));
  Process b(eng, "b", body("b", usec(3)));
  eng.run();
  EXPECT_EQ(rethrown, (std::vector<std::string>{"a0", "b0", "a1", "b1", "a2",
                                                "b2"}));
  EXPECT_EQ(unwindUncaught, 1);
  EXPECT_EQ(otherUncaught, 0);
  EXPECT_EQ(std::uncaught_exceptions(), 0);
}

// About 1 MB of stack at depth 1024; the sum keeps every frame live.
std::size_t deepSum(int depth) {
  volatile unsigned char frame[1024];
  for (volatile unsigned char& b : frame) b = static_cast<unsigned char>(depth);
  if (depth == 0) return 0;
  return deepSum(depth - 1) + frame[depth % 1024];
}

TEST(ProcessTest, DeepRecursionFitsOnTheProcessStack) {
  Engine eng;
  std::size_t before = 0;
  std::size_t after = 0;
  Process p(eng, "deep", [&] {
    before = deepSum(1024);
    eng.currentProcess()->advance(usec(1));
    after = deepSum(1024);
  });
  eng.run();
  EXPECT_EQ(before, 130560u);  // 4 * (0 + 1 + ... + 255)
  EXPECT_EQ(after, before);
}

// ShardedEngine spawns fresh threads for shards >= 1 on every run, so a
// process on shard 1 is resumed by a different OS thread after each
// runUntil. Parking
// inside a catch block across the two runs also moves its exception state.
TEST(ProcessTest, SurvivesResumptionOnANewWorkerThread) {
  ShardedEngine pdes({.domains = 2, .lookahead = 100, .shards = 2});
  ASSERT_EQ(pdes.shardOf(1), 1u);
  Engine& eng = pdes.domainEngine(1);
  std::vector<SimTime> seen;
  std::vector<std::string> rethrown;
  Process p(eng, "migrant", [&] {
    Process& self = *eng.currentProcess();
    for (int i = 0; i < 4; ++i) {
      try {
        throw std::runtime_error("hop" + std::to_string(i));
      } catch (const std::runtime_error&) {
        self.advance(usec(1));
        try {
          throw;
        } catch (const std::runtime_error& again) {
          rethrown.push_back(again.what());
        }
      }
      seen.push_back(eng.now());
    }
  });
  EXPECT_FALSE(pdes.runUntil(usec(2)));  // parked in a catch block
  EXPECT_FALSE(p.finished());
  EXPECT_TRUE(pdes.runUntil(usec(100)));
  EXPECT_TRUE(p.finished());
  EXPECT_EQ(seen, (std::vector<SimTime>{usec(1), usec(2), usec(3), usec(4)}));
  EXPECT_EQ(rethrown,
            (std::vector<std::string>{"hop0", "hop1", "hop2", "hop3"}));
}

// Forced shutdown of a body whose unwinding yields again (here a guard
// whose destructor advances inside try/catch, as ~StreamSocket's close()
// does): the advance must throw instead of parking the fiber for good, so
// the Process destructor returns.
TEST(ProcessTest, KilledBodyThatYieldsWhileUnwindingIsDestroyed) {
  Engine eng;
  Signal never(eng);
  bool guardRan = false;
  bool advanceThrew = false;
  struct AdvanceOnDestruction {
    Process& self;
    bool& ran;
    bool& threw;
    ~AdvanceOnDestruction() {
      ran = true;
      try {
        self.advance(usec(1));
      } catch (...) {
        threw = true;
      }
    }
  };
  auto p = std::make_unique<Process>(eng, "stuck", [&] {
    AdvanceOnDestruction guard{*eng.currentProcess(), guardRan, advanceThrew};
    eng.currentProcess()->await(never);
  });
  EXPECT_THROW(eng.run(), DeadlockError);
  p.reset();  // returns: the guard's advance threw Killed instead of parking
  EXPECT_TRUE(guardRan);
  EXPECT_TRUE(advanceThrew);
  EXPECT_EQ(eng.pendingEvents(), 0u);  // and posted nothing
}

TEST(ResourceTest, PipelinesBackToBackWork) {
  Resource r("link");
  // Three items, each needing 10ns, all ready at t=0: FIFO queueing.
  EXPECT_EQ(r.acquire(0, 10), 10);
  EXPECT_EQ(r.acquire(0, 10), 20);
  EXPECT_EQ(r.acquire(0, 10), 30);
  // An item arriving after the queue drains starts immediately.
  EXPECT_EQ(r.acquire(100, 5), 105);
  EXPECT_EQ(r.busyTime(), 35);
  EXPECT_EQ(r.itemsServed(), 4u);
}

TEST(ResourceTest, IdleGapsDoNotAccrueBusyTime) {
  Resource r("dma");
  r.acquire(0, 10);
  r.acquire(50, 10);
  EXPECT_EQ(r.busyTime(), 20);
  EXPECT_EQ(r.freeAt(), 60);
}

TEST(StatsTest, QuantilesAreExact) {
  QuantileTracker q;
  for (int i = 100; i >= 1; --i) q.add(i);  // 1..100 reversed
  EXPECT_DOUBLE_EQ(q.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(q.quantile(1.0), 100.0);
  EXPECT_NEAR(q.median(), 50.5, 1e-12);
  EXPECT_NEAR(q.quantile(0.99), 99.01, 1e-9);
}

TEST(PrngTest, DeterministicAcrossInstances) {
  Xoshiro256 a(1234, "link0");
  Xoshiro256 b(1234, "link0");
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(PrngTest, DifferentTagsDiverge) {
  Xoshiro256 a(1234, "link0");
  Xoshiro256 b(1234, "link1");
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a() == b());
  EXPECT_LT(same, 2);
}

TEST(PrngTest, UniformInRangeAndBelowIsUnbiased) {
  Xoshiro256 g(42);
  const int kSamples = 20000;
  double sum = 0.0;
  for (int i = 0; i < kSamples; ++i) {
    const double u = g.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / kSamples, 0.5, 0.02);
  for (int i = 0; i < 1000; ++i) ASSERT_LT(g.below(7), 7u);
}

// --- timer / window properties the sharded stack port relies on -----------

TEST(TimerApiTest, CancelAfterFireReturnsFalse) {
  Engine e;
  int fired = 0;
  const EventId id = e.post(10, [&] { ++fired; });
  e.run();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(e.cancel(id));  // already fired: a stale handle is a no-op
  EXPECT_FALSE(e.cancel(id));  // and stays one
}

TEST(TimerApiTest, CancelledIdIsNeverConfusedWithReusedSlot) {
  // The RTO path cancels and re-arms constantly; a recycled pool slot
  // must not let an old handle kill the new timer.
  Engine e;
  int fired = 0;
  const EventId a = e.post(10, [&] { fired += 1; });
  ASSERT_TRUE(e.cancel(a));
  const EventId b = e.post(10, [&] { fired += 100; });
  EXPECT_FALSE(e.cancel(a));  // stale generation: no effect on b
  e.run();
  EXPECT_EQ(fired, 100);
  (void)b;
}

TEST(TimerApiTest, StaleExpiryAfterCancelIsANoOp) {
  // Cancel between post and expiry: the heap entry left behind must be
  // skipped, not fired, and must not stall time for later events.
  Engine e;
  int fired = 0;
  const EventId a = e.post(10, [&] { ++fired; });
  e.post(20, [&] { fired += 10; });
  ASSERT_TRUE(e.cancel(a));
  e.run();
  EXPECT_EQ(fired, 10);
  EXPECT_EQ(e.now(), 20);
}

TEST(TimerApiTest, NextEventTimePrunesCancelledTop) {
  Engine e;
  const EventId a = e.post(5, [] {});
  e.post(9, [] {});
  EXPECT_EQ(e.nextEventTime(), 5);
  ASSERT_TRUE(e.cancel(a));
  EXPECT_EQ(e.nextEventTime(), 9);
  e.run();
  EXPECT_EQ(e.nextEventTime(), Engine::kNoEventTime);
}

TEST(WindowedModeTest, PostAndCancelOnParkedEngineThrow) {
  // The PDES contract: between windows a domain engine is parked, and
  // mutating it from outside (a cross-domain timer cancel, a direct
  // post) is exactly the data race the sharded port must never make.
  Engine e;
  const EventId id = e.post(50, [] {});
  e.setWindowedMode(true);
  EXPECT_THROW(e.post(10, [] {}), SimError);
  EXPECT_THROW(e.postAt(10, [] {}), SimError);
  EXPECT_THROW(e.cancel(id), SimError);
  e.setWindowedMode(false);
  EXPECT_TRUE(e.cancel(id));  // legal again outside windowed mode
}

TEST(WindowedModeTest, InWindowPostAndCancelAreLegal) {
  // Inside runWindow the domain owns itself: same-domain timer
  // programming (the NIC RTO pattern) must work unchanged.
  Engine e;
  int fired = 0;
  EventId rto = 0;
  e.post(10, [&] {
    rto = e.post(5, [&] { fired += 100; });  // arm
  });
  e.post(12, [&] {
    EXPECT_TRUE(e.cancel(rto));  // ack arrived: cancel in-window
    ++fired;
  });
  e.setWindowedMode(true);
  e.runWindow(100);
  e.setWindowedMode(false);
  EXPECT_EQ(fired, 1);
}

TEST(WindowedModeTest, RunWindowExecutesHalfOpenInterval) {
  Engine e;
  std::vector<int> order;
  e.post(10, [&] { order.push_back(10); });
  e.post(20, [&] { order.push_back(20); });
  e.post(30, [&] { order.push_back(30); });
  e.setWindowedMode(true);
  EXPECT_EQ(e.runWindow(20), 1u);  // [0, 20): only t=10
  EXPECT_EQ(e.now(), 10);          // the clock rests on the last event
  EXPECT_EQ(e.runWindow(31), 2u);  // [20, 31): t=20 and t=30
  e.setWindowedMode(false);
  EXPECT_EQ(order, (std::vector<int>{10, 20, 30}));
}

TEST(WindowedModeTest, MergePostBypassesGuardAndKeepsOrder) {
  // postAtMerge is the barrier-time merge hook: it must work on a parked
  // engine, and two merged arrivals at one timestamp must fire in merge
  // (domain) order.
  Engine e;
  std::vector<int> order;
  e.setWindowedMode(true);
  e.postAtMerge(10, [&] { order.push_back(1); });
  e.postAtMerge(10, [&] { order.push_back(2); });
  e.runWindow(11);
  e.setWindowedMode(false);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(HostedPdesTest, CrossDomainSendBelowWindowEndThrows) {
  // A hosted domain that tries to deliver inside the open window has
  // violated the lookahead contract; the engine must refuse rather than
  // silently produce a shard-count-dependent schedule.
  EngineConfig cfg;
  cfg.domains = 2;
  cfg.lookahead = 10;
  cfg.shards = 1;
  ShardedEngine pdes(cfg);
  pdes.domainEngine(0).postAt(0, [&] {
    EXPECT_THROW(pdes.sendAt(0, 1, 3, [] {}), SimError);
  });
  pdes.run();
}

TEST(HostedPdesTest, PerDomainOrderingIsMergeDeterministic) {
  // Two domains cross-feed each other at identical timestamps: arrivals
  // must interleave with local events in (time, merge-order) order, and
  // the whole schedule must not depend on the worker shard count.
  auto runOnce = [](std::uint32_t shards) {
    EngineConfig cfg;
    cfg.domains = 2;
    cfg.lookahead = 10;
    cfg.shards = shards;
    ShardedEngine pdes(cfg);
    std::vector<std::vector<int>> log(2);
    for (std::uint32_t d = 0; d < 2; ++d) {
      Engine& e = pdes.domainEngine(d);
      const std::uint32_t peer = 1 - d;
      e.postAt(0, [&pdes, &log, d, peer] {
        // Lands at t=20 in the peer, tying with its local event there.
        pdes.sendAt(d, peer, 20, [&log, peer, d] {
          log[peer].push_back(100 + static_cast<int>(d));
        });
      });
      e.postAt(20, [&log, d] { log[d].push_back(static_cast<int>(d)); });
    }
    pdes.run();
    return log;
  };
  const auto base = runOnce(1);
  ASSERT_EQ(base[0].size(), 2u);
  ASSERT_EQ(base[1].size(), 2u);
  EXPECT_EQ(runOnce(2), base);
  EXPECT_EQ(runOnce(5), base);
}

}  // namespace
}  // namespace vibe::sim
