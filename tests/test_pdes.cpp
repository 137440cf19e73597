// Determinism proof wall for the conservative PDES engine
// (src/simcore/pdes.hpp). The contract under test: every observable a
// model can extract from a ShardedEngine — execution order, digests,
// counters, window count, virtual end time — is a pure function of the
// model, byte-identical for every shard count and thread schedule.
//
// Every workload here schedules through the engine's one API: events on
// domainEngine(d), cross-domain arrivals through sendAt(). The wall has
// four faces:
//   - one-domain bit-identity with the serial Engine on randomized
//     workloads (the two engines replay the same cascade event-for-event),
//   - deterministic outbox merge under adversarial same-timestamp storms
//     (every domain receives same-time events from every other),
//   - mailbox exactly-once delivery with exact cross-shard accounting,
//   - context safety: a foreign-domain post or a bad sendAt throws
//     instead of silently reordering.
// The lookahead check on sendAt and the two-domain tie order live in
// test_simcore (HostedPdesTest.*).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "simcore/engine.hpp"
#include "simcore/pdes.hpp"
#include "simcore/process.hpp"
#include "simcore/prng.hpp"
#include "simcore/trace.hpp"
#include "test_env.hpp"
#include "test_seed.hpp"

namespace vibe {
namespace {

using sim::Duration;
using sim::EngineConfig;
using sim::ShardedEngine;
using sim::SimError;
using sim::SimTime;
using sim::Tracer;

std::uint64_t mix64(std::uint64_t x) { return sim::splitmix64(x); }

using testing::ScopedEnv;

TEST(ShardCount, EnvOverridesHardware) {
  {
    ScopedEnv env("VIBE_SIM_SHARDS", "7");
    EXPECT_EQ(sim::shardCount(), 7u);
  }
  {
    ScopedEnv env("VIBE_SIM_SHARDS", nullptr);
    EXPECT_GE(sim::shardCount(), 1u);
  }
  {
    // Invalid and non-positive values fall back to hardware.
    ScopedEnv env("VIBE_SIM_SHARDS", "0");
    EXPECT_GE(sim::shardCount(), 1u);
  }
  {
    ScopedEnv env("VIBE_SIM_SHARDS", "banana");
    EXPECT_GE(sim::shardCount(), 1u);
  }
}

TEST(ShardedEngineConfig, Validation) {
  EXPECT_THROW(ShardedEngine({.domains = 0}), SimError);
  EXPECT_THROW(ShardedEngine({.domains = 2, .lookahead = -1}), SimError);
  // More than one shard without lookahead: no safe window exists.
  EXPECT_THROW(ShardedEngine({.domains = 4, .lookahead = 0, .shards = 2}),
               SimError);
  // Shards are clamped to the domain count.
  ShardedEngine clamped({.domains = 3, .lookahead = 10, .shards = 64});
  EXPECT_EQ(clamped.shards(), 3u);
  // One shard with zero lookahead is the serial degenerate case.
  ShardedEngine serial({.domains = 5, .lookahead = 0, .shards = 1});
  EXPECT_EQ(serial.shards(), 1u);
  EXPECT_EQ(serial.domainCount(), 5u);
}

// --- Face 1: one-domain bit-identity with the serial Engine ---------------

/// A randomized event cascade replayed on both engines: every event
/// mixes (now, id) into a digest and schedules 0-2 children at random
/// future delays. Child ids are assigned in execution order, so the two
/// digests match iff the engines execute the identical sequence.
struct CascadeState {
  std::uint64_t seed = 0;
  std::uint64_t digest = Tracer::kDigestSeed;
  std::uint64_t nextId = 1;
  std::uint64_t executed = 0;
};

/// Posts cascade event `id` `delay` from now on `eng`; its children
/// schedule on the same engine.
void postCascade(sim::Engine* eng, CascadeState* st, std::uint64_t id,
                 Duration delay) {
  eng->post(delay, [eng, st, id] {
    ++st->executed;
    st->digest = Tracer::combineDigest(
        st->digest,
        mix64(st->seed ^ static_cast<std::uint64_t>(eng->now()) ^ id));
    const std::uint64_t r = mix64(st->seed ^ (id * 0x9e3779b97f4a7c15ull));
    const unsigned children = id < 2000 ? static_cast<unsigned>(r % 3) : 0;
    for (unsigned c = 0; c < children; ++c) {
      const Duration d =
          static_cast<Duration>(mix64(r ^ c) % 997);  // [0, 997) incl. 0
      postCascade(eng, st, st->nextId++, d);
    }
  });
}

TEST(ShardedEngineSerial, BitIdenticalWithSerialEngine) {
  const std::uint64_t base = testing::testRunSeed();
  for (std::uint64_t trial = 0; trial < 4; ++trial) {
    CascadeState serial{base + 11 * trial + 1};
    sim::Engine eng;
    postCascade(&eng, &serial, 0, 0);
    eng.run();

    CascadeState sharded{base + 11 * trial + 1};
    ShardedEngine seng({.domains = 1, .lookahead = 0, .shards = 1});
    postCascade(&seng.domainEngine(0), &sharded, 0, 0);
    seng.run();

    EXPECT_EQ(serial.executed, sharded.executed) << "trial " << trial;
    EXPECT_EQ(serial.digest, sharded.digest) << "trial " << trial;
    EXPECT_EQ(seng.maxNow(), eng.now()) << "trial " << trial;
    EXPECT_EQ(seng.executedEvents(), sharded.executed);
    EXPECT_EQ(seng.windowsExecuted(), 1u);  // one domain: one window
    EXPECT_EQ(seng.pendingEvents(), 0u);
    EXPECT_EQ(seng.crossDomainEvents(), 0u);
    EXPECT_EQ(seng.crossShardEvents(), 0u);
  }
}

// --- Face 2: deterministic merge under same-timestamp storms --------------

/// Every domain sends every other domain (and itself) events that all
/// land at exactly the same timestamp, for several waves. The barrier
/// merge must fix one tie order no matter which shard ran which source.
struct StormLog {
  // Per destination domain: the (wave, srcDomain) tags in execution order.
  std::vector<std::vector<std::pair<std::uint32_t, std::uint32_t>>> seen;
};

StormLog runStorm(std::uint32_t domains, unsigned shards,
                  std::uint32_t waves) {
  const Duration la = 100;
  ShardedEngine eng({.domains = domains, .lookahead = la, .shards = shards});
  StormLog log;
  log.seen.resize(domains);
  struct Ctx {
    ShardedEngine* eng;
    StormLog* log;
    std::uint32_t domains;
    std::uint32_t waves;
  };
  Ctx ctx{&eng, &log, domains, waves};
  // Wave w in domain d fires at t = (w+1)*la; at wave w every domain
  // sends every domain an event for the *same* arrival time (w+2)*la.
  struct Fire {
    static void wave(Ctx* c, std::uint32_t dst, std::uint32_t src,
                     std::uint32_t w) {
      c->log->seen[dst].push_back({w, src});
      if (w + 1 >= c->waves || src != dst) return;
      // One fan-out per (domain, wave), issued by the self-event so the
      // send happens inside dst's execution context.
      const SimTime at = c->eng->now(dst) + 100;
      for (std::uint32_t to = 0; to < c->domains; ++to) {
        const std::uint32_t from = dst;
        const std::uint32_t next = w + 1;
        c->eng->sendAt(dst, to, at, [c, to, from, next] {
          Fire::wave(c, to, from, next);
        });
      }
    }
  };
  for (std::uint32_t d = 0; d < domains; ++d) {
    eng.domainEngine(d).postAt(100,
                               [&ctx, d] { Fire::wave(&ctx, d, d, 0); });
  }
  eng.run();
  EXPECT_EQ(eng.pendingEvents(), 0u);
  return log;
}

TEST(ShardedEngineStorm, SameTimestampMergeIsDeterministic) {
  const std::uint32_t kDomains = 6;
  const std::uint32_t kWaves = 5;
  const StormLog baseline = runStorm(kDomains, 1, kWaves);
  // Waves arrive in wave order. Within one wave (one shared timestamp)
  // the destination's own send comes first — sendAt(d, d) posts straight
  // into d's engine mid-window — then the merged arrivals in ascending
  // source-domain order, the order the barrier drains the outboxes in.
  for (std::uint32_t d = 0; d < kDomains; ++d) {
    ASSERT_EQ(baseline.seen[d].size(), 1 + (kWaves - 1) * kDomains);
    EXPECT_EQ(baseline.seen[d][0], (std::pair<std::uint32_t, std::uint32_t>{
                                       0u, d}));
    for (std::uint32_t w = 1; w < kWaves; ++w) {
      std::vector<std::pair<std::uint32_t, std::uint32_t>> want{{w, d}};
      for (std::uint32_t s = 0; s < kDomains; ++s) {
        if (s != d) want.push_back({w, s});
      }
      const auto first = baseline.seen[d].begin() + 1 + (w - 1) * kDomains;
      EXPECT_TRUE(std::equal(want.begin(), want.end(), first))
          << "dst=" << d << " wave=" << w;
    }
  }
  for (unsigned shards : {2u, 3u, 6u}) {
    const StormLog got = runStorm(kDomains, shards, kWaves);
    for (std::uint32_t d = 0; d < kDomains; ++d) {
      EXPECT_EQ(got.seen[d], baseline.seen[d])
          << "shards=" << shards << " dst=" << d;
    }
  }
}

TEST(ShardedEngineConfig, ZeroShardsReadsEnv) {
  // EngineConfig::shards = 0 picks up VIBE_SIM_SHARDS, and the schedule
  // it runs is the explicit-shard-count one.
  const StormLog baseline = runStorm(6, 1, 3);
  ScopedEnv env("VIBE_SIM_SHARDS", "3");
  EXPECT_EQ(ShardedEngine({.domains = 6, .lookahead = 100}).shards(), 3u);
  const StormLog got = runStorm(6, 0, 3);
  EXPECT_EQ(got.seen, baseline.seen);
}

// --- Face 3: mailbox exactly-once delivery --------------------------------

TEST(ShardedEngineMailbox, ExactlyOnceWithExactAccounting) {
  const std::uint32_t kDomains = 8;
  const std::uint32_t kRounds = 16;
  const Duration la = 50;
  for (unsigned shards : {1u, 2u, 3u, 8u}) {
    ShardedEngine eng(
        {.domains = kDomains, .lookahead = la, .shards = shards});
    // deliveries[src * kDomains + dst] counts (src -> dst) arrivals.
    std::vector<std::uint32_t> deliveries(kDomains * kDomains, 0);
    struct Ctx {
      ShardedEngine* eng;
      std::vector<std::uint32_t>* deliveries;
      std::uint32_t domains;
      std::uint32_t rounds;
    };
    Ctx ctx{&eng, &deliveries, kDomains, kRounds};
    struct Hop {
      static void run(Ctx* c, std::uint32_t at, std::uint32_t round) {
        if (round > 0) {
          const std::uint32_t src = (at + c->domains - 1) % c->domains;
          ++(*c->deliveries)[src * c->domains + at];
        }
        if (round >= c->rounds) return;
        const std::uint32_t next = (at + 1) % c->domains;
        c->eng->sendAt(at, next, c->eng->now(at) + 50,
                       [c, next, round] { Hop::run(c, next, round + 1); });
      }
    };
    for (std::uint32_t d = 0; d < kDomains; ++d) {
      eng.domainEngine(d).postAt(0, [&ctx, d] { Hop::run(&ctx, d, 0); });
    }
    eng.run();

    // Each of the kDomains tokens hops kRounds times around the ring:
    // every (src, src+1) edge is crossed exactly kRounds times total,
    // spread one per token, and nothing is lost or duplicated.
    for (std::uint32_t src = 0; src < kDomains; ++src) {
      const std::uint32_t dst = (src + 1) % kDomains;
      EXPECT_EQ(deliveries[src * kDomains + dst], kRounds)
          << "shards=" << shards << " edge " << src << "->" << dst;
    }
    EXPECT_EQ(eng.executedEvents(), kDomains * (kRounds + 1));
    EXPECT_EQ(eng.pendingEvents(), 0u);
    EXPECT_EQ(eng.maxNow(), static_cast<SimTime>(kRounds) * la);
    EXPECT_EQ(eng.crossDomainEvents(), kDomains * kRounds);
    // Ring edges that cross shard boundaries under round-robin packing
    // (domain d -> shard d % shards): exactly the edges whose endpoints
    // differ mod `shards`.
    std::uint64_t expectCross = 0;
    for (std::uint32_t src = 0; src < kDomains; ++src) {
      const std::uint32_t dst = (src + 1) % kDomains;
      if (src % shards != dst % shards) expectCross += kRounds;
    }
    EXPECT_EQ(eng.crossShardEvents(), expectCross) << "shards=" << shards;
  }
}

// --- Face 4: context safety -------------------------------------------------

TEST(ShardedEngineSafety, ForeignDomainPostThrowsDuringRun) {
  // With one shard, domains 1 and 2 share a thread — TSan cannot see a
  // cross-domain touch between them, so the parked engine must refuse.
  ShardedEngine eng({.domains = 3, .lookahead = 10, .shards = 1});
  bool threw = false;
  eng.domainEngine(1).postAt(0, [&] {
    try {
      eng.domainEngine(2).post(0, [] {});  // domain 2 from domain 1
    } catch (const SimError&) {
      threw = true;
    }
  });
  eng.run();
  EXPECT_TRUE(threw);
  EXPECT_EQ(eng.pendingEvents(), 0u);
  // Outside a run the driving thread may schedule anywhere.
  EXPECT_NO_THROW(eng.domainEngine(2).post(0, [] {}));
  eng.run();
  EXPECT_EQ(eng.executedEvents(), 2u);
}

TEST(ShardedEngineSafety, SendAtValidation) {
  ShardedEngine eng({.domains = 2, .lookahead = 10, .shards = 1});
  EXPECT_THROW(eng.sendAt(0, 2, 10, [] {}), SimError);
  EXPECT_THROW(eng.sendAt(2, 0, 10, [] {}), SimError);
  EXPECT_THROW(eng.sendAt(0, 1, 10, sim::EventFn{}), SimError);
  EXPECT_THROW(eng.domainEngine(2), SimError);
  EXPECT_THROW(eng.now(2), SimError);
  EXPECT_EQ(eng.crossDomainEvents(), 0u);
}

// A boundary hook runs while every domain engine is parked, so it cannot
// schedule or cancel anything: that is what lets the runnable-domain
// heaps stay on under a hook. The second window start (t=250) comes from
// the barrier completion step when several shards run.
TEST(ShardedEngineSafety, BoundaryHookCannotSchedule) {
  for (unsigned shards : {1u, 2u}) {
    for (const bool cancel : {false, true}) {
      ShardedEngine eng({.domains = 2, .lookahead = 10, .shards = shards});
      eng.domainEngine(0).postAt(5, [] {});
      const sim::EventId victim = eng.domainEngine(1).postAt(250, [] {});
      eng.setBoundaryHook(100, [&](SimTime t) {
        if (t < 250) return;
        if (cancel) {
          eng.domainEngine(1).cancel(victim);
        } else {
          eng.domainEngine(1).postAt(500, [] {});
        }
      });
      EXPECT_THROW(eng.run(), SimError)
          << "shards=" << shards << " cancel=" << cancel;
      EXPECT_EQ(eng.executedEvents(), 1u);
      EXPECT_EQ(eng.pendingEvents(), 1u);  // nothing added, nothing removed
    }
  }
}

// Window starts under a hook are real event times, never a superseded
// runnable-heap key: here domain 1's 10 us timer key is superseded by a
// merged arrival at 200 ns that cancels the timer, and a hook handed the
// stale key would sample boundaries long past the end of the run.
TEST(ShardedEngineBoundaryHook, SeesOnlyRealEventTimes) {
  for (unsigned shards : {1u, 2u}) {
    ShardedEngine eng({.domains = 2, .lookahead = 50, .shards = shards});
    sim::Engine& d1 = eng.domainEngine(1);
    const sim::EventId timer = d1.postAt(10'000, [] {});
    eng.domainEngine(0).postAt(100, [&] {
      eng.sendAt(0, 1, 200, [&] { EXPECT_TRUE(d1.cancel(timer)); });
    });
    std::vector<SimTime> starts;
    eng.setBoundaryHook(1000, [&](SimTime t) { starts.push_back(t); });
    eng.run();
    EXPECT_EQ(starts, (std::vector<SimTime>{100, 200})) << "shards=" << shards;
    EXPECT_EQ(eng.maxNow(), 200);
    EXPECT_EQ(eng.windowsExecuted(), 2u);
  }
}

TEST(ShardedEngineSafety, EventExceptionPropagatesAndAborts) {
  for (unsigned shards : {1u, 4u}) {
    ShardedEngine eng({.domains = 4, .lookahead = 10, .shards = shards});
    // With several shards, domains 1 and 3 (on different shards) fail in
    // the same window: the lowest shard's exception wins, whatever the
    // thread schedule. The two meet before throwing, so both shards
    // really raise before the abort flag could skip one.
    const int throwers = shards > 1 ? 2 : 1;
    std::atomic<int> arrived{0};
    auto thrower = [&arrived, throwers](const char* what) {
      return [&arrived, throwers, what] {
        arrived.fetch_add(1);
        while (arrived.load() < throwers) std::this_thread::yield();
        throw SimError(what);
      };
    };
    eng.domainEngine(1).postAt(5, thrower("boom in domain 1"));
    if (shards > 1) eng.domainEngine(3).postAt(5, thrower("boom in domain 3"));
    for (std::uint32_t d = 0; d < 4; ++d) {
      // Far future: may be skipped after abort.
      eng.domainEngine(d).postAt(1000, [] {});
    }
    try {
      eng.run();
      FAIL() << "expected SimError (shards=" << shards << ")";
    } catch (const SimError& e) {
      EXPECT_EQ(std::string(e.what()), "boom in domain 1")
          << "shards=" << shards;
    }
    // The engine is not wedged: a fresh run() drains what remains.
    eng.run();
    EXPECT_EQ(eng.pendingEvents(), 0u) << "shards=" << shards;
    EXPECT_EQ(eng.maxNow(), 1000) << "shards=" << shards;
  }
}

// --- runUntil windows -----------------------------------------------------

TEST(ShardedEngineRunUntil, HorizonPartitionsTheRun) {
  // Events record into per-domain vectors: with shards > 1, same-window
  // events in different domains execute concurrently, so a shared sink
  // would be a data race in the test itself.
  using FiredBy = std::array<std::vector<SimTime>, 3>;
  auto gather = [](const FiredBy& firedBy) {
    std::vector<SimTime> all;
    for (const auto& v : firedBy) all.insert(all.end(), v.begin(), v.end());
    std::sort(all.begin(), all.end());
    return all;
  };
  auto build = [](ShardedEngine& eng, FiredBy& firedBy) {
    for (std::uint32_t d = 0; d < 3; ++d) {
      sim::Engine& e = eng.domainEngine(d);
      for (SimTime t : {100, 250, 400, 900}) {
        e.postAt(t, [&e, &firedBy, d] { firedBy[d].push_back(e.now()); });
      }
    }
  };
  for (unsigned shards : {1u, 3u}) {
    ShardedEngine eng({.domains = 3, .lookahead = 20, .shards = shards});
    FiredBy firedBy;
    build(eng, firedBy);
    EXPECT_FALSE(eng.runUntil(250));
    std::vector<SimTime> fired = gather(firedBy);
    EXPECT_EQ(fired.size(), 6u);  // t=100 and t=250 in all three domains
    for (SimTime t : fired) EXPECT_LE(t, 250);
    for (std::uint32_t d = 0; d < 3; ++d) EXPECT_EQ(eng.now(d), 250);
    EXPECT_TRUE(eng.runUntil(10'000));
    fired = gather(firedBy);
    EXPECT_EQ(fired.size(), 12u);
    EXPECT_EQ(eng.pendingEvents(), 0u);

    // An uninterrupted run executes the identical multiset of times.
    ShardedEngine whole({.domains = 3, .lookahead = 20, .shards = shards});
    FiredBy wholeFiredBy;
    build(whole, wholeFiredBy);
    whole.run();
    EXPECT_EQ(fired, gather(wholeFiredBy));
  }
}

// Without a boundary hook a superseded runnable-heap key can be all that
// is left past the horizon: domain 1's 10 us timer key is superseded by a
// merged arrival at 200 ns that cancels the timer. runUntil must still
// report the drain, keep the window schedule it had, and so reach its
// deadlock check.
TEST(ShardedEngineRunUntil, SupersededKeyPastHorizonStillDrains) {
  auto build = [](ShardedEngine& eng) {
    sim::Engine& d1 = eng.domainEngine(1);
    const sim::EventId timer = d1.postAt(10'000, [] {});
    eng.domainEngine(0).postAt(100, [&eng, &d1, timer] {
      eng.sendAt(0, 1, 200, [&d1, timer] { EXPECT_TRUE(d1.cancel(timer)); });
    });
  };
  for (unsigned shards : {1u, 2u}) {
    ShardedEngine eng({.domains = 2, .lookahead = 50, .shards = shards});
    build(eng);
    EXPECT_TRUE(eng.runUntil(5'000)) << "shards=" << shards;
    EXPECT_EQ(eng.pendingEvents(), 0u);
    EXPECT_EQ(eng.windowsExecuted(), 2u) << "shards=" << shards;
    EXPECT_EQ(eng.maxNow(), 5'000);

    ShardedEngine stuck({.domains = 2, .lookahead = 50, .shards = shards});
    build(stuck);
    sim::Engine& d1 = stuck.domainEngine(1);
    sim::Signal never(d1);
    sim::Process waiter(d1, "waiter",
                        [&] { d1.currentProcess()->await(never); });
    EXPECT_THROW(stuck.runUntil(5'000), sim::DeadlockError)
        << "shards=" << shards;
  }
}

// --- Runtime profiler ------------------------------------------------------

/// Closed-loop token traffic over `domains` domains: each domain starts
/// two tokens; every hop mixes (time, token, hop) into the current
/// domain's digest and forwards the token — a third of the time to a
/// local timer, otherwise across a random domain at a jittered
/// lookahead-or-later arrival. Per-domain digests are written only by
/// their own domain, so the fold is race-free at any shard count.
struct TrafficResult {
  std::uint64_t digest = Tracer::kDigestSeed;
  std::uint64_t events = 0;
  std::uint64_t windows = 0;
  std::uint64_t crossShard = 0;
  SimTime endTime = 0;
  std::uint32_t domains = 0;
  unsigned shardsUsed = 0;
  double loadImbalance = 0.0;
  std::vector<sim::ShardProfile> shardProfiles;  // empty unless profiled
};

TrafficResult runTraffic(std::uint32_t domains, unsigned shards,
                         std::uint64_t seed, bool profile) {
  constexpr Duration kLookahead = 100;
  constexpr std::uint32_t kHops = 24;
  ShardedEngine eng(
      {.domains = domains, .lookahead = kLookahead, .shards = shards});
  eng.setProfiling(profile);
  std::vector<std::uint64_t> digests(domains, Tracer::kDigestSeed);
  struct Ctx {
    ShardedEngine* eng;
    std::vector<std::uint64_t>* digests;
    std::uint64_t seed;
    std::uint32_t domains;
  };
  Ctx ctx{&eng, &digests, seed, domains};
  struct Token {
    static void hop(Ctx* c, std::uint32_t d, std::uint64_t token,
                    std::uint32_t n) {
      const SimTime now = c->eng->now(d);
      std::uint64_t& dig = (*c->digests)[d];
      dig = Tracer::combineDigest(
          dig, mix64(c->seed ^ static_cast<std::uint64_t>(now) ^
                     (token << 8) ^ n));
      if (n >= kHops) return;
      const std::uint64_t r = mix64(c->seed ^ (token * 131 + n));
      auto next = [c, token, n](std::uint32_t to) {
        return [c, to, token, n] { Token::hop(c, to, token, n + 1); };
      };
      if (r % 3 == 0) {
        c->eng->domainEngine(d).post(static_cast<Duration>(r % 50),
                                     next(d));
      } else {
        const auto to = static_cast<std::uint32_t>((r >> 8) % c->domains);
        c->eng->sendAt(d, to, now + kLookahead + (r >> 20) % 37, next(to));
      }
    }
  };
  for (std::uint32_t d = 0; d < domains; ++d) {
    for (std::uint64_t t = 0; t < 2; ++t) {
      const std::uint64_t token = 2 * d + t;
      eng.domainEngine(d).postAt(static_cast<SimTime>(t), [&ctx, d, token] {
        Token::hop(&ctx, d, token, 0);
      });
    }
  }
  eng.run();
  TrafficResult res;
  for (std::uint64_t dig : digests) {
    res.digest = Tracer::combineDigest(res.digest, dig);
  }
  res.events = eng.executedEvents();
  res.windows = eng.windowsExecuted();
  res.crossShard = eng.crossShardEvents();
  res.endTime = eng.maxNow();
  res.domains = eng.domainCount();
  res.shardsUsed = eng.shards();
  res.loadImbalance = eng.loadImbalance();
  if (profile) res.shardProfiles = eng.shardProfiles();
  return res;
}

TEST(PdesProfiler, ProfilingDoesNotPerturbTheSimulation) {
  // The profiler reads wall clocks and writes per-shard tallies; it must
  // never feed back into virtual time. Same digest with it on and off.
  const std::uint64_t seed = testing::testRunSeed() + 403;
  for (unsigned shards : {1u, 3u}) {
    const TrafficResult off = runTraffic(8, shards, seed, false);
    EXPECT_TRUE(off.shardProfiles.empty());
    const TrafficResult on = runTraffic(8, shards, seed, true);
    EXPECT_EQ(on.digest, off.digest) << "shards=" << shards;
    EXPECT_EQ(on.events, off.events) << "shards=" << shards;
    EXPECT_EQ(on.windows, off.windows) << "shards=" << shards;
    EXPECT_EQ(on.endTime, off.endTime) << "shards=" << shards;
    ASSERT_EQ(on.shardProfiles.size(), on.shardsUsed);
  }
  // The workload itself is shard-count invariant.
  EXPECT_EQ(runTraffic(8, 3, seed, false).digest,
            runTraffic(8, 1, seed, false).digest);
}

TEST(PdesProfiler, ShardProfilesReconcileWithEngineTotals) {
  const TrafficResult res =
      runTraffic(8, 3, testing::testRunSeed() + 404, true);
  ASSERT_EQ(res.shardProfiles.size(), 3u);

  std::uint64_t events = 0;
  std::uint64_t crossSent = 0;
  std::uint32_t domains = 0;
  for (const sim::ShardProfile& p : res.shardProfiles) {
    events += p.events;
    crossSent += p.crossShardSent;
    domains += p.domains;
    // A shard is active in at most every window the engine executed.
    EXPECT_LE(p.windowsActive, res.windows) << "shard " << p.shard;
  }
  EXPECT_EQ(events, res.events);
  EXPECT_EQ(crossSent, res.crossShard);
  EXPECT_GT(res.crossShard, 0u);
  EXPECT_EQ(domains, res.domains);
  EXPECT_GE(res.loadImbalance, 1.0);
  // 8 domains over 3 shards: imbalance is real but bounded — the
  // max-loaded shard cannot exceed the total.
  EXPECT_LE(res.loadImbalance, 3.0);
}

TEST(PdesProfiler, SerialPathTimesWindowsToo) {
  const TrafficResult res =
      runTraffic(8, 1, testing::testRunSeed() + 405, true);
  ASSERT_EQ(res.shardProfiles.size(), 1u);
  const sim::ShardProfile& p = res.shardProfiles.front();
  EXPECT_EQ(p.events, res.events);
  EXPECT_EQ(p.domains, res.domains);
  EXPECT_GT(p.windowsActive, 0u);
  EXPECT_LE(p.windowsActive, res.windows);
  EXPECT_EQ(p.barrierWaitNs, 0u) << "no barrier on the serial path";
  EXPECT_DOUBLE_EQ(res.loadImbalance, 1.0);
}

}  // namespace
}  // namespace vibe
