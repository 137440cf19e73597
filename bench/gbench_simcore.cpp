// Wall-clock microbenchmarks of the simulation substrate itself
// (google-benchmark): event throughput, process context-switch cost,
// resource pipeline arithmetic, and PRNG speed. These bound how fast the
// VIBe suite itself runs — useful when extending the workloads.
#include <benchmark/benchmark.h>

#include <chrono>

#include "bench_json.hpp"
#include "simcore/engine.hpp"
#include "simcore/process.hpp"
#include "simcore/prng.hpp"
#include "simcore/resource.hpp"
#include "vibe/datatransfer.hpp"
#include "nic/profiles.hpp"

namespace {

using namespace vibe::sim;

void BM_EventDispatch(benchmark::State& state) {
  const int batch = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Engine eng;
    for (int i = 0; i < batch; ++i) {
      eng.post(i, [] {});
    }
    eng.run();
    benchmark::DoNotOptimize(eng.executedEvents());
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_EventDispatch)->Arg(1000)->Arg(10000);

void BM_SelfRescheduling(benchmark::State& state) {
  // A single event chain of depth N: stresses push/pop interleaving.
  const int depth = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Engine eng;
    int remaining = depth;
    std::function<void()> step = [&] {
      if (--remaining > 0) eng.post(1, step);
    };
    eng.post(1, step);
    eng.run();
    benchmark::DoNotOptimize(remaining);
  }
  state.SetItemsProcessed(state.iterations() * depth);
}
BENCHMARK(BM_SelfRescheduling)->Arg(10000);

void BM_ProcessContextSwitch(benchmark::State& state) {
  // Each advance() is two fiber switches (engine->proc->engine).
  const int hops = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Engine eng;
    Process p(eng, "hopper", [&] {
      for (int i = 0; i < hops; ++i) {
        eng.currentProcess()->advance(10);
      }
    });
    eng.run();
  }
  state.SetItemsProcessed(state.iterations() * hops);
}
BENCHMARK(BM_ProcessContextSwitch)->Arg(200);

void BM_ProcessPingPong(benchmark::State& state) {
  // VL_uBMK's pingpong shape: per round, "ping" hands `burst` messages to
  // "pong" and waits for `burst` back. Every message is a Signal handoff
  // between the two processes, so this is the cross-context handoff cost.
  const int rounds = static_cast<int>(state.range(0));
  const int burst = static_cast<int>(state.range(1));
  for (auto _ : state) {
    Engine eng;
    Signal toPong(eng);
    Signal toPing(eng);
    int pongInbox = 0;
    int pingInbox = 0;
    auto send = [&](int& inbox, Signal& s) {
      for (int b = 0; b < burst; ++b) {
        ++inbox;
        s.notifyAll();
        eng.currentProcess()->advance(1);  // let the peer take it
      }
    };
    auto receive = [&](int& inbox, Signal& s) {
      for (int b = 0; b < burst; ++b) {
        while (inbox == 0) eng.currentProcess()->await(s);
        --inbox;
      }
    };
    Process ping(eng, "ping", [&] {
      for (int r = 0; r < rounds; ++r) {
        send(pongInbox, toPong);
        receive(pingInbox, toPing);
      }
    });
    Process pong(eng, "pong", [&] {
      for (int r = 0; r < rounds; ++r) {
        receive(pongInbox, toPong);
        send(pingInbox, toPing);
      }
    });
    eng.run();
  }
  state.SetItemsProcessed(state.iterations() * 2 * rounds * burst);
}
// VL_uBMK's default (10 rounds of 7), then one- and many-message bursts.
BENCHMARK(BM_ProcessPingPong)->Args({10, 7})->Args({100, 1})->Args({100, 16});

void BM_ResourceAcquire(benchmark::State& state) {
  Resource r("bench");
  SimTime t = 0;
  for (auto _ : state) {
    t = r.acquire(t, 3);
    benchmark::DoNotOptimize(t);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ResourceAcquire);

void BM_PrngUniform(benchmark::State& state) {
  Xoshiro256 rng(42);
  double acc = 0;
  for (auto _ : state) {
    acc += rng.uniform();
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PrngUniform);

// --- VIBE_JSON=1 trajectory: direct wall-clock measurements, written to
// BENCH_simcore.json so successive PRs have a recorded perf history. ---

double secondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Best-of-3 wall-clock events/sec: batches of timer posts drained by run(),
/// the same shape as BM_EventDispatch.
double measureEventsPerSec() {
  constexpr int kBatch = 10000;
  constexpr int kBatches = 100;
  double best = 0;
  for (int rep = 0; rep < 3; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    for (int b = 0; b < kBatches; ++b) {
      Engine eng;
      for (int i = 0; i < kBatch; ++i) {
        eng.post(i, [] {});
      }
      eng.run();
      benchmark::DoNotOptimize(eng.executedEvents());
    }
    best = std::max(best, kBatch * kBatches / secondsSince(t0));
  }
  return best;
}

/// Best-of-3 post+cancel pairs/sec: the retransmit-timer pattern.
double measureCancelsPerSec() {
  constexpr int kPairs = 1000000;
  double best = 0;
  for (int rep = 0; rep < 3; ++rep) {
    Engine eng;
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < kPairs; ++i) {
      const EventId id = eng.post(1000000, [] {});
      eng.cancel(id);
    }
    best = std::max(best, kPairs / secondsSince(t0));
    eng.run();
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (vibe::bench::jsonRequested()) {
    // Simulated 64-byte cLAN ping-pong: wall cost of the full stack plus
    // the (deterministic) virtual-time latency it reports.
    vibe::suite::ClusterConfig cluster;
    cluster.profile = vibe::nic::clanProfile();
    vibe::suite::TransferConfig cfg;
    cfg.msgBytes = 64;
    cfg.iterations = 200;
    cfg.warmup = 4;
    const auto t0 = std::chrono::steady_clock::now();
    const auto pp = vibe::suite::runPingPong(cluster, cfg);
    const double ppWall = secondsSince(t0);
    vibe::bench::writeBenchJson(
        "simcore", {{"events_per_sec", measureEventsPerSec()},
                    {"post_cancel_pairs_per_sec", measureCancelsPerSec()},
                    {"pingpong_sim_usec", pp.latencyUsec},
                    {"pingpong_wall_sec", ppWall}});
  }
  return 0;
}
