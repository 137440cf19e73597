// Shared helpers for the VIBe bench binaries: the three paper profiles,
// paper-reference printing, result assembly, and the shard-sweep driver
// behind the standalone scale demos.
#pragma once

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "harness/sweep.hpp"
#include "nic/profiles.hpp"
#include "obs/metrics.hpp"
#include "simcore/pdes.hpp"
#include "simcore/trace.hpp"
#include "vibe/cluster.hpp"
#include "vibe/report.hpp"
#include "vibe/results.hpp"

namespace vibe::bench {

struct NamedProfile {
  std::string shortName;
  nic::NicProfile profile;
};

inline std::vector<NamedProfile> paperProfiles() {
  return {{"mvia", nic::mviaProfile()},
          {"bvia", nic::bviaProfile()},
          {"clan", nic::clanProfile()}};
}

/// True when a stats appendix was requested (`--stats` flag, which sets
/// the variable, or VIBE_STATS=1 directly).
inline bool statsRequested() {
  const char* v = std::getenv("VIBE_STATS");
  return v != nullptr && v[0] == '1';
}

/// VIBE_METRICS_OUT destination for the final-registry JSON dump, or
/// nullptr when unset/empty.
inline const char* metricsOutPath() {
  const char* v = std::getenv("VIBE_METRICS_OUT");
  return (v != nullptr && v[0] != '\0') ? v : nullptr;
}

/// True when the benchmark clusters should publish into statsRegistry():
/// either the stdout appendix (--stats / VIBE_STATS=1) or the JSON dump
/// (VIBE_METRICS_OUT=<path>) was requested.
inline bool statsAttached() {
  return statsRequested() || metricsOutPath() != nullptr;
}

/// Process-wide registry the benchmark clusters publish into when stats
/// are requested. Owned here so every cluster built via clusterFor()
/// accumulates into one appendix.
inline obs::MetricsRegistry& statsRegistry() {
  static obs::MetricsRegistry registry;
  return registry;
}

/// Installs the end-of-run appendix printer and, when VIBE_METRICS_OUT
/// is set, the final-registry schema-2 JSON dump (idempotent).
inline void installStatsAppendix() {
  static bool installed = false;
  if (installed) return;
  installed = true;
  // Construct the registry static BEFORE registering the atexit handler:
  // handlers and static destructors unwind together in reverse order, so
  // the handler must come later to still find the registry alive.
  statsRegistry();
  std::atexit([] {
    if (statsRequested()) {
      const std::string appendix =
          suite::renderStatsAppendix(statsRegistry());
      if (!appendix.empty()) std::printf("%s", appendix.c_str());
    }
    if (const char* path = metricsOutPath()) {
      const std::string body = obs::renderMetricsJson(statsRegistry());
      if (std::FILE* f = std::fopen(path, "w")) {
        std::fwrite(body.data(), 1, body.size(), f);
        std::fclose(f);
      } else {
        std::fprintf(stderr, "VIBE_METRICS_OUT: cannot open %s\n", path);
      }
    }
  });
}

/// Strips a `--stats` flag from argv (exporting VIBE_STATS=1 so helpers
/// and child clusters observe it) and arms the appendix printer. Call at
/// the top of a bench main before handing argv to other parsers.
inline void parseStatsFlag(int& argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--stats") {
      setenv("VIBE_STATS", "1", 1);
      for (int j = i; j + 1 < argc; ++j) argv[j] = argv[j + 1];
      --argc;
      break;
    }
  }
  if (statsAttached()) installStatsAppendix();
}

inline suite::ClusterConfig clusterFor(const nic::NicProfile& p,
                                       std::uint32_t nodes = 2) {
  suite::ClusterConfig c;
  c.profile = p;
  c.nodes = nodes;
  if (statsAttached()) {
    c.metrics = &statsRegistry();
    installStatsAppendix();
  }
  return c;
}

/// Sweep-point variant of clusterFor: publishes into the point's private
/// registry (set exactly when stats were requested via sweepOptions())
/// instead of the shared process-wide one, so points can run on worker
/// threads without racing on statsRegistry(). The harness merges the
/// per-point registries into statsRegistry() in index order afterwards.
inline suite::ClusterConfig clusterFor(const nic::NicProfile& p,
                                       std::uint32_t nodes,
                                       const harness::PointEnv& env) {
  suite::ClusterConfig c;
  c.profile = p;
  c.nodes = nodes;
  c.metrics = env.metrics;
  return c;
}

/// Options for harness::runSweep in a bench driver: when stats are
/// requested, arms the appendix printer and routes the per-point
/// registries into statsRegistry().
inline harness::SweepOptions sweepOptions() {
  harness::SweepOptions opts;
  if (statsAttached()) {
    installStatsAppendix();
    opts.mergeInto = &statsRegistry();
  }
  return opts;
}

/// Prints a table; with VIBE_CSV=1 in the environment, also emits the
/// machine-readable CSV block (for plotting scripts), and with VIBE_JSON=1
/// a one-line JSON block (for trajectory/regression tooling).
inline void emit(const suite::ResultTable& table, int precision = 2) {
  std::printf("%s\n", table.renderText(precision).c_str());
  const char* csv = std::getenv("VIBE_CSV");
  if (csv != nullptr && csv[0] == '1') {
    std::printf("--- csv: %s ---\n%s--- end csv ---\n\n",
                table.title().c_str(), table.renderCsv().c_str());
  }
  const char* json = std::getenv("VIBE_JSON");
  if (json != nullptr && json[0] == '1') {
    std::printf("--- json: %s ---\n%s\n--- end json ---\n\n",
                table.title().c_str(), table.renderJson().c_str());
  }
}

inline void printHeader(const std::string& what, const std::string& paperRef) {
  std::printf("\n############################################################\n");
  std::printf("# VIBe reproduction: %s\n", what.c_str());
  std::printf("# Paper reference: %s\n", paperRef.c_str());
  std::printf("############################################################\n");
}

/// Engine-mode witness of one cluster run: the virtual end time, a fold
/// of every node's NicStats, and the engine's executed events and
/// windows. Identical witnesses across shard counts mean the runs
/// executed the same per-domain schedules, not merely similar ones.
struct RunWitness {
  sim::SimTime endTime = 0;
  std::uint64_t nicDigest = 0;
  std::uint64_t events = 0;
  std::uint64_t windows = 0;

  bool operator==(const RunWitness&) const = default;
};

/// Witness of `cluster` after its run().
inline RunWitness witnessOf(suite::Cluster& cluster) {
  RunWitness w;
  w.endTime = cluster.now();
  w.nicDigest = 0xcbf29ce484222325ull;
  for (std::uint32_t n = 0; n < cluster.nodeCount(); ++n) {
    const nic::NicStats& s = cluster.node(n).device().stats();
    for (std::uint64_t v :
         {s.sendsPosted, s.recvsPosted, s.fragsTx, s.fragsRx, s.bytesTx,
          s.bytesRx, s.acksTx, s.acksRx, s.retransmits, s.rxCorrupted,
          s.rxDroppedNoDescriptor, s.rxDroppedBadEndpoint,
          s.rxOutOfOrderDropped, s.protocolErrors}) {
      w.nicDigest = sim::Tracer::combineDigest(w.nicDigest, v);
    }
  }
  w.events = cluster.shardedEngine().executedEvents();
  w.windows = cluster.shardedEngine().windowsExecuted();
  return w;
}

/// One demo-specific column of a shard sweep, printed as %12.*f.
struct DemoColumn {
  const char* name;
  int precision;
};

/// Standalone scale demo driver (wall-clock columns cannot be golden):
/// runs `runOnce(shards, witness)` at worker shard counts 1, 2, 4 (plus
/// shardCount() when larger), which returns one value per column. Prints
/// one row per run with wall time, events/sec and speedup, checks every
/// witness against the shards=1 run, and returns the exit code: 0 when
/// every witness matches.
inline int shardSweepDemo(
    const std::vector<DemoColumn>& columns,
    const std::function<std::vector<double>(std::uint32_t, RunWitness&)>&
        runOnce) {
  struct ShardRun {
    std::uint32_t shards = 0;
    double wallMs = 0;
    std::vector<double> cells;
    RunWitness w;
  };
  std::vector<std::uint32_t> shardCounts = {1u, 2u, 4u};
  if (sim::shardCount() > 4) shardCounts.push_back(sim::shardCount());
  std::vector<ShardRun> runs;
  for (std::uint32_t s : shardCounts) {
    ShardRun r;
    r.shards = s;
    const auto t0 = std::chrono::steady_clock::now();
    r.cells = runOnce(s, r.w);
    r.wallMs = std::chrono::duration<double, std::milli>(
                   std::chrono::steady_clock::now() - t0)
                   .count();
    runs.push_back(std::move(r));
  }
  const ShardRun& base = runs.front();
  bool deterministic = true;
  std::printf("%8s %12s %14s", "shards", "wall_ms", "events/sec");
  for (const DemoColumn& c : columns) std::printf(" %12s", c.name);
  std::printf(" %10s %10s\n", "speedup", "witness");
  for (const ShardRun& r : runs) {
    const bool same = r.w == base.w;
    deterministic = deterministic && same;
    std::printf("%8u %12.0f %14.0f", r.shards, r.wallMs,
                static_cast<double>(r.w.events) / (r.wallMs / 1e3));
    for (std::size_t i = 0; i < columns.size(); ++i) {
      std::printf(" %12.*f", columns[i].precision, r.cells[i]);
    }
    std::printf(" %9.2fx %10s\n", base.wallMs / r.wallMs,
                same ? "match" : "DIVERGED");
    if (!same) {
      std::printf(
          "DETERMINISM FAIL at shards=%u: end %lld vs %lld, digest %016llx "
          "vs %016llx, events %llu vs %llu, windows %llu vs %llu\n",
          r.shards, static_cast<long long>(r.w.endTime),
          static_cast<long long>(base.w.endTime),
          static_cast<unsigned long long>(r.w.nicDigest),
          static_cast<unsigned long long>(base.w.nicDigest),
          static_cast<unsigned long long>(r.w.events),
          static_cast<unsigned long long>(base.w.events),
          static_cast<unsigned long long>(r.w.windows),
          static_cast<unsigned long long>(base.w.windows));
    }
  }
  std::printf("determinism across shard counts: %s\n",
              deterministic ? "OK (witnesses byte-identical)" : "FAILED");
  if (std::thread::hardware_concurrency() <= 1) {
    std::printf(
        "note: single-core host; worker threads time-slice one core, so "
        "speedup ~= 1.0 here by necessity (see docs/PDES.md)\n");
  }
  return deterministic ? 0 : 1;
}

}  // namespace vibe::bench
