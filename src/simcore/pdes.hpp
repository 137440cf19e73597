// Conservative parallel discrete-event engine (PDES).
//
// A ShardedEngine partitions simulation state into `domains` — logical
// groups (e.g. the NICs and links behind one switch) whose events never
// touch another domain's state directly. Every domain hosts a full serial
// sim::Engine (cancellable timers, cooperative Processes), reachable via
// domainEngine(). Domains are packed onto `shards` worker threads (domain
// d runs on shard d % shards) and advance in lockstep windows of virtual
// time, each hosted engine driven through Engine::runWindow:
//
//   window = [T, T + lookahead)  where T is the global minimum pending
//   event time and `lookahead` is the minimum latency any cross-domain
//   interaction must pay (the smallest inter-switch hop in the fabric
//   being modeled).
//
// Within one window every shard executes its domains' events with no
// locks and no communication: a cross-domain arrival scheduled at
// t >= T + lookahead lands at or after the window's end, so nothing a
// peer does during the window can affect events inside it. Within a
// domain the full serial feature set — including O(1) timer cancel — is
// legal; cross-domain interaction is restricted to sendAt(), and a parked
// foreign engine rejects postAt/cancel outright (the windowed-mode
// guard).
//
// Determinism contract (see docs/PDES.md):
//   A hosted engine orders same-time events by insertion sequence. Every
//   cross-domain sendAt() during a run is parked in its source domain's
//   outbox — even when source and destination share a shard — and the
//   single-threaded barrier step drains the outboxes in ascending source
//   domain order, entries in send order. Each destination's insertion
//   order, and therefore every per-domain output, is then a pure function
//   of the model: byte-identical for any shard count and any thread
//   schedule. Every shard count runs the same window loop: the calling
//   thread is shard 0, and shards > 1 only add shards - 1 threads and a
//   barrier. With one shard the calling thread completes each window
//   itself, mirroring the harness's VIBE_JOBS=1 contract. A single
//   domain degenerates to one window covering the whole horizon: the
//   serial engine, bit for bit.
//
// Every suite::Cluster runs on this engine: one domain when its
// simShards is 0, one domain per switch otherwise. Sharding scales a
// *single* simulation across cores (VIBE_SIM_SHARDS), orthogonal to the
// sweep harness that runs independent simulations in parallel
// (VIBE_JOBS).
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <vector>

#include "simcore/engine.hpp"
#include "simcore/event_fn.hpp"
#include "simcore/time.hpp"

namespace vibe::sim {

/// Thread count from environment variable `var`: its value when set to a
/// positive integer, otherwise std::thread::hardware_concurrency()
/// (minimum 1). Read on every call so tests can flip the variable.
unsigned envThreadCount(const char* var);

/// Shard count for sharded engines: envThreadCount("VIBE_SIM_SHARDS").
/// The sweep harness's jobCount() reads VIBE_JOBS the same way.
unsigned shardCount();

/// Runtime-profiler snapshot for one shard of a ShardedEngine (see
/// shardProfiles()). Event/domain counts are deterministic; the *Ns
/// fields are host wall-clock and vary run to run — keep them out of
/// golden output.
struct ShardProfile {
  unsigned shard = 0;
  std::uint32_t domains = 0;        // domains packed onto this shard
  std::uint64_t events = 0;         // events executed by those domains
  std::uint64_t crossShardSent = 0; // sends that left this shard
  std::uint64_t windowsActive = 0;  // windows with >= 1 event here
  std::uint64_t execNs = 0;         // wall time executing events
  std::uint64_t barrierWaitNs = 0;  // wall time blocked at the barrier
};

/// Construction parameters for a ShardedEngine.
struct EngineConfig {
  /// Number of state-disjoint domains the model is partitioned into.
  std::uint32_t domains = 1;
  /// Minimum virtual-time latency of any cross-domain interaction; the
  /// conservative window width. Must be > 0 when more than one shard
  /// actually runs (with a single shard 0 is allowed: the window
  /// degenerates to one timestamp at a time).
  Duration lookahead = 0;
  /// Worker threads; 0 = shardCount() (VIBE_SIM_SHARDS / hardware).
  /// Clamped to `domains`. The calling thread is shard 0, so 1 spawns
  /// no thread.
  unsigned shards = 0;
};

class ShardedEngine {
 public:
  explicit ShardedEngine(const EngineConfig& cfg);
  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;
  ~ShardedEngine();

  std::uint32_t domainCount() const { return domainCountU32_; }
  /// Shards actually used (after the env default and the domain clamp).
  unsigned shards() const { return shards_; }
  Duration lookahead() const { return lookahead_; }
  /// Shard that owns a domain (round-robin packing).
  std::uint32_t shardOf(std::uint32_t domain) const {
    return domain % shards_;
  }

  /// Virtual time of `domain`'s engine. During a parallel run, call only
  /// from `domain`'s own context.
  SimTime now(std::uint32_t domain) const;

  /// The serial engine hosted by `domain`. Build the domain's simulation
  /// state (NICs, processes, timers) directly on it; during run() it is
  /// driven in lockstep windows.
  Engine& domainEngine(std::uint32_t domain);

  /// Cross-domain delivery: `fn` runs in `dst`'s engine at absolute time
  /// `at`. During run() `at` must lie at or past the open window's end
  /// (i.e. the caller must have paid the lookahead — link serialization +
  /// propagation guarantees this for fabric traffic); violations throw
  /// SimError. src == dst posts directly. Setup-time calls (before run())
  /// schedule directly too.
  void sendAt(std::uint32_t src, std::uint32_t dst, SimTime at, EventFn fn);

  /// Sampling support: clamps every window end to the next multiple of
  /// `period` and invokes `flush(T)` at each window start T from the
  /// single-threaded completion step — every event strictly before T has
  /// executed, none at or after T has, so `flush` may read any domain's
  /// state (TimeSeriesSampler::flushUntil is the intended hook). Every
  /// domain engine is parked, so `flush` must not schedule: postAt and
  /// cancel throw SimError there. Pass (0, nullptr) to clear.
  void setBoundaryHook(Duration period, std::function<void(SimTime)> flush);

  /// Max over domain clocks — Engine::now() of the whole model after a
  /// run (the time of the last executed event, or the horizon).
  SimTime maxNow() const;

  /// Runs windows until every domain queue and outbox drains. Rethrows
  /// the first (lowest-shard) exception raised by an event callback.
  /// Throws DeadlockError after the drain if any hosted process is still
  /// blocked on a signal (the global analogue of the serial engine's
  /// drain-time deadlock check).
  void run();

  /// Runs events with time <= `until` (absolute; the horizon is
  /// inclusive) and advances every domain clock to `until`. Returns true
  /// if the queues drained completely, after the same deadlock check as
  /// run(). Domain clocks never move backwards: a horizon in the past
  /// leaves them where they are.
  bool runUntil(SimTime until);

  /// --- Introspection (sum over domains; call when not running) ---

  /// Total events executed.
  std::uint64_t executedEvents() const;
  /// Events scheduled and not yet fired (pending in the domain engines
  /// plus parked in outboxes).
  std::uint64_t pendingEvents() const;
  /// sendAt() calls with src != dst (independent of the shard count).
  std::uint64_t crossDomainEvents() const;
  /// sendAt() calls whose source and destination domains live on
  /// different shards.
  std::uint64_t crossShardEvents() const;
  /// Conservative windows executed (barrier count in a parallel run).
  std::uint64_t windowsExecuted() const { return windows_; }

  /// --- Runtime profiler (opt-in; see docs/PDES.md) ---

  /// Enables per-shard wall-clock profiling for subsequent run()s. The
  /// timers feed diagnostics only — nothing they measure flows back into
  /// the simulation, so the determinism contract is unaffected (pinned
  /// by test_pdes). Call between runs, not during one.
  void setProfiling(bool on);
  bool profiling() const { return profiling_; }

  /// One snapshot per shard: deterministic event/window counts summed
  /// from the shard's domains plus wall-clock exec and barrier-wait time
  /// accumulated while profiling was enabled. Call when not running.
  std::vector<ShardProfile> shardProfiles() const;

  /// max/mean of per-shard executed events: 1.0 = perfectly balanced.
  /// Returns 1.0 when nothing executed.
  double loadImbalance() const;

 private:
  struct Domain;

  // Runnable-domain heaps (Shard::runnable): at thousands of mostly-idle
  // domains, touching every domain every window — the completion step's
  // O(domains) next-event scan plus each worker's O(domains/shards)
  // execute pass — is the Amdahl floor of thin-window runs. Instead each
  // shard keeps a lazy min-heap of (next event time, domain) over the
  // domains it owns, so a window costs O(active domains · log).
  // Domain::key is the key the owner's heap currently holds for the
  // domain (kNoEvent when absent): pushes that don't beat it are skipped,
  // pops that don't match it are stale duplicates. Keys may run stale-low
  // (a superseded entry surfaces first); the pop re-checks the real next
  // time and re-files, costing at worst an empty window round
  // (nextWindowStart drops them first under a boundary hook, which needs
  // real event times, and past the runUntil horizon, where they would
  // read as pending work). Rebuilt at every run entry. Nothing can schedule
  // behind the heaps' backs: during a run every domain engine is in
  // windowed mode, so a boundary hook (which runs while all of them are
  // parked) cannot postAt or cancel.
  //
  // Per-shard state. Every shard writes its own entry concurrently during
  // a parallel run; the trailing pad keeps two entries' fields off one
  // cache line without an over-aligned type, whose allocation costs
  // several times more (and every Cluster builds one of these engines).
  struct Shard {
    std::vector<std::pair<SimTime, std::uint32_t>> runnable;  // min-heap
    // Outbox dirty list: owned domains that parked >= 1 cross-domain
    // message this window, appended in ascending domain order; the merge
    // gathers and sorts them so the drain stays in domain order.
    std::vector<std::uint32_t> dirty;
    // Wall-clock profiler accumulators (while profiling()).
    std::uint64_t execNs = 0;
    std::uint64_t barrierWaitNs = 0;
    std::uint64_t windowsActive = 0;
    char pad[64];
  };

  void deliverOutboxes();
  /// The one window loop behind run() and runUntil(): windowed-mode
  /// bracketing, shard 0 on the calling thread plus shards_ - 1 spawned
  /// threads meeting at a barrier. Returns true if everything drained.
  bool runTo(SimTime horizon);
  /// Opens the next window, or sets done_ (and drained_ when nothing is
  /// pending). Single-threaded: before the shards start, then from the
  /// completion step.
  void prepareWindow();
  SimTime clampToBoundary(SimTime t, SimTime windowEnd) const;
  void setWindowedMode(bool on);
  void checkDeadlock() const;
  void markOutboxDirty(std::uint32_t src);
  void initRunnable();
  void pushRunnable(std::uint32_t d, SimTime t);
  SimTime nextWindowStart(SimTime horizon);
  std::uint64_t execShardWindow(unsigned shard, SimTime windowEnd);

  std::vector<Domain> domains_;  // each holds its domain's engine
  std::vector<Shard> perShard_;
  Duration boundaryPeriod_ = 0;
  std::function<void(SimTime)> boundaryFlush_;
  std::uint32_t domainCountU32_ = 0;
  unsigned shards_ = 1;
  Duration lookahead_ = 0;
  std::uint64_t windows_ = 0;
  bool profiling_ = false;

  // Run state shared by the shards. Written only by the completion step
  // (or before the shards start) and read by the shards after the
  // barrier releases them, so the barrier's happens-before edges are the
  // only synchronization needed.
  SimTime windowEnd_ = 0;
  SimTime horizon_ = 0;
  bool drained_ = false;
  bool done_ = false;
  std::atomic<bool> abort_{false};
  std::vector<std::exception_ptr> shardErrors_;

  // Merge scratch: the shards' dirty lists, gathered and sorted.
  std::vector<std::uint32_t> dirtyScratch_;

  bool running_ = false;
};

}  // namespace vibe::sim
