#include "simcore/pdes.hpp"

#include <algorithm>
#include <barrier>
#include <chrono>
#include <cstdlib>
#include <limits>
#include <optional>
#include <string>
#include <thread>
#include <utility>

namespace vibe::sim {

namespace {

constexpr SimTime kNoEvent = std::numeric_limits<SimTime>::max();
constexpr SimTime kMaxTime = std::numeric_limits<SimTime>::max();

constexpr SimTime satAdd(SimTime t, Duration d) {
  return t > kMaxTime - d ? kMaxTime : t + d;
}

std::uint64_t wallNowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Outbox entry: an absolute-time arrival bound for a foreign domain
/// engine. The entry carries no tie-break key: a domain engine orders
/// same-time events by its own insertion sequence, which is why the merge
/// must always run in domain order at the barrier (see deliverOutboxes).
struct Arrival {
  SimTime time;
  std::uint32_t dstDomain;
  EventFn fn;
};

}  // namespace

unsigned envThreadCount(const char* var) {
  if (const char* env = std::getenv(var)) {
    char* end = nullptr;
    const long n = std::strtol(env, &end, 10);
    if (end != env && n > 0) return static_cast<unsigned>(n);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

unsigned shardCount() { return envThreadCount("VIBE_SIM_SHARDS"); }

/// One domain: its engine and the bookkeeping beside it. During a
/// parallel window each shard writes only its own domains; the trailing
/// pad keeps neighbouring domains off a shared cache line (see Shard).
struct ShardedEngine::Domain {
  Engine engine;
  // Cross-domain sends originating here, drained at the window barrier by
  // the completion step. Per-domain (not per-shard) so the drain order is
  // a function of domain numbering alone and every write is single-writer.
  std::vector<Arrival> outbox;
  std::uint64_t executed = 0;  // events run through the window loop
  std::uint64_t crossDomain = 0;
  std::uint64_t crossShard = 0;
  // The key the owner shard's runnable heap holds for this domain
  // (kNoEvent when absent); see runnable-domain heaps in pdes.hpp.
  SimTime key = kNoEvent;
  char pad[64];
};

ShardedEngine::ShardedEngine(const EngineConfig& cfg)
    : domains_(cfg.domains),
      domainCountU32_(cfg.domains),
      lookahead_(cfg.lookahead) {
  if (cfg.domains == 0) {
    throw SimError("ShardedEngine: at least one domain is required");
  }
  if (cfg.lookahead < 0) {
    throw SimError("ShardedEngine: lookahead must be >= 0");
  }
  unsigned shards = cfg.shards != 0 ? cfg.shards : shardCount();
  if (shards > cfg.domains) shards = cfg.domains;
  shards_ = shards;
  if (shards_ > 1 && lookahead_ <= 0) {
    throw SimError(
        "ShardedEngine: conservative PDES needs lookahead > 0 to run more "
        "than one shard (no cross-shard latency means no safe window)");
  }
  perShard_.resize(shards_);
}

ShardedEngine::~ShardedEngine() = default;

SimTime ShardedEngine::now(std::uint32_t domain) const {
  if (domain >= domainCountU32_) {
    throw SimError("ShardedEngine::now: domain " + std::to_string(domain) +
                   " out of range [0, " + std::to_string(domainCountU32_) +
                   ")");
  }
  return domains_[domain].engine.now();
}

Engine& ShardedEngine::domainEngine(std::uint32_t domain) {
  if (domain >= domainCountU32_) {
    throw SimError("ShardedEngine::domainEngine: domain " +
                   std::to_string(domain) + " out of range [0, " +
                   std::to_string(domainCountU32_) + ")");
  }
  return domains_[domain].engine;
}

void ShardedEngine::sendAt(std::uint32_t src, std::uint32_t dst, SimTime at,
                           EventFn fn) {
  if (!fn) throw SimError("ShardedEngine::sendAt: null callable");
  if (src >= domainCountU32_ || dst >= domainCountU32_) {
    throw SimError("ShardedEngine::sendAt: domain out of range [0, " +
                   std::to_string(domainCountU32_) + ")");
  }
  if (src == dst) {
    domains_[src].engine.postAt(at, std::move(fn));
    return;
  }
  Domain& from = domains_[src];
  ++from.crossDomain;
  if (shardOf(src) != shardOf(dst)) ++from.crossShard;
  if (!running_) {
    // Setup phase, single driving thread: schedule directly.
    domains_[dst].engine.postAt(at, std::move(fn));
    return;
  }
  if (at < windowEnd_) {
    throw SimError(
        "ShardedEngine::sendAt: cross-domain arrival at t=" +
        std::to_string(at) + " ns lands inside the open window ending at " +
        std::to_string(windowEnd_) +
        " ns; the sender must pay the conservative lookahead");
  }
  // Always the outbox during a run — even same-shard — so the merge order
  // (and with it the destination engine's insertion-sequence tie order)
  // is a pure function of domain numbering, not of shard packing.
  if (from.outbox.empty()) markOutboxDirty(src);
  from.outbox.push_back(Arrival{at, dst, std::move(fn)});
}

void ShardedEngine::setBoundaryHook(Duration period,
                                    std::function<void(SimTime)> flush) {
  if (running_) {
    throw SimError("ShardedEngine::setBoundaryHook: engine is running");
  }
  if (flush && period <= 0) {
    throw SimError("ShardedEngine::setBoundaryHook: period must be > 0");
  }
  boundaryPeriod_ = flush ? period : 0;
  boundaryFlush_ = std::move(flush);
}

SimTime ShardedEngine::maxNow() const {
  SimTime t = 0;
  for (const Domain& dom : domains_) t = std::max(t, dom.engine.now());
  return t;
}

SimTime ShardedEngine::clampToBoundary(SimTime t, SimTime windowEnd) const {
  if (boundaryPeriod_ <= 0) return windowEnd;
  // The smallest grid multiple strictly greater than t: the window may
  // touch a sampling boundary only at its end, so the boundary flush at
  // the next window start sees every event before it and none at/after.
  const SimTime next =
      satAdd((t / boundaryPeriod_) * boundaryPeriod_, boundaryPeriod_);
  return std::min(windowEnd, next);
}

void ShardedEngine::setWindowedMode(bool on) {
  for (Domain& dom : domains_) dom.engine.setWindowedMode(on);
}

void ShardedEngine::checkDeadlock() const {
  std::string stuck;
  for (const Domain& dom : domains_) {
    const std::string names = dom.engine.blockedProcessNames();
    if (names.empty()) continue;
    if (!stuck.empty()) stuck += ", ";
    stuck += names;
  }
  if (!stuck.empty()) {
    throw DeadlockError(
        "simulation deadlock: event queues empty but processes blocked: " +
        stuck);
  }
}

void ShardedEngine::markOutboxDirty(std::uint32_t src) {
  perShard_[shardOf(src)].dirty.push_back(src);
}

void ShardedEngine::initRunnable() {
  for (Shard& sh : perShard_) sh.runnable.clear();
  for (Domain& dom : domains_) dom.key = kNoEvent;
  for (std::uint32_t d = 0; d < domainCountU32_; ++d) {
    const SimTime t = domains_[d].engine.nextEventTime();
    if (t != kNoEvent) pushRunnable(d, t);
  }
}

/// File domain d under key t in its owner's heap. Only the owning worker
/// (post-run re-file) or the single-threaded merge step may call this
/// for a given d.
void ShardedEngine::pushRunnable(std::uint32_t d, SimTime t) {
  if (t >= domains_[d].key) return;  // an entry at or below t is filed
  domains_[d].key = t;
  auto& h = perShard_[shardOf(d)].runnable;
  h.emplace_back(t, d);
  std::push_heap(h.begin(), h.end(), std::greater<>{});
}

/// Start of the next window: the earliest key over the shard heaps.
/// A superseded duplicate at a heap top only costs an empty window round
/// — except where it would be taken for a real event time. Under a
/// boundary hook it may lie past the last event, where the hook would
/// sample boundaries beyond the end of the run; and a superseded key past
/// `horizon` would make runUntil report "not drained" (skipping its
/// deadlock check) with nothing pending. So superseded heads are dropped
/// under a hook, and otherwise only once they lie past the horizon — no
/// window starts there, so the unhooked window schedule is unchanged.
/// Single-threaded (run loop or barrier completion step).
SimTime ShardedEngine::nextWindowStart(SimTime horizon) {
  SimTime t = kNoEvent;
  for (Shard& sh : perShard_) {
    auto& h = sh.runnable;
    while (!h.empty() && h.front().first != domains_[h.front().second].key &&
           (boundaryFlush_ || h.front().first > horizon)) {
      std::pop_heap(h.begin(), h.end(), std::greater<>{});
      h.pop_back();
    }
    if (!h.empty()) t = std::min(t, h.front().first);
  }
  return t;
}

/// One shard's window, heap-driven: pop every owned domain filed below
/// windowEnd, re-check its real next-event time (entries may be stale),
/// run the live ones, and re-file. Mid-window arrivals land at or past
/// windowEnd (the lookahead contract), so each domain runs its whole
/// window on the first live pop.
std::uint64_t ShardedEngine::execShardWindow(unsigned shard,
                                             SimTime windowEnd) {
  std::uint64_t executed = 0;
  auto& h = perShard_[shard].runnable;
  while (!h.empty() && h.front().first < windowEnd) {
    std::pop_heap(h.begin(), h.end(), std::greater<>{});
    const auto [t, d] = h.back();
    h.pop_back();
    if (t != domains_[d].key) continue;  // superseded duplicate
    domains_[d].key = kNoEvent;
    const SimTime actual = domains_[d].engine.nextEventTime();
    if (actual == kNoEvent) continue;
    if (actual >= windowEnd) {  // stale-low (e.g. a cancelled timer)
      pushRunnable(d, actual);
      continue;
    }
    const std::uint64_t n = domains_[d].engine.runWindow(windowEnd);
    domains_[d].executed += n;  // feeds shardProfiles()/loadImbalance()
    executed += n;
    const SimTime after = domains_[d].engine.nextEventTime();
    if (after != kNoEvent) pushRunnable(d, after);
  }
  return executed;
}

void ShardedEngine::deliverOutboxes() {
  // Gather the domains that actually parked messages (the sort restores
  // the global domain order) instead of scanning every outbox — at
  // thousands of mostly-idle domains per window the full scan is pure
  // serial overhead.
  dirtyScratch_.clear();
  for (Shard& sh : perShard_) {
    std::vector<std::uint32_t>& v = sh.dirty;
    dirtyScratch_.insert(dirtyScratch_.end(), v.begin(), v.end());
    v.clear();
  }
  std::sort(dirtyScratch_.begin(), dirtyScratch_.end());
  // Drain in domain order, entries in send order: the destination
  // engines' insertion sequences — their tie order — become a pure
  // function of the simulation, independent of shard count.
  for (std::uint32_t d : dirtyScratch_) {
    Domain& src = domains_[d];
    for (Arrival& m : src.outbox) {
      domains_[m.dstDomain].engine.postAtMerge(m.time, std::move(m.fn));
      pushRunnable(m.dstDomain, m.time);
    }
    src.outbox.clear();
  }
}

void ShardedEngine::prepareWindow() {
  if (abort_.load(std::memory_order_relaxed)) {
    done_ = true;
    return;
  }
  // O(shards) reduce over the heap tops, not an O(domains) rescan.
  const SimTime t = nextWindowStart(horizon_);
  if (t == kNoEvent) {
    drained_ = true;
    done_ = true;
    return;
  }
  if (t > horizon_) {
    done_ = true;
    return;
  }
  // A single domain has no cross-domain constraint: one window runs the
  // whole horizon, degenerating to the serial engine. (lookahead_ is > 0
  // whenever more than one shard runs; see the constructor.)
  const Duration eff = domainCountU32_ == 1 ? kMaxTime
                       : lookahead_ > 0     ? lookahead_
                                            : 1;
  SimTime windowEnd = std::min(satAdd(t, eff), satAdd(horizon_, 1));
  windowEnd = clampToBoundary(t, windowEnd);
  // Boundary flush runs here, in the single-threaded completion step:
  // every shard is parked, so the hook may read any domain's state
  // race-free.
  if (boundaryFlush_) boundaryFlush_(t);
  windowEnd_ = windowEnd;  // sendAt's conservative check reads this
}

bool ShardedEngine::runTo(SimTime horizon) {
  if (running_) {
    throw SimError("ShardedEngine: run()/runUntil() entered recursively");
  }
  running_ = true;
  setWindowedMode(true);
  horizon_ = horizon;
  drained_ = false;
  done_ = false;
  abort_.store(false, std::memory_order_relaxed);
  shardErrors_.assign(shards_, nullptr);

  // Completion step: runs on exactly one thread between a window's last
  // shard step and anyone's release, so the merge and the next window
  // bounds need no locks — the barrier's happens-before edges carry them
  // to every shard.
  auto completeWindow = [this]() noexcept {
    ++windows_;
    try {
      deliverOutboxes();
      prepareWindow();
    } catch (...) {
      // Merge/hook failure (e.g. a throwing boundary flush): surface it
      // like a shard-0 event failure and wind the run down.
      if (!shardErrors_[0]) shardErrors_[0] = std::current_exception();
      abort_.store(true, std::memory_order_relaxed);
      done_ = true;
    }
  };
  try {
    initRunnable();
    prepareWindow();
  } catch (...) {
    shardErrors_[0] = std::current_exception();
    done_ = true;
  }
  if (!done_) {
    // One shard runs on the calling thread with no barrier: it completes
    // each window itself. More shards add shards_ - 1 threads and a
    // barrier whose completion step is the same function.
    std::optional<std::barrier<decltype(completeWindow)>> sync;
    if (shards_ > 1) {
      sync.emplace(static_cast<std::ptrdiff_t>(shards_), completeWindow);
    }
    auto shardLoop = [this, &sync, &completeWindow](unsigned shard) {
      while (!done_) {
        if (!abort_.load(std::memory_order_relaxed)) {
          try {
            const std::uint64_t w0 = profiling_ ? wallNowNs() : 0;
            const std::uint64_t executed = execShardWindow(shard, windowEnd_);
            if (profiling_) {
              perShard_[shard].execNs += wallNowNs() - w0;
              if (executed > 0) ++perShard_[shard].windowsActive;
            }
          } catch (...) {
            shardErrors_[shard] = std::current_exception();
            abort_.store(true, std::memory_order_relaxed);
          }
        }
        if (!sync) {
          completeWindow();
          continue;
        }
        const std::uint64_t b0 = profiling_ ? wallNowNs() : 0;
        sync->arrive_and_wait();
        if (profiling_) perShard_[shard].barrierWaitNs += wallNowNs() - b0;
      }
    };
    std::vector<std::thread> pool;
    pool.reserve(shards_ - 1);
    for (unsigned s = 1; s < shards_; ++s) pool.emplace_back(shardLoop, s);
    shardLoop(0);
    for (std::thread& th : pool) th.join();
  }
  setWindowedMode(false);
  running_ = false;

  // Failure reports are schedule-independent: the lowest shard's
  // exception wins, like the sweep harness's lowest-index rule.
  for (unsigned s = 0; s < shards_; ++s) {
    if (shardErrors_[s]) std::rethrow_exception(shardErrors_[s]);
  }
  return drained_;
}

void ShardedEngine::run() {
  runTo(kMaxTime);
  // Global drain-time deadlock check: every domain queue and outbox is
  // empty, so a blocked process can never be signalled again.
  checkDeadlock();
}

bool ShardedEngine::runUntil(SimTime until) {
  const bool drained = runTo(until);
  for (Domain& dom : domains_) dom.engine.advanceTo(until);
  if (drained) checkDeadlock();
  return drained;
}

std::uint64_t ShardedEngine::executedEvents() const {
  std::uint64_t n = 0;
  for (const Domain& dom : domains_) n += dom.engine.executedEvents();
  return n;
}

std::uint64_t ShardedEngine::pendingEvents() const {
  std::uint64_t n = 0;
  for (const Domain& dom : domains_) {
    n += dom.engine.pendingEvents() + dom.outbox.size();
  }
  return n;
}

std::uint64_t ShardedEngine::crossDomainEvents() const {
  std::uint64_t n = 0;
  for (const Domain& dom : domains_) n += dom.crossDomain;
  return n;
}

std::uint64_t ShardedEngine::crossShardEvents() const {
  std::uint64_t n = 0;
  for (const Domain& dom : domains_) n += dom.crossShard;
  return n;
}

void ShardedEngine::setProfiling(bool on) {
  if (running_) {
    throw SimError("ShardedEngine::setProfiling: engine is running");
  }
  profiling_ = on;
}

std::vector<ShardProfile> ShardedEngine::shardProfiles() const {
  std::vector<ShardProfile> out(shards_);
  for (unsigned s = 0; s < shards_; ++s) {
    out[s].shard = s;
    out[s].execNs = perShard_[s].execNs;
    out[s].barrierWaitNs = perShard_[s].barrierWaitNs;
    out[s].windowsActive = perShard_[s].windowsActive;
  }
  for (std::uint32_t d = 0; d < domainCountU32_; ++d) {
    ShardProfile& p = out[shardOf(d)];
    ++p.domains;
    p.events += domains_[d].executed;
    p.crossShardSent += domains_[d].crossShard;
  }
  return out;
}

double ShardedEngine::loadImbalance() const {
  std::uint64_t maxEv = 0;
  std::uint64_t total = 0;
  std::vector<std::uint64_t> perShard(shards_, 0);
  for (std::uint32_t d = 0; d < domainCountU32_; ++d) {
    perShard[shardOf(d)] += domains_[d].executed;
  }
  for (const std::uint64_t ev : perShard) {
    maxEv = std::max(maxEv, ev);
    total += ev;
  }
  if (total == 0) return 1.0;
  const double mean =
      static_cast<double>(total) / static_cast<double>(shards_);
  return static_cast<double>(maxEv) / mean;
}

}  // namespace vibe::sim
