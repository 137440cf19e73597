// Deterministic discrete-event engine.
//
// The engine owns a single event queue ordered by (time, insertion sequence)
// so ties break deterministically. Exactly one logical thread of control is
// ever executing simulation code: either the engine's run loop or one
// cooperative Process (see process.hpp) that the run loop has handed control
// to. All simulation state can therefore be touched without locks.
//
// Storage layout: event callbacks live in a slab/free-list pool and the
// queue is a binary heap of small POD handles {time, seq, slot, gen}. An
// EventId encodes (generation << 32 | slot + 1); cancel() bumps the slot's
// generation and returns the slot to the free list in O(1) — the callback
// is destroyed immediately, so a cancelled event never pins memory until
// its fire time. Stale heap handles (generation mismatch) are skipped on
// pop and compacted away once they outnumber live events, keeping the heap
// within a constant factor of the live event count under post+cancel-heavy
// workloads (e.g. retransmission timers).
#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "simcore/event_fn.hpp"
#include "simcore/time.hpp"

namespace vibe::sim {

class Process;

/// Identifier for a scheduled event; usable with Engine::cancel. The value
/// 0 is never issued and is safe to use as a "no event" sentinel.
using EventId = std::uint64_t;

/// Base class for simulator errors.
class SimError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Thrown by Engine::run when the event queue drains while processes are
/// still blocked on signals — the simulated program can never finish.
class DeadlockError : public SimError {
 public:
  using SimError::SimError;
};

class Engine {
 public:
  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Current virtual time.
  SimTime now() const { return now_; }

  /// Schedules `fn` to run `delay` from now. `delay` must be >= 0 and `fn`
  /// must be a non-null callable (a null std::function throws SimError).
  EventId post(Duration delay, EventFn fn) {
    return postAt(now_ + delay, std::move(fn));
  }

  /// Schedules `fn` at absolute time `t`. `t` must be >= now().
  EventId postAt(SimTime t, EventFn fn);

  /// Cancels a pending event in O(1). Returns true if the event had not yet
  /// fired (nor been cancelled). The callback is destroyed immediately and
  /// its pool slot recycled; a later cancel of the same id returns false.
  bool cancel(EventId id);

  /// Runs events until the queue drains. Throws DeadlockError if blocked
  /// processes remain, and rethrows the first exception raised inside a
  /// process body or event callback. A horizon is ShardedEngine::runUntil
  /// (one domain is this engine, bit for bit).
  void run();

  /// --- Windowed driving (conservative PDES) ---
  ///
  /// A ShardedEngine owns one Engine per domain and drives
  /// them in lockstep lookahead windows: runWindow executes one window,
  /// cross-domain arrivals merge between windows via postAtMerge, and
  /// setWindowedMode brackets the whole run. While windowed mode is on and
  /// no window is open on this engine, postAt/cancel throw — posting into
  /// or cancelling on a parked foreign engine is exactly the cross-domain
  /// mutation the PDES contract forbids (use ShardedEngine::sendAt).

  /// Sentinel for nextEventTime(): no pending events.
  static constexpr SimTime kNoEventTime = std::numeric_limits<SimTime>::max();

  /// Executes every pending event with time strictly before `windowEnd`,
  /// in (time, insertion seq) order. Unlike run() this performs
  /// no deadlock check (the queue legitimately drains while other domains
  /// still hold events) and never advances now() past the last executed
  /// event. Returns the number of events executed.
  std::uint64_t runWindow(SimTime windowEnd);

  /// Time of the earliest pending event, or kNoEventTime when none. Prunes
  /// stale (cancelled) handles off the top of the heap as it looks.
  SimTime nextEventTime();

  /// Advances now() to `t`; no-op when t <= now(). ShardedEngine::runUntil
  /// uses this to land the clock on the horizon.
  void advanceTo(SimTime t);

  /// Windowed-mode guard (see block comment above). Toggling it changes
  /// nothing until postAt/cancel are called outside an open window.
  void setWindowedMode(bool on) { windowed_ = on; }
  bool windowedMode() const { return windowed_; }

  /// postAt bypassing the windowed guard: the ShardedEngine outbox merge
  /// runs between windows (single-threaded, at the barrier) and is the one
  /// sanctioned writer into parked engines.
  EventId postAtMerge(SimTime t, EventFn fn) {
    return postAtImpl(t, std::move(fn));
  }

  /// Names of the registered processes blocked on a signal, joined with
  /// ", " (empty when none): the drain-time deadlock check's message.
  std::string blockedProcessNames() const;

  /// The process currently executing, or nullptr when the engine itself
  /// (an event callback) is running. VIPL uses this to charge host CPU
  /// cost to the calling application thread.
  Process* currentProcess() const { return current_; }

  /// Total events executed so far (diagnostics / gbench).
  std::uint64_t executedEvents() const { return executed_; }

  /// --- Introspection for tests and diagnostics ---

  /// Events scheduled and not yet fired or cancelled.
  std::size_t pendingEvents() const { return live_; }
  /// Heap entries, including stale handles awaiting compaction. Bounded by
  /// 2 * pendingEvents() + a small constant.
  std::size_t queuedHandles() const { return heap_.size(); }
  /// Pool slots ever allocated (high-water mark of concurrently pending
  /// events, rounded up to the slab size). Freed slots are recycled.
  std::size_t poolSlots() const { return slotCount_; }

 private:
  friend class Process;

  // 24-byte POD heap entry; the callback lives in the pool.
  struct Handle {
    SimTime time;
    std::uint64_t seq;   // insertion order; total tie-break
    std::uint32_t slot;  // pool index
    std::uint32_t gen;   // matches Slot::gen while the event is live
  };
  struct HandleAfter {
    // std::*_heap build a max-heap; invert for earliest-(time, seq)-first.
    bool operator()(const Handle& a, const Handle& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };
  struct Slot {
    EventFn fn;
    std::uint32_t gen = 1;
    std::uint32_t nextFree = kNoSlot;
  };

  static constexpr std::uint32_t kNoSlot = 0xffffffffu;
  static constexpr std::uint32_t kSlabBits = 8;
  static constexpr std::uint32_t kSlabSize = 1u << kSlabBits;

  Slot& slotAt(std::uint32_t s) {
    return slabs_[s >> kSlabBits][s & (kSlabSize - 1)];
  }
  std::uint32_t allocSlot();
  void freeSlot(std::uint32_t s) {
    Slot& sl = slotAt(s);
    sl.nextFree = freeHead_;
    freeHead_ = s;
  }
  /// Rebuilds the heap without stale handles once they dominate. O(n),
  /// amortized O(1) per cancel; ordering is unaffected because
  /// (time, seq) is a total order.
  void compactIfStale();
  // Debug guard against two sweep shards driving one Engine at once. It is
  // deliberately not a thread-id check: a ShardedEngine drives a domain's
  // Engine (and resumes its Process fibers) from the calling thread or
  // from a shard thread spawned fresh on every run, so several OS threads
  // legitimately touch the Engine one at a time. The flag stays set while a fiber runs (the run loop is
  // suspended inside fn(), on the same OS thread), so only genuinely
  // concurrent run()/runWindow() entry trips it.
  struct DriveGuard {
#ifndef NDEBUG
    explicit DriveGuard(Engine& e) : engine(e) {
      if (engine.driving_.exchange(true, std::memory_order_acquire)) {
        throw SimError(
            "Engine::run entered concurrently: each Engine must be driven "
            "by exactly one sweep point at a time");
      }
    }
    ~DriveGuard() { engine.driving_.store(false, std::memory_order_release); }
    Engine& engine;
#else
    explicit DriveGuard(Engine&) {}
#endif
    DriveGuard(const DriveGuard&) = delete;
    DriveGuard& operator=(const DriveGuard&) = delete;
  };
  // Marks a window open for the windowed-mode guard; exception-safe.
  struct WindowScope {
    explicit WindowScope(Engine& e) : engine(e) { engine.inWindow_ = true; }
    ~WindowScope() { engine.inWindow_ = false; }
    WindowScope(const WindowScope&) = delete;
    WindowScope& operator=(const WindowScope&) = delete;
    Engine& engine;
  };
  EventId postAtImpl(SimTime t, EventFn fn);
  void checkDeadlock() const;
  void registerProcess(Process* p) { processes_.push_back(p); }
  void unregisterProcess(Process* p);

  SimTime now_ = 0;
  std::uint64_t nextSeq_ = 1;
  std::uint64_t executed_ = 0;

  std::vector<Handle> heap_;
  std::vector<std::unique_ptr<Slot[]>> slabs_;
  std::uint32_t freeHead_ = kNoSlot;
  std::uint32_t slotCount_ = 0;
  std::size_t live_ = 0;
  std::size_t staleInHeap_ = 0;

  std::vector<Process*> processes_;
  Process* current_ = nullptr;
  bool windowed_ = false;
  bool inWindow_ = false;
#ifndef NDEBUG
  std::atomic<bool> driving_{false};
#endif
};

}  // namespace vibe::sim
