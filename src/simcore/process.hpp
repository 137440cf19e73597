// Cooperative simulated processes.
//
// A Process runs user code (a benchmark node program) as a fiber: a
// stackful user-space context with its own lazily committed stack, switched
// with swapcontext. Execution interleaves cooperatively with the Engine —
// an engine event resumes the fiber, and the body runs on the engine's OS
// thread until it yields back from advance() / await() — so exactly one of
// {engine, some process} runs at any instant and a handoff costs a register
// swap, not a kernel wakeup. User code experiences a synchronous, blocking
// API (advance / await) while the engine stays a pure discrete-event core
// underneath.
//
// A fiber is not tied to an OS thread: a ShardedEngine runs shard 0 on
// the calling thread and spawns fresh threads for the other shards on
// every run, so a process may be resumed on a different thread than the
// one it last ran on. Every switch therefore carries the
// fiber's libstdc++ exception state (caught-exception stack, uncaught
// count) with it, and, in sanitizer builds, tells ASan/TSan about the
// stack change.
//
// CPU accounting: advance(d, CpuUse::Busy) accrues the process's busy
// counter — the simulated getrusage() that the paper's CPU-utilization
// micro-benchmarks read. Blocking in await() is idle time.
#pragma once

#include <ucontext.h>

#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <string>
#include <vector>

#include "simcore/engine.hpp"
#include "simcore/time.hpp"

namespace vibe::sim {

class Signal;

/// Whether a span of process time occupies the (simulated) host CPU.
enum class CpuUse : std::uint8_t { Busy, Idle };

class Process {
 public:
  /// Creates the process and schedules its body to start at engine.now().
  /// Lifetime contract: the Process must be destroyed before the Engine.
  Process(Engine& engine, std::string name, std::function<void()> body);
  /// Destroying an unfinished process (a forced shutdown, e.g. after a
  /// DeadlockError) unwinds its body by throwing Killed into it; during
  /// that unwind advance()/await*() throw Killed again instead of yielding.
  ~Process();

  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;

  /// --- API callable only from inside the process body ---

  /// Lets `d` of virtual time pass. Busy time counts toward cpuBusy().
  void advance(Duration d, CpuUse use = CpuUse::Busy);

  /// Blocks (idle) until the signal fires.
  void await(Signal& s);

  /// Blocks until the signal fires or `timeout` elapses. A negative
  /// timeout means wait forever. Returns true if the signal fired.
  bool awaitFor(Signal& s, Duration timeout);

  /// Like await(), but the elapsed wall time is charged as CPU-busy: the
  /// efficient simulation of a host spinning in a poll loop. VIPL's
  /// poll-until-done helpers use this so polling completes in one event
  /// instead of millions of spin iterations, while getrusage-style
  /// accounting still reports 100% utilization.
  void awaitBusy(Signal& s);

  /// Busy-accounted variant of awaitFor().
  bool awaitBusyFor(Signal& s, Duration timeout);

  /// Adds busy time without advancing the clock: work (e.g. a kernel ISR)
  /// that ran on this process's host CPU concurrently while it was blocked,
  /// and that getrusage() would attribute to the process as system time.
  void chargeCpu(Duration d) { cpuBusy_ += d; }

  /// --- Observers (valid from anywhere while the engine is quiescent) ---

  const std::string& name() const { return name_; }
  Engine& engine() const { return engine_; }
  SimTime now() const { return engine_.now(); }
  /// Accumulated simulated CPU-busy time (the getrusage analogue).
  Duration cpuBusy() const { return cpuBusy_; }
  bool finished() const { return state_ == State::Finished; }
  bool blocked() const { return state_ == State::Blocked; }

 private:
  friend class Engine;
  friend class Signal;

  enum class State : std::uint8_t {
    Ready,     // a resume event is queued (or the body has not started)
    Running,   // body is executing right now
    Blocked,   // waiting on a Signal (and possibly a timeout)
    Finished,  // body returned or was killed
  };

  struct Killed {};  // thrown into the body to unwind on forced shutdown

  /// makecontext entry point; `hi`/`lo` carry the Process pointer.
  static void fiberEntry(unsigned hi, unsigned lo);
  void fiberMain();
  /// Engine side: run the fiber until it yields or finishes.
  void switchIn();
  /// switchIn(), then rethrow whatever escaped the body.
  void resume();
  /// Process side: return control to whoever resumed the fiber; throws
  /// Killed if the process was killed meanwhile.
  void yieldToEngine();
  /// Wake path shared by Signal delivery and await timeouts.
  void wakeFromWait(std::uint64_t epoch, bool signalled);
  /// Process-side API guard: throws Killed during forced shutdown.
  void enterBodyCall();

  Engine& engine_;
  std::string name_;
  Duration cpuBusy_ = 0;

  State state_ = State::Ready;
  bool started_ = false;
  bool killed_ = false;
  std::exception_ptr failure_;

  // Wait bookkeeping: the epoch invalidates stale signal/timeout wakeups.
  std::uint64_t waitEpoch_ = 0;
  bool waitSignalled_ = false;
  EventId timeoutEvent_ = 0;

  // The fiber. The stack is one mmap: a PROT_NONE guard page at the low
  // end, then pages committed only as the body touches them.
  std::function<void()> body_;  // moved onto the fiber when it starts
  // Zeroed so that uc_stack is empty wherever makecontext did not set it
  // (ASan's swapcontext interceptor reads it).
  ucontext_t ctx_{};     // the body, while parked
  ucontext_t caller_{};  // whoever resumed it, while the body runs
  void* map_ = nullptr;
  std::size_t mapBytes_ = 0;
  // libstdc++'s per-thread exception state belonging to the fiber, held
  // here while it is parked.
  void* ehCaught_ = nullptr;
  unsigned ehUncaught_ = 0;
  // Sanitizer fiber bookkeeping; untouched in plain builds.
  void* asanFakeStack_ = nullptr;
  const void* callerStack_ = nullptr;
  std::size_t callerStackBytes_ = 0;
  void* tsanFiber_ = nullptr;
  void* tsanCaller_ = nullptr;
};

/// A broadcast wakeup primitive in virtual time. notifyAll() releases every
/// process currently waiting; wakeups are delivered as engine events at the
/// current time, preserving deterministic ordering.
class Signal {
 public:
  explicit Signal(Engine& engine) : engine_(engine) {}
  Signal(const Signal&) = delete;
  Signal& operator=(const Signal&) = delete;

  /// Wakes all current waiters.
  void notifyAll();
  /// Wakes the longest-waiting current waiter, if any.
  void notifyOne();
  std::size_t waiterCount() const { return waiters_.size(); }

 private:
  friend class Process;
  struct Waiter {
    Process* proc;
    std::uint64_t epoch;
  };
  void addWaiter(Process* p, std::uint64_t epoch) {
    waiters_.push_back({p, epoch});
  }
  void dropWaiter(const Process* p);
  void post(const Waiter& w);

  Engine& engine_;
  std::vector<Waiter> waiters_;
};

}  // namespace vibe::sim
