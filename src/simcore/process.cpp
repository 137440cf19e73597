#include "simcore/process.hpp"

#include <pthread.h>
#include <sys/mman.h>
#include <unistd.h>

#include <cassert>
#include <cstdint>
#include <cxxabi.h>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif
#if defined(__SANITIZE_THREAD__)
#include <sanitizer/tsan_interface.h>
#endif

namespace vibe::sim {

namespace {

/// libstdc++'s per-thread exception state (__cxa_eh_globals in its
/// unwind-cxx.h): the caught-exception stack and the uncaught count.
struct EhGlobals {
  void* caughtExceptions;
  unsigned int uncaughtExceptions;
};

EhGlobals* ehGlobals() {
  return reinterpret_cast<EhGlobals*>(abi::__cxa_get_globals());
}

/// The stack a default pthread gets (RLIMIT_STACK at startup), so a node
/// program may recurse as deeply as it could on a thread of its own.
std::size_t fiberStackBytes() {
  static const std::size_t bytes = [] {
    std::size_t size = std::size_t{8} << 20;
    pthread_attr_t attr;
    if (pthread_getattr_default_np(&attr) == 0) {
      pthread_attr_getstacksize(&attr, &size);
      pthread_attr_destroy(&attr);
    }
    return size;
  }();
  return bytes;
}

}  // namespace

Process::Process(Engine& engine, std::string name, std::function<void()> body)
    : engine_(engine), name_(std::move(name)), body_(std::move(body)) {
  const auto guard = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  mapBytes_ = guard + fiberStackBytes();
  map_ = mmap(nullptr, mapBytes_, PROT_READ | PROT_WRITE,
              MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK, -1, 0);
  if (map_ == MAP_FAILED) {
    throw SimError("Process " + name_ + ": cannot map a fiber stack");
  }
  if (mprotect(map_, guard, PROT_NONE) != 0) {
    munmap(map_, mapBytes_);
    throw SimError("Process " + name_ + ": cannot protect the stack guard");
  }
  getcontext(&ctx_);
  ctx_.uc_stack.ss_sp = static_cast<char*>(map_) + guard;
  ctx_.uc_stack.ss_size = mapBytes_ - guard;
  ctx_.uc_link = nullptr;  // fiberMain never returns
  const auto self = reinterpret_cast<std::uintptr_t>(this);
  makecontext(&ctx_, reinterpret_cast<void (*)()>(&Process::fiberEntry), 2,
              static_cast<unsigned>(self >> 32), static_cast<unsigned>(self));
#if defined(__SANITIZE_THREAD__)
  tsanFiber_ = __tsan_create_fiber(0);
  __tsan_set_fiber_name(tsanFiber_, name_.c_str());
#endif
  engine_.registerProcess(this);
  engine_.post(0, [this] { resume(); });
}

Process::~Process() {
  if (started_ && state_ != State::Finished) {
    // Forced shutdown (e.g. a failed run): unwind the body via Killed. A
    // failure raised while unwinding is dropped with the process.
    killed_ = true;
    switchIn();
    assert(state_ == State::Finished);
  }
#if defined(__SANITIZE_THREAD__)
  __tsan_destroy_fiber(tsanFiber_);
#endif
#if defined(__SANITIZE_ADDRESS__)
  // Frames the fiber left behind keep poisoned shadow; clear it before
  // the range can be mapped again.
  ASAN_UNPOISON_MEMORY_REGION(map_, mapBytes_);
#endif
  munmap(map_, mapBytes_);
  engine_.unregisterProcess(this);
}

void Process::fiberEntry(unsigned hi, unsigned lo) {
  const auto self =
      (static_cast<std::uintptr_t>(hi) << 32) | static_cast<std::uintptr_t>(lo);
  reinterpret_cast<Process*>(self)->fiberMain();
}

void Process::fiberMain() {
#if defined(__SANITIZE_ADDRESS__)
  __sanitizer_finish_switch_fiber(nullptr, &callerStack_, &callerStackBytes_);
#endif
  {
    // The body (and its captures) lives and dies on the fiber.
    const std::function<void()> body = std::move(body_);
    try {
      state_ = State::Running;
      body();
    } catch (Killed&) {
      // forced shutdown — unwound cleanly
    } catch (...) {
      failure_ = std::current_exception();
    }
  }
  state_ = State::Finished;
  // Leave for good: the fiber's stack is dead from here on.
#if defined(__SANITIZE_ADDRESS__)
  __sanitizer_start_switch_fiber(nullptr, callerStack_, callerStackBytes_);
#endif
#if defined(__SANITIZE_THREAD__)
  __tsan_switch_to_fiber(tsanCaller_, 0);
#endif
  setcontext(&caller_);
}

void Process::switchIn() {
  started_ = true;
  Process* prev = engine_.current_;
  engine_.current_ = this;
  // The caller stays on this OS thread until the fiber yields back, so one
  // lookup serves both directions of the exception-state swap.
  EhGlobals* eh = ehGlobals();
  const EhGlobals outer = *eh;
  eh->caughtExceptions = ehCaught_;
  eh->uncaughtExceptions = ehUncaught_;
#if defined(__SANITIZE_ADDRESS__)
  void* fakeStack = nullptr;
  __sanitizer_start_switch_fiber(&fakeStack, ctx_.uc_stack.ss_sp,
                                 ctx_.uc_stack.ss_size);
#endif
#if defined(__SANITIZE_THREAD__)
  tsanCaller_ = __tsan_get_current_fiber();
  __tsan_switch_to_fiber(tsanFiber_, 0);
#endif
  swapcontext(&caller_, &ctx_);
#if defined(__SANITIZE_ADDRESS__)
  __sanitizer_finish_switch_fiber(fakeStack, nullptr, nullptr);
#endif
  ehCaught_ = eh->caughtExceptions;
  ehUncaught_ = eh->uncaughtExceptions;
  *eh = outer;
  engine_.current_ = prev;
}

void Process::resume() {
  assert(state_ == State::Ready || state_ == State::Blocked);
  switchIn();
  if (failure_) {
    auto f = failure_;
    failure_ = nullptr;
    std::rethrow_exception(f);
  }
}

void Process::yieldToEngine() {
#if defined(__SANITIZE_ADDRESS__)
  __sanitizer_start_switch_fiber(&asanFakeStack_, callerStack_,
                                 callerStackBytes_);
#endif
#if defined(__SANITIZE_THREAD__)
  __tsan_switch_to_fiber(tsanCaller_, 0);
#endif
  swapcontext(&ctx_, &caller_);
#if defined(__SANITIZE_ADDRESS__)
  // The next resume may come from another thread's stack.
  __sanitizer_finish_switch_fiber(asanFakeStack_, &callerStack_,
                                  &callerStackBytes_);
#endif
  if (killed_) throw Killed{};
  state_ = State::Running;
}

void Process::enterBodyCall() {
  assert(engine_.current_ == this &&
         "Process API called from outside the process body");
  // A killed body that blocks again while unwinding (e.g. a destructor that
  // advances) must not park: nothing would ever resume it.
  if (killed_) throw Killed{};
}

void Process::advance(Duration d, CpuUse use) {
  enterBodyCall();
  if (d < 0) throw SimError("Process::advance: negative duration");
  if (use == CpuUse::Busy) cpuBusy_ += d;
  if (d == 0) return;  // nothing can interleave at zero cost; skip the yield
  state_ = State::Ready;
  engine_.post(d, [this] { resume(); });
  yieldToEngine();
}

bool Process::awaitFor(Signal& s, Duration timeout) {
  enterBodyCall();
  const std::uint64_t epoch = ++waitEpoch_;
  waitSignalled_ = false;
  s.addWaiter(this, epoch);
  timeoutEvent_ = 0;
  if (timeout >= 0) {
    timeoutEvent_ =
        engine_.post(timeout, [this, epoch] { wakeFromWait(epoch, false); });
  }
  state_ = State::Blocked;
  yieldToEngine();
  return waitSignalled_;
}

void Process::await(Signal& s) { awaitFor(s, -1); }

void Process::awaitBusy(Signal& s) {
  const SimTime t0 = now();
  await(s);
  cpuBusy_ += now() - t0;  // a polling wait spins the host CPU
}

bool Process::awaitBusyFor(Signal& s, Duration timeout) {
  const SimTime t0 = now();
  const bool fired = awaitFor(s, timeout);
  cpuBusy_ += now() - t0;
  return fired;
}

void Process::wakeFromWait(std::uint64_t epoch, bool signalled) {
  if (epoch != waitEpoch_ || state_ != State::Blocked) return;  // stale waker
  ++waitEpoch_;  // invalidate the competing signal/timeout source
  waitSignalled_ = signalled;
  if (signalled && timeoutEvent_ != 0) engine_.cancel(timeoutEvent_);
  timeoutEvent_ = 0;
  resume();
}

void Signal::post(const Waiter& w) {
  Process* proc = w.proc;
  const std::uint64_t epoch = w.epoch;
  engine_.post(0, [proc, epoch] { proc->wakeFromWait(epoch, true); });
}

void Signal::notifyAll() {
  for (const Waiter& w : waiters_) post(w);
  waiters_.clear();
}

void Signal::notifyOne() {
  // Skip entries whose wait epoch is stale (e.g. the waiter timed out).
  while (!waiters_.empty()) {
    Waiter w = waiters_.front();
    waiters_.erase(waiters_.begin());
    if (w.epoch == w.proc->waitEpoch_ && w.proc->blocked()) {
      post(w);
      return;
    }
  }
}

void Signal::dropWaiter(const Process* p) {
  std::erase_if(waiters_, [p](const Waiter& w) { return w.proc == p; });
}

}  // namespace vibe::sim
