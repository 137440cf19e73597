#include "harness/sweep.hpp"

#include <atomic>
#include <exception>
#include <thread>

#include "obs/metrics.hpp"
#include "simcore/pdes.hpp"

namespace vibe::harness {

unsigned jobCount() { return sim::envThreadCount("VIBE_JOBS"); }

namespace detail {

void runIndexed(std::size_t n, const std::function<void(PointEnv&)>& body,
                const SweepOptions& opts) {
  if (n == 0) return;
  unsigned jobs = opts.jobs != 0 ? opts.jobs : jobCount();
  if (jobs > n) jobs = static_cast<unsigned>(n);

  // Per-point registries: merged into opts.mergeInto in index order below,
  // so the merged result is independent of scheduling.
  std::vector<obs::MetricsRegistry> pointMetrics;
  if (opts.mergeInto != nullptr) pointMetrics.resize(n);

  std::vector<std::exception_ptr> errors(n);

  auto runPoint = [&](std::size_t i) {
    PointEnv env;
    env.index = i;
    env.metrics = opts.mergeInto != nullptr ? &pointMetrics[i] : nullptr;
    try {
      body(env);
    } catch (...) {
      errors[i] = std::current_exception();
    }
  };

  if (jobs <= 1) {
    // Inline serial path: today's behavior, byte for byte — same thread,
    // same order, no pool.
    for (std::size_t i = 0; i < n; ++i) runPoint(i);
  } else {
    std::atomic<std::size_t> next{0};
    auto worker = [&] {
      for (;;) {
        const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= n) return;
        runPoint(i);
      }
    };
    std::vector<std::thread> pool;
    pool.reserve(jobs);
    for (unsigned t = 0; t < jobs; ++t) pool.emplace_back(worker);
    for (auto& t : pool) t.join();
  }

  for (std::size_t i = 0; i < n; ++i) {
    if (errors[i]) std::rethrow_exception(errors[i]);
  }
  if (opts.mergeInto != nullptr) {
    for (std::size_t i = 0; i < n; ++i) {
      opts.mergeInto->mergeFrom(pointMetrics[i]);
    }
  }
}

}  // namespace detail
}  // namespace vibe::harness
