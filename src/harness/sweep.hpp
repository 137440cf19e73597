// Parallel sharded sweep runner.
//
// Every VIBe measurement is a pure function of its (seed, profile, size,
// config) point: each point builds a private Engine/Cluster/registry, runs
// to completion, and returns a value. A SweepRunner shards those points
// across a std::thread pool and collects the results into index-ordered
// slots, so tables, JSON emission, and trace digests assembled from the
// slots are byte-identical to the serial run regardless of thread count or
// scheduling. VIBE_JOBS=1 (or jobs=1) runs every point inline on the
// calling thread in index order — exactly the pre-harness behavior.
//
// Determinism contract for point bodies:
//  - own everything: build the Cluster/Engine/Tracer/SpanProfiler inside
//    the body; never touch another point's objects;
//  - no process-global mutable state (the simulator itself has none);
//  - publish metrics only into PointEnv::metrics — the runner merges the
//    per-point registries into SweepOptions::mergeInto in index order
//    after the sweep, so the merged appendix is also schedule-independent.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <type_traits>
#include <vector>

namespace vibe::obs {
class MetricsRegistry;
}

namespace vibe::harness {

/// Worker count for sweeps: sim::envThreadCount("VIBE_JOBS") — the
/// variable when set to a positive integer, otherwise
/// std::thread::hardware_concurrency() (minimum 1). Read on every call so
/// tests can flip the variable.
unsigned jobCount();

/// Per-point view handed to a sweep body.
struct PointEnv {
  /// Index of this point in [0, n); results land in slot `index`.
  std::size_t index = 0;
  /// Private metrics registry for this point (non-null exactly when
  /// SweepOptions::mergeInto is set). Attach it to the point's Cluster;
  /// never attach a shared registry from inside a sweep.
  obs::MetricsRegistry* metrics = nullptr;
};

struct SweepOptions {
  /// Worker threads; 0 means jobCount(). Clamped to the point count.
  unsigned jobs = 0;
  /// When set, each point gets a private MetricsRegistry (PointEnv::
  /// metrics) and the runner merges them into this registry in index
  /// order once every point has finished.
  obs::MetricsRegistry* mergeInto = nullptr;
};

namespace detail {
void runIndexed(std::size_t n, const std::function<void(PointEnv&)>& body,
                const SweepOptions& opts);
}

/// Runs `fn(PointEnv&)` for every index in [0, n) and returns the results
/// in index order (or nothing, for void bodies). Points run concurrently
/// on up to `opts.jobs` threads; with 1 job everything runs inline on the
/// calling thread, in order. If any point throws, the sweep finishes the
/// remaining points, then rethrows the lowest-indexed exception.
template <typename Fn>
auto runSweep(std::size_t n, Fn&& fn, SweepOptions opts = {}) {
  using R = std::invoke_result_t<Fn&, PointEnv&>;
  if constexpr (std::is_void_v<R>) {
    detail::runIndexed(
        n, [&fn](PointEnv& env) { fn(env); }, opts);
  } else {
    static_assert(std::is_default_constructible_v<R>,
                  "sweep results are collected into preallocated slots");
    std::vector<R> out(n);
    detail::runIndexed(
        n, [&fn, &out](PointEnv& env) { out[env.index] = fn(env); }, opts);
    return out;
  }
}

}  // namespace vibe::harness
