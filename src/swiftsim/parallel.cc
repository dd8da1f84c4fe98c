#include "swiftsim/parallel.h"

#include <chrono>

#include "common/status.h"
#include "common/thread_pool.h"

namespace swiftsim {

namespace {

/// Runs every app on the shared pool. `isolate` keeps each failure in the
/// app's AppOutcome; otherwise the first failure is rethrown as thrown.
ParallelBatchResult RunBatch(const std::vector<Application>& apps,
                             const GpuConfig& cfg, SimLevel level,
                             unsigned num_threads, const RunOptions& options,
                             bool isolate) {
  SS_CHECK(num_threads > 0, "need at least one worker thread");
  ParallelBatchResult batch;
  batch.results.resize(apps.size());
  if (isolate) batch.statuses.resize(apps.size());
  const auto t0 = std::chrono::steady_clock::now();
  ThreadPool& pool = ThreadPool::Shared();
  pool.ParallelFor(apps.size(), num_threads, [&](std::size_t i) {
    RunOutcome run = Run({apps[i], cfg, level, options});
    if (!isolate) {
      batch.results[i] = run.TakeOrThrow();
      return;
    }
    batch.results[i] = std::move(run.result);
    batch.statuses[i] = std::move(run.outcome);
  });
  const auto t1 = std::chrono::steady_clock::now();
  batch.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  return batch;
}

}  // namespace

ParallelBatchResult RunAppsParallel(const std::vector<Application>& apps,
                                    const GpuConfig& cfg, SimLevel level,
                                    unsigned num_threads) {
  return RunBatch(apps, cfg, level, num_threads, {}, /*isolate=*/false);
}

ParallelBatchResult RunAppsParallel(const std::vector<Application>& apps,
                                    const GpuConfig& cfg, SimLevel level,
                                    unsigned num_threads,
                                    const RunOptions& options) {
  return RunBatch(apps, cfg, level, num_threads, options, /*isolate=*/true);
}

}  // namespace swiftsim
