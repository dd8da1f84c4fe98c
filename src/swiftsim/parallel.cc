#include "swiftsim/parallel.h"

#include <algorithm>
#include <chrono>
#include <deque>

#include "analytical/cache_prepass.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "sim/metrics.h"
#include "swiftsim/memo_cache.h"

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

namespace {

/// Simulates one SM's statically assigned share of a kernel to completion,
/// starting at `start`; returns the SM's local finish time.
Cycle RunSmShare(SmCore& sm, const KernelTrace& kernel,
                 std::deque<CtaId>& pending, Cycle start) {
  const KernelInfo& info = kernel.info();
  Cycle now = start;
  while (!pending.empty() || !sm.Idle()) {
    while (!pending.empty() && sm.CanTakeCta(info)) {
      sm.LaunchCta(kernel, pending.front());
      pending.pop_front();
    }
    const bool progressed = sm.Tick(now);
    if (progressed) {
      ++now;
      continue;
    }
    const Cycle wake = sm.NextWake();
    if (wake == kNever) {
      SS_CHECK(pending.empty() && sm.Idle(),
               "SM-parallel simulation wedged on kernel '" + info.name + "'");
      break;
    }
    now = std::max(now + 1, wake);
  }
  return now;
}

}  // namespace

SimResult RunSmParallelMemory(const Application& app, const GpuConfig& cfg,
                              unsigned num_threads) {
  SS_CHECK(num_threads > 0, "need at least one worker thread");
  const auto t0 = std::chrono::steady_clock::now();
  // The cold-sharded profile is thread-count independent, so caching it is
  // exact; memo-off runs rebuild from scratch for honest A/B timing.
  if (cfg.memo.enabled) {
    ProfileCache::Global().SetMaxEntries(cfg.memo.max_entries);
  }
  std::shared_ptr<const MemProfile> profile =
      cfg.memo.enabled
          ? ProfileCache::Global()
                .GetOrBuild(app, cfg, /*parallel_builder=*/true, num_threads)
                .profile
          : std::make_shared<const MemProfile>(
                BuildMemProfileParallel(app, cfg, num_threads));
  const ModelSelection sel = SelectionFor(SimLevel::kSwiftSimMemory);
  AnalyticalMemModel mem_model(cfg, profile.get());

  // Independent SMs: the analytical memory path shares no mutable state.
  std::vector<std::unique_ptr<SmCore>> sms;
  sms.reserve(cfg.num_sms);
  for (unsigned s = 0; s < cfg.num_sms; ++s) {
    sms.push_back(
        std::make_unique<SmCore>(cfg, sel, s, &mem_model, [](SmId) {}));
  }
  MetricsGatherer gatherer;
  for (const auto& sm : sms) RegisterSmMetrics(gatherer, *sm);

  SimResult result;
  result.app = app.name;
  result.simulator = ToString(SimLevel::kSwiftSimMemory) + "+sm-parallel";
  Cycle clock = 0;
  ThreadPool& pool = ThreadPool::Shared();
  for (const auto& kernel : app.kernels) {
    const KernelInfo& info = kernel->info();
    // Static round-robin pre-assignment (documented approximation of the
    // greedy dispatcher; required for SM independence).
    std::vector<std::deque<CtaId>> assignment(cfg.num_sms);
    for (CtaId c = 0; c < info.num_ctas; ++c) {
      assignment[c % cfg.num_sms].push_back(c);
    }
    const unsigned active_sms =
        std::min<unsigned>(cfg.num_sms, info.num_ctas);
    for (auto& sm : sms) sm->OnKernelStart(active_sms);
    std::uint64_t instrs_before = 0;
    for (const auto& sm : sms) instrs_before += sm->stats().issued_instrs;
    std::vector<Cycle> finish(cfg.num_sms, clock);
    pool.ParallelFor(cfg.num_sms, num_threads, [&](std::size_t s) {
      if (assignment[s].empty()) return;
      finish[s] = RunSmShare(*sms[s], *kernel, assignment[s], clock);
    });

    Cycle kernel_end = clock;
    for (Cycle f : finish) kernel_end = std::max(kernel_end, f);
    KernelResult kr;
    kr.name = info.name;
    kr.cycles = kernel_end - clock;
    for (const auto& sm : sms) kr.instructions += sm->stats().issued_instrs;
    kr.instructions -= instrs_before;
    result.kernels.push_back(kr);
    clock = kernel_end;  // kernel boundary = global barrier
  }
  result.total_cycles = clock;
  for (const auto& sm : sms) {
    result.instructions += sm->stats().issued_instrs;
  }
  result.metrics = gatherer.Snapshot();
  const auto t1 = std::chrono::steady_clock::now();
  result.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  return result;
}

}  // namespace swiftsim
