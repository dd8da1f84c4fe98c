// Figure 5: contribution analysis of the Swift-Sim speedup over the
// Accel-Sim-class baseline.
//
// Paper decomposition: Swift-Sim-Basic reaches 14.5x single-threaded;
// simplifying memory access adds 2.7x (39.7x total single-threaded);
// parallel simulation adds ~5x for both (with ~50 threads), reaching
// 82.6x / 211.2x. This bench reproduces the same decomposition on this
// machine; the parallel factor scales with the available cores
// (hardware_concurrency here, 50 threads on the paper's 2-socket server).
#include <cstdio>

#include "common/stats.h"
#include "common/status.h"
#include "config/presets.h"
#include "swiftsim/memo_cache.h"
#include "swiftsim/parallel.h"
#include "swiftsim_bench.h"

namespace swiftsim::bench {

int RunFig5(Bench& b) {
  const BenchOptions& opt = b.opt();
  const GpuConfig gpu = Rtx2080TiConfig();
  const auto& apps = b.Apps();

  // Every timed stage starts from empty memo and profile caches, so no
  // stage replays launches or pre-passes an earlier stage simulated, and
  // every stage is timed over the same batch window.
  const auto cold = [] {
    MemoCache::Global().Clear();
    ProfileCache::Global().Clear();
  };
  const auto batch = [&](SimLevel level, unsigned threads) {
    cold();
    ParallelBatchResult batch =
        RunAppsParallel(apps, gpu, level, threads, opt.run);
    for (std::size_t i = 0; i < apps.size(); ++i) {
      const AppOutcome& outcome = batch.statuses[i];
      if (outcome.status == AppStatus::kFailed ||
          outcome.status == AppStatus::kTimedOut) {
        throw SimError(apps[i].name + ": " + outcome.error);
      }
      Record r = RecordOf(batch.results[i]);
      r.threads = threads;
      b.Append(r);
    }
    return batch;
  };

  // Stage 1: single-thread wall times for the three serial simulators.
  const ParallelBatchResult d1 = batch(SimLevel::kDetailed, 1);
  const ParallelBatchResult b1 = batch(SimLevel::kSwiftSimBasic, 1);
  const ParallelBatchResult m1 = batch(SimLevel::kSwiftSimMemory, 1);
  std::vector<double> sp_basic_1t, sp_mem_1t;
  for (std::size_t i = 0; i < apps.size(); ++i) {
    const double d = d1.results[i].wall_seconds;
    sp_basic_1t.push_back(d / b1.results[i].wall_seconds);
    sp_mem_1t.push_back(d / m1.results[i].wall_seconds);
  }
  const double basic_1t = GeoMean(sp_basic_1t);
  const double mem_1t = GeoMean(sp_mem_1t);

  // Stage 2: parallel simulation. Application-level parallelism (the
  // paper's "simulate applications concurrently") for both simulators.
  const ParallelBatchResult bn = batch(SimLevel::kSwiftSimBasic, opt.threads);
  const ParallelBatchResult mn = batch(SimLevel::kSwiftSimMemory, opt.threads);
  const double par_basic = b1.wall_seconds / bn.wall_seconds;
  const double par_mem = m1.wall_seconds / mn.wall_seconds;

  std::printf("-- decomposition (geomean; paper: 14.5x -> x2.7 -> x5) --\n");
  std::printf("swift-sim-basic  single-thread speedup : %6.1fx (paper 14.5x)\n",
              basic_1t);
  std::printf("memory-model additional factor          : %6.2fx (paper 2.7x)\n",
              mem_1t / basic_1t);
  std::printf("swift-sim-memory single-thread speedup : %6.1fx (paper 39.7x)\n",
              mem_1t);
  std::printf("app-level parallel factor (%2u threads) : basic %4.2fx, "
              "memory %4.2fx (paper ~5x at 50 threads)\n",
              opt.threads, par_basic, par_mem);
  std::printf("total speedup with parallelism          : basic %5.1fx "
              "(paper 82.6x), memory %5.1fx (paper 211.2x)\n",
              basic_1t * par_basic, mem_1t * par_mem);
  return 0;
}

}  // namespace swiftsim::bench
