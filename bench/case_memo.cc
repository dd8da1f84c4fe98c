// Cross-launch memoization bench (DESIGN.md §10): iterative solvers
// launch the same static kernels dozens of times, and the MemoCache
// collapses every repeat after the first into a constant-time replay.
//
// Three arms per app at the analytical-memory level, all of which must
// produce bit-identical cycle counts (replay there is exact):
//   fresh      --no-memo semantics: every launch simulated, pre-pass
//              replays every launch
//   memo-cold  empty global caches: distinct kernels simulated once,
//              repeats replayed; pre-pass reaches its fixed point and
//              replays the tail
//   memo-warm  second run in the same process: profile and every launch
//              served from the caches
//
// Exits non-zero on any exactness violation.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "config/presets.h"
#include "swiftsim/memo_cache.h"
#include "swiftsim_bench.h"

namespace swiftsim::bench {

namespace {

void ClearGlobalCaches() {
  MemoCache::Global().Clear();
  ProfileCache::Global().Clear();
}

double Speedup(double base, double fast) {
  return fast > 0 ? base / fast : 0.0;
}

}  // namespace

// Iterative irregular apps (the default BFS, PAGERANK, SSSP) are the
// launch pattern the memo layer targets.
int RunMemo(Bench& b) {
  constexpr unsigned kIterations = 12;
  std::printf("iterations per app: %u\n", kIterations);

  const GpuConfig gpu = Rtx2080TiConfig();
  RunOptions fresh_run = b.opt().run;
  fresh_run.memo = false;
  // Runs one arm, records it under `arm` and returns the record. wall_s
  // leaves out model construction and the final snapshot; run_s is the
  // whole Run, pre-pass or profile fetch included.
  const auto run_arm = [&b, &gpu](const Application& app,
                                  const RunOptions& run, const char* arm) {
    const auto t0 = std::chrono::steady_clock::now();
    RunOutcome outcome = Run({app, gpu, SimLevel::kSwiftSimMemory, run});
    const std::chrono::duration<double> run_s =
        std::chrono::steady_clock::now() - t0;
    Record r = RecordOf(outcome);
    r.level = arm;
    r.Count("run_s", run_s.count());
    b.Append(r);
    return r;
  };

  bool ok = true;
  std::printf("%-14s %14s %10s %10s %10s %12s %8s %8s\n", "app", "cycles",
              "fresh[s]", "cold[s]", "warm[s]", "warm-run[s]", "cold-x",
              "warm-x");
  for (const Application& base : b.Apps()) {
    const Application app = RepeatLaunches(base, kIterations);
    const Record fresh = run_arm(app, fresh_run, "memory+fresh");
    if (!b.opt().run.memo) continue;  // --no-memo: baseline arm only

    ClearGlobalCaches();
    const Record cold = run_arm(app, b.opt().run, "memory+memo-cold");
    const Record warm = run_arm(app, b.opt().run, "memory+memo-warm");

    const double cold_x = Speedup(fresh.wall_s, cold.wall_s);
    const double warm_x = Speedup(fresh.wall_s, warm.wall_s);
    std::printf("%-14s %14llu %10.4f %10.4f %10.4f %12.6f %7.1fx %7.1fx\n",
                app.name.c_str(),
                static_cast<unsigned long long>(fresh.cycles),
                fresh.wall_s, cold.wall_s, warm.wall_s, warm.Counter("run_s"),
                cold_x, warm_x);
    if (cold.cycles != fresh.cycles || warm.cycles != fresh.cycles) {
      std::printf("ERROR: %s memoized cycles diverge (fresh=%llu cold=%llu "
                  "warm=%llu)\n",
                  app.name.c_str(),
                  static_cast<unsigned long long>(fresh.cycles),
                  static_cast<unsigned long long>(cold.cycles),
                  static_cast<unsigned long long>(warm.cycles));
      ok = false;
    }
    const double cold_hits = cold.Counter("memo.hits");
    const double warm_misses = warm.Counter("memo.misses");
    if (cold_hits == 0 || warm_misses != 0) {
      std::printf("ERROR: %s unexpected memo telemetry (cold hits=%llu "
                  "warm misses=%llu)\n",
                  app.name.c_str(),
                  static_cast<unsigned long long>(cold_hits),
                  static_cast<unsigned long long>(warm_misses));
      ok = false;
    }
  }

  return ok ? EXIT_SUCCESS : EXIT_FAILURE;
}

}  // namespace swiftsim::bench
