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
// Writes results/BENCH_memo.json unless --json= says otherwise; exits
// non-zero on any exactness violation.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.h"
#include "config/presets.h"
#include "swiftsim/memo_cache.h"

namespace {

void ClearGlobalCaches() {
  swiftsim::MemoCache::Global().Clear();
  swiftsim::ProfileCache::Global().Clear();
}

double Speedup(double base, double fast) {
  return fast > 0 ? base / fast : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace swiftsim;
  using namespace swiftsim::bench;
  BenchOptions opt = ParseOptions(argc, argv, /*default_scale=*/0.35);
  // Iterative irregular apps: the launch pattern the memo layer targets.
  if (opt.apps.empty()) opt.apps = {"BFS", "PAGERANK", "SSSP"};
  if (opt.json_path.empty()) opt.json_path = "results/BENCH_memo.json";
  constexpr unsigned kIterations = 12;
  PrintHeader("Cross-launch memoization: iterative solvers", opt);
  std::printf("iterations per app: %u\n", kIterations);

  GpuConfig fresh_cfg = Rtx2080TiConfig();
  fresh_cfg.cycle_skip = opt.cycle_skip;
  ApplyRobustness(&fresh_cfg, opt);
  fresh_cfg.memo.enabled = false;
  GpuConfig memo_cfg = fresh_cfg;
  memo_cfg.memo.enabled = true;

  std::vector<JsonRun> records;
  bool ok = true;
  std::printf("%-14s %14s %10s %10s %10s %8s %8s\n", "app", "cycles",
              "fresh[s]", "cold[s]", "warm[s]", "cold-x", "warm-x");
  for (const Application& base : BuildApps(opt)) {
    const Application app = RepeatLaunches(base, kIterations);
    const AppRun fresh = RunOne(app, fresh_cfg, SimLevel::kSwiftSimMemory);
    records.push_back(ToJsonRun(fresh, "memory+fresh", /*threads=*/1));
    if (!opt.memo) continue;  // --no-memo: baseline arm only

    ClearGlobalCaches();
    const AppRun cold = RunOne(app, memo_cfg, SimLevel::kSwiftSimMemory);
    records.push_back(ToJsonRun(cold, "memory+memo-cold", /*threads=*/1));
    const AppRun warm = RunOne(app, memo_cfg, SimLevel::kSwiftSimMemory);
    records.push_back(ToJsonRun(warm, "memory+memo-warm", /*threads=*/1));

    const double cold_x = Speedup(fresh.wall_seconds, cold.wall_seconds);
    const double warm_x = Speedup(fresh.wall_seconds, warm.wall_seconds);
    std::printf("%-14s %14llu %10.4f %10.4f %10.4f %7.1fx %7.1fx\n",
                app.name.c_str(),
                static_cast<unsigned long long>(fresh.cycles),
                fresh.wall_seconds, cold.wall_seconds, warm.wall_seconds,
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
    if (cold.memo_hits == 0 || warm.memo_misses != 0) {
      std::printf("ERROR: %s unexpected memo telemetry (cold hits=%llu "
                  "warm misses=%llu)\n",
                  app.name.c_str(),
                  static_cast<unsigned long long>(cold.memo_hits),
                  static_cast<unsigned long long>(warm.memo_misses));
      ok = false;
    }
  }

  WriteRunsJson(opt.json_path, "bench_memo", opt, records);
  return ok ? EXIT_SUCCESS : EXIT_FAILURE;
}
