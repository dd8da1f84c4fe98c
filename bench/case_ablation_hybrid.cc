// Ablation: which per-module simplification buys what (the framework's
// central trade-off, DESIGN.md §4). Starting from the fully detailed
// model, modules are replaced one at a time:
//
//   detailed        : cycle-accurate everything (the baseline)
//   +hybrid-alu     : analytical ALU pipeline (paper §III-D1)
//   +simple-frontend: drop i-buffer/fetch modeling (Swift-Sim-Basic)
//   +analytical-mem : Eq. 1 memory model (Swift-Sim-Memory)
//
// For each step: predicted cycles, error vs. the detailed model, and
// single-thread speedup over it.
#include <chrono>
#include <cstdio>

#include "analytical/cache_prepass.h"
#include "analytical/interval_model.h"
#include "analytical/rd_profile.h"
#include "common/stats.h"
#include "config/presets.h"
#include "swiftsim_bench.h"

namespace swiftsim::bench {

namespace {

// Appends `r` (run by hand, outside the run pipeline) under `level`.
void AppendStep(const Bench& b, const std::string& app, const char* level,
                Record r, double wall) {
  r.app = app;
  r.level = level;
  r.wall_s = wall;
  b.Append(r);
}

}  // namespace

int RunAblationHybrid(Bench& b) {
  const GpuConfig gpu = Rtx2080TiConfig();
  const RunOptions& run = b.opt().run;
  ModelSelection hybrid_alu = SelectionFor(SimLevel::kDetailed);
  hybrid_alu.alu = AluModelKind::kHybridAnalytical;
  const std::pair<const char*, ModelSelection> steps[] = {
      {"detailed", SelectionFor(SimLevel::kDetailed)},
      {"+hybrid-alu", hybrid_alu},
      {"+simple-frontend", SelectionFor(SimLevel::kSwiftSimBasic)},
      {"+analytical-mem", SelectionFor(SimLevel::kSwiftSimMemory)},
  };

  for (const Application& app : b.Apps()) {
    const MemProfile profile = BuildMemProfile(app, gpu, run.memo);
    std::printf("-- %s --\n", app.name.c_str());
    double base_wall = 0;
    Cycle base_cycles = 0;
    for (const auto& [name, sel] : steps) {
      GpuModel model(gpu, sel,
                     sel.mem == MemModelKind::kAnalytical ? &profile : nullptr,
                     run.model);
      const auto t0 = std::chrono::steady_clock::now();
      const SimResult r = model.RunApplication(app);
      const auto t1 = std::chrono::steady_clock::now();
      const double wall = std::chrono::duration<double>(t1 - t0).count();
      if (base_wall == 0) {
        base_wall = wall;
        base_cycles = r.total_cycles;
      }
      AppendStep(b, app.name, name, RecordOf(r), wall);
      std::printf("  %-22s cycles=%10llu  err_vs_detailed=%+6.1f%%  "
                  "speedup=%6.2fx\n",
                  name,
                  static_cast<unsigned long long>(r.total_cycles),
                  SignedErrPct(r.total_cycles, base_cycles),
                  base_wall / wall);
    }
    // Swift-Sim-Memory fed by the reuse-distance hit-rate source instead
    // of the functional cache pre-pass (the paper names both, §III-D2).
    {
      const MemProfile rd = BuildMemProfileReuseDistance(app, gpu);
      GpuModel model(gpu, steps[3].second, &rd, run.model);
      const SimResult r = model.RunApplication(app);
      AppendStep(b, app.name, "+mem-reuse-distance", RecordOf(r),
                 r.wall_seconds);
      std::printf("  %-22s cycles=%10llu  err_vs_detailed=%+6.1f%%\n",
                  "+mem (reuse-distance)",
                  static_cast<unsigned long long>(r.total_cycles),
                  SignedErrPct(r.total_cycles, base_cycles));
    }
    // Pure-analytical comparator (GPUMech-style interval analysis): the
    // related-work class the paper contrasts hybrid simulation against.
    {
      const auto t0 = std::chrono::steady_clock::now();
      const IntervalEstimate est = EstimateCycles(app, gpu, profile);
      const auto t1 = std::chrono::steady_clock::now();
      const double wall = std::chrono::duration<double>(t1 - t0).count();
      Record r;
      r.cycles = est.total_cycles;
      AppendStep(b, app.name, "pure-analytical", r, wall);
      std::printf("  %-22s cycles=%10llu  err_vs_detailed=%+6.1f%%  "
                  "speedup=%6.2fx (no DSE knobs)\n",
                  "pure-analytical",
                  static_cast<unsigned long long>(est.total_cycles),
                  SignedErrPct(est.total_cycles, base_cycles),
                  base_wall / std::max(wall, 1e-6));
    }
  }
  return 0;
}

}  // namespace swiftsim::bench
