// Figure 4: per-application cycle-prediction error (Swift-Sim-Basic,
// Swift-Sim-Memory and the Accel-Sim-class baseline, all vs. the silicon
// oracle standing in for the RTX 2080 Ti) and the speedup of the two
// Swift-Sim simulators over the baseline.
//
// Paper reference points: mean error 22.6% (Basic) / 24.3% (Memory) /
// 20.2% (Accel-Sim); geometric-mean speedups 82.6x / 211.2x with ~50-way
// parallelism; NW, ADI, SM, GRU exceed 1000x for Swift-Sim-Memory.
// The speedups printed here are single-thread (the "serial" component);
// the parallel contribution is measured by the fig5 case.
#include <cmath>
#include <cstdio>

#include "common/stats.h"
#include "config/presets.h"
#include "swiftsim_bench.h"

namespace swiftsim::bench {

int RunFig4(Bench& b) {
  const GpuConfig gpu = Rtx2080TiConfig();
  std::printf("%-10s %12s %10s %10s %10s | %9s %9s\n", "app", "hw_cycles",
              "err_accel", "err_basic", "err_mem", "sp_basic", "sp_mem");

  std::vector<double> err_a, err_b, err_m, sp_b, sp_m;
  for (const Application& app : b.Apps()) {
    const Record hw = b.Run(app, gpu, SimLevel::kSilicon);
    const Record accel = b.Run(app, gpu, SimLevel::kDetailed);
    const Record basic = b.Run(app, gpu, SimLevel::kSwiftSimBasic);
    const Record mem = b.Run(app, gpu, SimLevel::kSwiftSimMemory);

    const double ea = SignedErrPct(accel.cycles, hw.cycles);
    const double eb = SignedErrPct(basic.cycles, hw.cycles);
    const double em = SignedErrPct(mem.cycles, hw.cycles);
    const double sb = accel.wall_s / basic.wall_s;
    const double sm = accel.wall_s / mem.wall_s;
    err_a.push_back(std::abs(ea));
    err_b.push_back(std::abs(eb));
    err_m.push_back(std::abs(em));
    sp_b.push_back(sb);
    sp_m.push_back(sm);
    std::printf("%-10s %12llu %+9.1f%% %+8.1f%% %+8.1f%% | %8.1fx %8.1fx\n",
                app.name.c_str(),
                static_cast<unsigned long long>(hw.cycles), ea, eb, em, sb,
                sm);
  }
  std::printf("-- summary (paper: err 20.2%% / 22.6%% / 24.3%%; serial "
              "speedup component of 82.6x / 211.2x) --\n");
  std::printf("mean error   accel-sim=%.1f%%  basic=%.1f%%  memory=%.1f%%\n",
              Mean(err_a), Mean(err_b), Mean(err_m));
  std::printf("geomean single-thread speedup  basic=%.1fx  memory=%.1fx\n",
              GeoMean(sp_b), GeoMean(sp_m));
  return 0;
}

}  // namespace swiftsim::bench
