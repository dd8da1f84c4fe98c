// Figure 6: performance-prediction errors of Swift-Sim-Basic and the
// Accel-Sim-class baseline across three GPUs (RTX 2080 Ti / 3060 / 3090).
//
// Paper reference: 3060 — Swift-Sim-Basic 25.14% vs Accel-Sim 23.81%;
// 3090 — 20.23% vs 27.93%, with Accel-Sim degrading on BFS/ADI/LU due to
// cache reservation failures. We report reservation-failure counts from
// the baseline's (non-streaming) L2 alongside the errors.
#include <cmath>
#include <cstdio>

#include "common/stats.h"
#include "config/presets.h"
#include "swiftsim_bench.h"

namespace swiftsim::bench {

int RunFig6(Bench& b) {
  for (const auto& name : PresetNames()) {
    const GpuConfig gpu = PresetByName(name);
    // Records name the GPU with the level: "<preset>/<level>".
    const auto arm = [&name](SimLevel level) {
      return name + "/" + ToString(level);
    };
    std::printf("-- %s --\n", gpu.name.c_str());
    std::printf("%-10s %12s %10s %10s %14s\n", "app", "hw_cycles",
                "err_accel", "err_basic", "rsv_fails");
    std::vector<double> err_a, err_b;
    for (const Application& app : b.Apps()) {
      const Record hw =
          b.Run(app, gpu, SimLevel::kSilicon, arm(SimLevel::kSilicon));
      // The reservation/MSHR failure total needs the model itself, so the
      // baseline runs on a GpuModel directly.
      GpuModel accel_model(gpu, SelectionFor(SimLevel::kDetailed), nullptr,
                           b.opt().run.model);
      const SimResult accel = accel_model.RunApplication(app);
      Record accel_record = RecordOf(accel);
      accel_record.app = app.name;
      accel_record.level = arm(SimLevel::kDetailed);
      accel_record.Count(
          "reservation_fails",
          static_cast<double>(accel_model.TotalReservationFails()));
      b.Append(accel_record);
      const Record basic = b.Run(app, gpu, SimLevel::kSwiftSimBasic,
                                 arm(SimLevel::kSwiftSimBasic));
      const double ea = SignedErrPct(accel.total_cycles, hw.cycles);
      const double eb = SignedErrPct(basic.cycles, hw.cycles);
      err_a.push_back(std::abs(ea));
      err_b.push_back(std::abs(eb));
      std::printf("%-10s %12llu %+9.1f%% %+9.1f%% %14llu\n",
                  app.name.c_str(),
                  static_cast<unsigned long long>(hw.cycles), ea, eb,
                  static_cast<unsigned long long>(
                      accel_model.TotalReservationFails()));
    }
    std::printf("mean error: accel-sim=%.2f%%  swift-sim-basic=%.2f%%\n",
                Mean(err_a), Mean(err_b));
  }
  std::printf("(paper: 3060 25.14%%/23.81%%; 3090 20.23%%/27.93%%)\n");
  return 0;
}

}  // namespace swiftsim::bench
