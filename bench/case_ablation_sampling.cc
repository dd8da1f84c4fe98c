// Ablation: CTA sampling composed with hybrid simulation (paper §II-B:
// sampling approaches are orthogonal to Swift-Sim — "they still rely on
// cycle-accurate simulation or analytical models for the sampled
// application"). For each app: full-run cycles vs. sampled estimates at
// decreasing fractions, with the additional speedup sampling brings.
#include <cmath>
#include <cstdio>

#include "config/presets.h"
#include "swiftsim/sampling.h"
#include "swiftsim_bench.h"

namespace swiftsim::bench {

int RunAblationSampling(Bench& b) {
  const GpuConfig gpu = Rtx2080TiConfig();
  std::printf("%-10s %12s | %28s | %28s\n", "app", "full_cycles",
              "sample 25% (err, speedup)", "sample 10% (err, speedup)");
  for (const Application& app : b.Apps()) {
    const Record full = b.Run(app, gpu, SimLevel::kSwiftSimBasic);
    std::printf("%-10s %12llu |", app.name.c_str(),
                static_cast<unsigned long long>(full.cycles));
    for (double fraction : {0.25, 0.10}) {
      const SampledResult s =
          RunSampledSimulation(app, gpu, SimLevel::kSwiftSimBasic, fraction,
                               b.opt().run);
      Record r;
      r.app = app.name;
      r.level = "sampled-" + std::to_string(std::lround(fraction * 100)) + "%";
      r.cycles = s.estimated_cycles;
      r.wall_s = s.wall_seconds;
      r.Count("simulated_cycles", static_cast<double>(s.simulated_cycles));
      r.Count("sampled_ctas", static_cast<double>(s.sampled_ctas));
      b.Append(r);
      std::printf("  %10llu (%+5.1f%%, %4.1fx) |",
                  static_cast<unsigned long long>(s.estimated_cycles),
                  SignedErrPct(s.estimated_cycles, full.cycles),
                  full.wall_s / s.wall_seconds);
    }
    std::printf("\n");
  }
  std::printf("(sampling keeps at least one full chip wave; errors grow "
              "on grids with heterogeneous CTAs)\n");
  return 0;
}

}  // namespace swiftsim::bench
