// Hot-path throughput microbench: serial kDetailed (accel-sim-baseline)
// instructions-per-second over a small memory-heavy suite. This is the
// gate for hot-path optimisations — the detailed model exercises the
// full cycle-accurate stack (frontend, operand collector, LD/ST unit,
// L1/MSHR, NoC, L2, DRAM) every cycle, so any per-cycle allocation or
// cache-hostile container shows up directly in this number.
//
// Each app is run twice and the faster run is reported, to shave scheduler
// noise off short runs. Exits non-zero when an app measures no throughput.
#include <cstdio>
#include <cstdlib>

#include "config/presets.h"
#include "swiftsim_bench.h"

namespace swiftsim::bench {

int RunHotpath(Bench& b) {
  // Mixed suite: compute-bound, streaming, and irregular so the bench
  // stresses both the core pipeline and the memory system. BFS/PAGERANK
  // are the memory-bound apps with long idle spans where the event
  // calendar (DESIGN.md §9) earns its keep.
  const GpuConfig gpu = Rtx2080TiConfig();
  double total_instrs = 0, total_wall = 0;
  std::printf("%-10s %12s %10s %14s %12s %8s\n", "app", "cycles", "wall[s]",
              "instrs/sec", "skipped", "jumps");
  const auto& apps = b.Apps();
  for (std::size_t i = 0; i < apps.size(); ++i) {
    const Application& app = apps[i];
    const RunSpec spec{app, gpu, SimLevel::kDetailed, b.opt().run};
    Record best = RecordOf(Run(spec));
    const RunOutcome again = Run(spec);
    if (again.result.wall_seconds < best.wall_s) best = RecordOf(again);
    // Trace-footprint figures (DESIGN.md §14) travel with every record so
    // the history tracks memory compaction alongside throughput.
    best.Count("trace_bytes", static_cast<double>(TraceBytesOf(app)));
    best.Count("peak_rss_kb", static_cast<double>(PeakRssKb()));
    best.Count("trace_build_s", b.BuildSeconds()[i]);
    // Append before the throughput gate so per-app statuses
    // (timeout/hang/error) survive for post-mortem.
    b.Append(best);
    if (best.status != "ok" && best.status != "degraded") {
      std::printf("%-10s %s: %s\n", best.app.c_str(), best.status.c_str(),
                  best.error.c_str());
      continue;
    }
    const double ips =
        best.wall_s > 0 ? static_cast<double>(best.instructions) / best.wall_s
                        : 0.0;
    std::printf("%-10s %12llu %10.3f %14.0f %12llu %8llu\n", best.app.c_str(),
                static_cast<unsigned long long>(best.cycles), best.wall_s, ips,
                static_cast<unsigned long long>(
                    best.Counter("driver.cycles_skipped")),
                static_cast<unsigned long long>(
                    best.Counter("driver.skip_jumps")));
    if (!(ips > 0)) {
      std::printf("ERROR: zero throughput for %s\n", best.app.c_str());
      return EXIT_FAILURE;
    }
    total_instrs += static_cast<double>(best.instructions);
    total_wall += best.wall_s;
  }
  if (!(total_wall > 0)) {
    std::printf("ERROR: no work measured\n");
    return EXIT_FAILURE;
  }
  std::printf("%-10s %23s %14.0f\n", "SUITE", "", total_instrs / total_wall);
  return EXIT_SUCCESS;
}

}  // namespace swiftsim::bench
