// Bit-identity tests for event-calendar cycle skipping (DESIGN.md §9):
// with cfg.cycle_skip the cycle-accurate driver fast-forwards over spans
// the wake calendar proves are no-op ticks. Every observable — total
// cycles, per-kernel cycles, instruction counts, and every non-driver
// metric (including per-SM stall accounting) — must match the plain
// per-cycle loop exactly.
#include <gtest/gtest.h>

#include <map>
#include <string>

#include "config/presets.h"
#include "swiftsim/simulator.h"
#include "workloads/workload.h"

namespace swiftsim {
namespace {

GpuConfig SmallGpu(bool cycle_skip) {
  GpuConfig cfg = Rtx2080TiConfig();
  cfg.num_sms = 4;
  cfg.num_mem_partitions = 2;
  cfg.cycle_skip = cycle_skip;
  return cfg;
}

Application SmallApp(const std::string& name) {
  WorkloadScale s;
  s.scale = 0.02;
  return BuildWorkload(name, s);
}

// Driver-side skip counters legitimately differ between the two runs;
// everything else (per-SM, cache, NoC, DRAM counters) must not.
std::map<std::string, std::uint64_t> NonDriverMetrics(
    const std::map<std::string, std::uint64_t>& metrics) {
  std::map<std::string, std::uint64_t> out;
  for (const auto& [key, value] : metrics) {
    if (key.rfind("driver.", 0) != 0) out[key] = value;
  }
  return out;
}

void ExpectIdentical(const SimResult& reference, const SimResult& skipped,
                     const std::string& what) {
  EXPECT_EQ(reference.total_cycles, skipped.total_cycles) << what;
  EXPECT_EQ(reference.instructions, skipped.instructions) << what;
  ASSERT_EQ(reference.kernels.size(), skipped.kernels.size()) << what;
  for (std::size_t k = 0; k < reference.kernels.size(); ++k) {
    EXPECT_EQ(reference.kernels[k].cycles, skipped.kernels[k].cycles)
        << what << " kernel " << reference.kernels[k].name;
    EXPECT_EQ(reference.kernels[k].instructions,
              skipped.kernels[k].instructions)
        << what << " kernel " << reference.kernels[k].name;
  }
  EXPECT_EQ(NonDriverMetrics(reference.metrics),
            NonDriverMetrics(skipped.metrics))
      << what;
}

TEST(CycleSkip, SerialDetailedBitIdenticalAcrossAllWorkloads) {
  const GpuConfig ref_cfg = SmallGpu(/*cycle_skip=*/false);
  const GpuConfig skip_cfg = SmallGpu(/*cycle_skip=*/true);
  for (const auto& spec : AllWorkloads()) {
    const Application app = SmallApp(spec.name);
    const SimResult reference =
        RunSimulation(app, ref_cfg, SimLevel::kDetailed);
    const SimResult skipped =
        RunSimulation(app, skip_cfg, SimLevel::kDetailed);
    ExpectIdentical(reference, skipped,
                    std::string(spec.name) + "/detailed");
  }
}

TEST(CycleSkip, SerialSiliconBitIdentical) {
  // kSilicon adds launch overhead and DRAM refresh; the refresh edge must
  // appear in the memory calendar or a skip would jump straight over it.
  const GpuConfig ref_cfg = SmallGpu(false);
  const GpuConfig skip_cfg = SmallGpu(true);
  for (const char* name : {"GEMM", "BFS", "HOTSPOT"}) {
    const Application app = SmallApp(name);
    const SimResult reference =
        RunSimulation(app, ref_cfg, SimLevel::kSilicon);
    const SimResult skipped =
        RunSimulation(app, skip_cfg, SimLevel::kSilicon);
    ExpectIdentical(reference, skipped, std::string(name) + "/silicon");
  }
}

TEST(CycleSkip, ActuallySkipsOnMemoryBoundWork) {
  // Guard against a trivially-disabled calendar: the irregular graph app
  // spends long spans waiting on DRAM, so a working calendar must elide
  // cycles there; with the knob off the counters must stay zero.
  const Application app = SmallApp("BFS");
  const SimResult skipped =
      RunSimulation(app, SmallGpu(true), SimLevel::kDetailed);
  EXPECT_GT(skipped.metrics.at("driver.cycles_skipped"), 0u);
  EXPECT_GT(skipped.metrics.at("driver.skip_jumps"), 0u);
  const SimResult reference =
      RunSimulation(app, SmallGpu(false), SimLevel::kDetailed);
  EXPECT_EQ(reference.metrics.at("driver.cycles_skipped"), 0u);
  EXPECT_EQ(reference.metrics.at("driver.skip_jumps"), 0u);
}

TEST(CycleSkip, SpanHistogramAccountsEveryJump) {
  const Application app = SmallApp("BFS");
  const SimResult r =
      RunSimulation(app, SmallGpu(true), SimLevel::kDetailed);
  std::uint64_t hist_total = 0;
  for (unsigned k = 0; k < 8; ++k) {
    hist_total +=
        r.metrics.at("driver.skip_span_ge_" + std::to_string(1u << k));
  }
  EXPECT_EQ(hist_total, r.metrics.at("driver.skip_jumps"));
}

TEST(CycleSkip, HybridLevelsIgnoreTheKnob) {
  // Skipping only gates the cycle-accurate-ALU driver; the hybrid levels
  // keep their own fast-forward and must be byte-for-byte unaffected.
  const Application app = SmallApp("SM");
  for (SimLevel level :
       {SimLevel::kSwiftSimBasic, SimLevel::kSwiftSimMemory}) {
    const SimResult on = RunSimulation(app, SmallGpu(true), level);
    const SimResult off = RunSimulation(app, SmallGpu(false), level);
    ExpectIdentical(on, off, ToString(level));
  }
}

TEST(CycleSkip, TightenedL2DrainBudgetStaysBitIdentical) {
  // The hoisted mem.l2_drain_attempts knob changes contention timing, so
  // the calendar must stay exact under a non-default budget too.
  GpuConfig ref_cfg = SmallGpu(false);
  GpuConfig skip_cfg = SmallGpu(true);
  ref_cfg.l2_drain_attempts = 1;
  skip_cfg.l2_drain_attempts = 1;
  const Application app = SmallApp("BFS");
  const SimResult reference =
      RunSimulation(app, ref_cfg, SimLevel::kDetailed);
  const SimResult skipped =
      RunSimulation(app, skip_cfg, SimLevel::kDetailed);
  ExpectIdentical(reference, skipped, "BFS/detailed/l2_drain_attempts=1");
}

}  // namespace
}  // namespace swiftsim
