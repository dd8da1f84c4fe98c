// Facade and parallel-runner integration tests.
#include "swiftsim/simulator.h"

#include <gtest/gtest.h>

#include "config/presets.h"
#include "swiftsim/parallel.h"
#include "workloads/workload.h"

namespace swiftsim {
namespace {

GpuConfig SmallGpu() {
  GpuConfig cfg = Rtx2080TiConfig();
  cfg.num_sms = 4;
  cfg.num_mem_partitions = 2;
  return cfg;
}

Application SmallApp(const std::string& name) {
  WorkloadScale s;
  s.scale = 0.03;
  return BuildWorkload(name, s);
}

TEST(Simulator, AllLevelsRunAndLabelResults) {
  const GpuConfig cfg = SmallGpu();
  const Application app = SmallApp("NW");
  for (SimLevel level : {SimLevel::kSilicon, SimLevel::kDetailed,
                         SimLevel::kSwiftSimBasic,
                         SimLevel::kSwiftSimMemory}) {
    const SimResult r = RunSimulation(app, cfg, level);
    EXPECT_GT(r.total_cycles, 0u) << ToString(level);
    EXPECT_EQ(r.simulator, ToString(level));
    EXPECT_EQ(r.app, "NW");
    EXPECT_GT(r.wall_seconds, 0.0);
  }
}

TEST(Simulator, ReusableHandleRunsRepeatably) {
  const GpuConfig cfg = SmallGpu();
  const Application app = SmallApp("SM");
  Simulator sim(app, cfg, SimLevel::kSwiftSimMemory);
  const SimResult a = sim.Run();
  const SimResult b = sim.Run();
  EXPECT_EQ(a.total_cycles, b.total_cycles);
  EXPECT_NE(sim.profile(), nullptr);  // pre-pass ran once
}

TEST(Simulator, NonAnalyticalLevelsSkipPrepass) {
  const GpuConfig cfg = SmallGpu();
  const Application app = SmallApp("SM");
  Simulator sim(app, cfg, SimLevel::kDetailed);
  EXPECT_EQ(sim.profile(), nullptr);
}

TEST(ParallelRunner, AppBatchMatchesSerialResults) {
  const GpuConfig cfg = SmallGpu();
  std::vector<Application> apps;
  for (const char* name : {"SM", "GEMM", "BFS"}) {
    apps.push_back(SmallApp(name));
  }
  const ParallelBatchResult batch =
      RunAppsParallel(apps, cfg, SimLevel::kSwiftSimBasic, 2);
  ASSERT_EQ(batch.results.size(), 3u);
  for (std::size_t i = 0; i < apps.size(); ++i) {
    const SimResult serial =
        RunSimulation(apps[i], cfg, SimLevel::kSwiftSimBasic);
    EXPECT_EQ(batch.results[i].total_cycles, serial.total_cycles)
        << apps[i].name;
    EXPECT_EQ(batch.results[i].app, apps[i].name);
  }
  EXPECT_GT(batch.wall_seconds, 0.0);
}

TEST(ParallelRunner, RejectsZeroThreads) {
  const GpuConfig cfg = SmallGpu();
  const std::vector<Application> apps{SmallApp("SM")};
  EXPECT_THROW(RunAppsParallel(apps, cfg, SimLevel::kSwiftSimBasic, 0),
               SimError);
}

}  // namespace
}  // namespace swiftsim
