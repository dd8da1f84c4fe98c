// Exactness tests for the parallel batch runner: every app lane of a
// batch must be bit-identical to its serial run, for any thread count and
// batch shape.
#include "swiftsim/parallel.h"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "config/presets.h"
#include "swiftsim/fault_inject.h"
#include "swiftsim/simulator.h"
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

void ExpectIdentical(const SimResult& serial, const SimResult& parallel,
                     const std::string& what) {
  EXPECT_EQ(serial.total_cycles, parallel.total_cycles) << what;
  EXPECT_EQ(serial.instructions, parallel.instructions) << what;
  ASSERT_EQ(serial.kernels.size(), parallel.kernels.size()) << what;
  for (std::size_t k = 0; k < serial.kernels.size(); ++k) {
    EXPECT_EQ(serial.kernels[k].cycles, parallel.kernels[k].cycles)
        << what << " kernel " << serial.kernels[k].name;
    EXPECT_EQ(serial.kernels[k].instructions,
              parallel.kernels[k].instructions)
        << what << " kernel " << serial.kernels[k].name;
  }
}

/// Everything except driver telemetry (driver.* describes how the run was
/// executed — skip spans — not what was simulated).
std::map<std::string, std::uint64_t> NonDriverMetrics(const SimResult& r) {
  std::map<std::string, std::uint64_t> out;
  for (const auto& [name, value] : r.metrics) {
    if (name.rfind("driver.", 0) != 0) out.emplace(name, value);
  }
  return out;
}

TEST(BatchModes, EveryShapeMatchesSerial) {
  // Fewer apps than threads, through either overload: every lane runs the
  // serial simulator.
  const GpuConfig cfg = SmallGpu();
  const Application sm = SmallApp("SM");
  const Application bfs = SmallApp("BFS");
  std::map<std::string, SimResult> serial;
  for (const Application* app : {&sm, &bfs}) {
    serial[app->name] = RunSimulation(*app, cfg, SimLevel::kSwiftSimBasic);
  }
  struct Row {
    const char* label;
    std::vector<Application> apps;
    bool isolated;
  };
  const Row rows[] = {
      {"one app", {sm}, false},
      {"two apps", {sm, bfs}, false},
      {"one app isolated", {sm}, true},
      {"two apps isolated", {sm, bfs}, true},
  };
  for (const Row& row : rows) {
    const ParallelBatchResult batch =
        row.isolated ? RunAppsParallel(row.apps, cfg, SimLevel::kSwiftSimBasic,
                                       4, RunOptions{})
                     : RunAppsParallel(row.apps, cfg,
                                       SimLevel::kSwiftSimBasic, 4);
    ASSERT_EQ(batch.results.size(), row.apps.size()) << row.label;
    ASSERT_EQ(batch.statuses.size(), row.isolated ? row.apps.size() : 0u)
        << row.label;
    for (std::size_t i = 0; i < row.apps.size(); ++i) {
      const SimResult& ref = serial.at(row.apps[i].name);
      const SimResult& got = batch.results[i];
      const std::string what = std::string(row.label) + "/" + ref.app;
      if (row.isolated) {
        EXPECT_EQ(batch.statuses[i].status, AppStatus::kOk) << what;
      }
      ExpectIdentical(ref, got, what);
      EXPECT_EQ(NonDriverMetrics(ref), NonDriverMetrics(got)) << what;
      EXPECT_EQ(ref.simulator, got.simulator) << what;
    }
  }
}

TEST(BatchModes, FaultPlanForcesAppParallelLanes) {
  // An armed fault plan (here an empty one) runs each app on its own
  // resilient serial lane, even with threads to spare.
  const GpuConfig cfg = SmallGpu();
  const std::vector<Application> apps = {SmallApp("SM")};
  const SimResult serial =
      RunSimulation(apps[0], cfg, SimLevel::kSwiftSimBasic);
  FaultPlan plan;
  RunOptions options;
  options.fault_plan = &plan;
  const ParallelBatchResult batch =
      RunAppsParallel(apps, cfg, SimLevel::kSwiftSimBasic, 4, options);
  ASSERT_EQ(batch.results.size(), 1u);
  ASSERT_EQ(batch.statuses.size(), 1u);
  EXPECT_EQ(batch.statuses[0].status, AppStatus::kOk);
  ExpectIdentical(serial, batch.results[0], "fault plan");
  EXPECT_EQ(NonDriverMetrics(serial), NonDriverMetrics(batch.results[0]));
  EXPECT_EQ(batch.results[0].simulator, ToString(SimLevel::kSwiftSimBasic));
}

}  // namespace
}  // namespace swiftsim
