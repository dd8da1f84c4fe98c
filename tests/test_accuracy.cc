// Accuracy gate: pins each workload's signed cycle error against the
// silicon oracle, (cycles / silicon - 1), at the detailed, basic and memory
// levels, plus the mean |error| per level (the paper's Fig. 4 figure of
// merit). A change that moves any app's error by more than the tolerance
// fails here, so speed or simplification work cannot quietly rewrite the
// accuracy story. On failure the test prints the measured table in the
// layout of kPinned, ready to re-pin when a change means to move it.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/stats.h"
#include "config/gpu_config.h"
#include "swiftsim/simulator.h"
#include "workloads/workload.h"

namespace swiftsim {
namespace {

constexpr double kScale = 0.05;
constexpr std::uint64_t kSeed = 0x5eed5eedULL;
constexpr double kTolerancePp = 0.5;  // percentage points

constexpr SimLevel kLevels[] = {SimLevel::kDetailed, SimLevel::kSwiftSimBasic,
                                SimLevel::kSwiftSimMemory};
constexpr int kNumLevels = 3;

struct Pinned {
  const char* app;
  double err_pct[kNumLevels];  // detailed, basic, memory
};

// Signed error in percent, (cycles / silicon - 1) * 100.
constexpr Pinned kPinned[] = {
    {"BFS",        {-16.09, -16.54, +10.63}},
    {"NW",         {-14.56, -14.67,  +7.89}},
    {"HOTSPOT",    {-21.05, -18.77, +36.86}},
    {"PATHFINDER", {-20.87, -21.28, +23.38}},
    {"GAUSSIAN",   {-22.89, -23.86, +23.02}},
    {"SRAD",       {-19.31, -19.58, -11.78}},
    {"ADI",        {-11.94, -13.69, -29.25}},
    {"LU",         {-18.67, -18.26,  +6.31}},
    {"2MM",        {-22.32, -21.57, -25.71}},
    {"GEMM",       {-22.34, -21.86,  -0.25}},
    {"ATAX",       {-11.02, -11.37, -14.00}},
    {"MVT",        {-21.03, -21.65, -21.63}},
    {"SM",         {-20.49, -20.52, +29.82}},
    {"II",         { -7.11,  -8.75, -10.99}},
    {"GRU",        {-19.43, -19.86, +25.57}},
    {"LSTM",       {-14.80, -16.91, +12.31}},
    {"PAGERANK",   {-16.57, -16.89, +22.97}},
    {"SSSP",       { -7.01,  -7.01, -21.22}},
};

// Mean |error| in percent per level, over all workloads.
constexpr double kPinnedMeanAbs[kNumLevels] = {17.08, 17.39, 18.53};

std::string Table(const std::vector<std::string>& apps,
                  const std::vector<std::vector<double>>& err,
                  const double (&mean_abs)[kNumLevels]) {
  std::string out = "measured (detailed, basic, memory), in percent:\n";
  char line[128];
  for (std::size_t i = 0; i < apps.size(); ++i) {
    std::snprintf(line, sizeof line, "    {\"%s\", {%+.2f, %+.2f, %+.2f}},\n",
                  apps[i].c_str(), err[i][0], err[i][1], err[i][2]);
    out += line;
  }
  std::snprintf(line, sizeof line, "mean |err|: {%.2f, %.2f, %.2f}\n",
                mean_abs[0], mean_abs[1], mean_abs[2]);
  return out + line;
}

TEST(Accuracy, PinnedCycleErrorAgainstSilicon) {
  const GpuConfig cfg;
  std::vector<std::string> apps;
  std::vector<std::vector<double>> err;  // [app][level], percent
  std::vector<double> silicon;
  std::vector<std::vector<double>> cycles(kNumLevels);
  for (const WorkloadSpec& spec : AllWorkloads()) {
    const Application app = BuildWorkload(spec.name, {kScale, kSeed});
    const double si = static_cast<double>(
        RunSimulation(app, cfg, SimLevel::kSilicon).total_cycles);
    ASSERT_GT(si, 0.0) << spec.name;
    apps.push_back(spec.name);
    silicon.push_back(si);
    err.emplace_back();
    for (int l = 0; l < kNumLevels; ++l) {
      const double c = static_cast<double>(
          RunSimulation(app, cfg, kLevels[l]).total_cycles);
      cycles[l].push_back(c);
      err.back().push_back(100.0 * (c / si - 1.0));
    }
  }
  double mean_abs[kNumLevels];
  for (int l = 0; l < kNumLevels; ++l) {
    mean_abs[l] = 100.0 * MeanAbsRelError(cycles[l], silicon);
  }
  const std::string table = Table(apps, err, mean_abs);

  ASSERT_EQ(apps.size(), std::size(kPinned)) << table;
  bool ok = true;
  for (std::size_t i = 0; i < apps.size(); ++i) {
    EXPECT_EQ(apps[i], kPinned[i].app);
    for (int l = 0; l < kNumLevels; ++l) {
      const bool near =
          std::abs(err[i][l] - kPinned[i].err_pct[l]) <= kTolerancePp;
      EXPECT_TRUE(near) << apps[i] << " " << ToString(kLevels[l])
                        << ": error " << err[i][l] << "%, pinned "
                        << kPinned[i].err_pct[l] << "%";
      ok = ok && near;
    }
  }
  for (int l = 0; l < kNumLevels; ++l) {
    const bool near = std::abs(mean_abs[l] - kPinnedMeanAbs[l]) <= kTolerancePp;
    EXPECT_TRUE(near) << ToString(kLevels[l]) << ": mean |error| "
                      << mean_abs[l] << "%, pinned " << kPinnedMeanAbs[l]
                      << "%";
    ok = ok && near;
  }
  if (!ok) ADD_FAILURE() << table;
}

}  // namespace
}  // namespace swiftsim
