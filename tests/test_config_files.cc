// The shipped configs/ files must stay in sync with the built-in presets
// and the sparse-override workflow must work end to end.
#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "config/gpu_config.h"
#include "config/ini.h"
#include "config/presets.h"

namespace swiftsim {
namespace {

std::string ConfigDir() {
  // Tests run from build/tests; the files live in <repo>/configs. Probe a
  // few relative locations so the test works from any build layout.
  for (const char* candidate :
       {"../../configs", "../configs", "configs", "../../../configs"}) {
    std::ifstream probe(std::string(candidate) + "/rtx2080ti.ini");
    if (probe.good()) return candidate;
  }
  return "";
}

class ConfigFiles : public ::testing::TestWithParam<std::string> {};

TEST_P(ConfigFiles, FileMatchesBuiltInPreset) {
  const std::string dir = ConfigDir();
  if (dir.empty()) GTEST_SKIP() << "configs/ not found from test cwd";
  const GpuConfig preset = PresetByName(GetParam());
  const IniFile file = IniFile::ParseFile(dir + "/" + GetParam() + ".ini");
  EXPECT_EQ(GpuConfig::FromIni(file).ToIniString(), preset.ToIniString());
  // FromIni ignores unknown keys, so a stale line (a deleted or renamed
  // key) would otherwise pass unnoticed; a missing one would fall back to
  // the default silently.
  const std::vector<std::string> keys = file.Keys();
  EXPECT_EQ(std::set<std::string>(keys.begin(), keys.end()),
            GpuConfig::IniKeys());
}

INSTANTIATE_TEST_SUITE_P(Presets, ConfigFiles,
                         ::testing::Values("rtx2080ti", "rtx3060",
                                           "rtx3090"));

TEST(ConfigFiles, SparseOverrideOnPreset) {
  const std::string dir = ConfigDir();
  if (dir.empty()) GTEST_SKIP() << "configs/ not found from test cwd";
  const GpuConfig cfg = GpuConfig::FromIni(
      IniFile::ParseFile(dir + "/example_override.ini"),
      Rtx2080TiConfig());
  EXPECT_EQ(cfg.sched_policy, SchedPolicy::kLrr);
  EXPECT_EQ(cfg.l1.size_bytes, 128u * 1024);
  // Everything else keeps the preset values.
  EXPECT_EQ(cfg.num_sms, 68u);
  EXPECT_EQ(cfg.dram.latency, 227u);
}

}  // namespace
}  // namespace swiftsim
