// Bit-identity tests for event-calendar cycle skipping (DESIGN.md §9):
// with cycle skipping on the cycle-accurate driver fast-forwards over spans
// the wake calendar proves are no-op ticks. Every observable — total
// cycles, per-kernel cycles, instruction counts, and every non-driver
// metric (including per-SM stall accounting) — must match the plain
// per-cycle loop exactly.
#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "config/presets.h"
#include "swiftsim/fault_inject.h"
#include "swiftsim/memo_cache.h"
#include "swiftsim/parallel.h"
#include "swiftsim/simulator.h"
#include "trace/fingerprint.h"
#include "workloads/workload.h"

namespace swiftsim {
namespace {

GpuConfig SmallGpu() {
  GpuConfig cfg = Rtx2080TiConfig();
  cfg.num_sms = 4;
  cfg.num_mem_partitions = 2;
  return cfg;
}

RunOptions Skip(bool cycle_skip) {
  RunOptions options;
  options.model.cycle_skip = cycle_skip;
  // The knob does not key the memo, so a replay would stand in for the
  // second run; simulate both.
  options.memo = false;
  return options;
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
  const GpuConfig cfg = SmallGpu();
  for (const auto& spec : AllWorkloads()) {
    const Application app = SmallApp(spec.name);
    const SimResult reference =
        RunSimulation(app, cfg, SimLevel::kDetailed, Skip(false));
    const SimResult skipped =
        RunSimulation(app, cfg, SimLevel::kDetailed, Skip(true));
    ExpectIdentical(reference, skipped,
                    std::string(spec.name) + "/detailed");
  }
}

TEST(CycleSkip, SerialSiliconBitIdentical) {
  // kSilicon adds launch overhead and DRAM refresh; the refresh edge must
  // appear in the memory calendar or a skip would jump straight over it.
  const GpuConfig cfg = SmallGpu();
  for (const char* name : {"GEMM", "BFS", "HOTSPOT"}) {
    const Application app = SmallApp(name);
    const SimResult reference =
        RunSimulation(app, cfg, SimLevel::kSilicon, Skip(false));
    const SimResult skipped =
        RunSimulation(app, cfg, SimLevel::kSilicon, Skip(true));
    ExpectIdentical(reference, skipped, std::string(name) + "/silicon");
  }
}

TEST(CycleSkip, ActuallySkipsOnMemoryBoundWork) {
  // Guard against a trivially-disabled calendar: the irregular graph app
  // spends long spans waiting on DRAM, so a working calendar must elide
  // cycles there; with the knob off the counters must stay zero.
  const Application app = SmallApp("BFS");
  const SimResult skipped =
      RunSimulation(app, SmallGpu(), SimLevel::kDetailed, Skip(true));
  EXPECT_GT(skipped.metrics.at("driver.cycles_skipped"), 0u);
  EXPECT_GT(skipped.metrics.at("driver.skip_jumps"), 0u);
  const SimResult reference =
      RunSimulation(app, SmallGpu(), SimLevel::kDetailed, Skip(false));
  EXPECT_EQ(reference.metrics.at("driver.cycles_skipped"), 0u);
  EXPECT_EQ(reference.metrics.at("driver.skip_jumps"), 0u);
}

TEST(CycleSkip, SpanHistogramAccountsEveryJump) {
  const Application app = SmallApp("BFS");
  const SimResult r =
      RunSimulation(app, SmallGpu(), SimLevel::kDetailed, Skip(true));
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
    const SimResult on = RunSimulation(app, SmallGpu(), level, Skip(true));
    const SimResult off = RunSimulation(app, SmallGpu(), level, Skip(false));
    ExpectIdentical(on, off, ToString(level));
  }
}

TEST(CycleSkip, TightenedL2DrainBudgetStaysBitIdentical) {
  // The hoisted mem.l2_drain_attempts knob changes contention timing, so
  // the calendar must stay exact under a non-default budget too.
  GpuConfig cfg = SmallGpu();
  cfg.l2_drain_attempts = 1;
  const Application app = SmallApp("BFS");
  const SimResult reference =
      RunSimulation(app, cfg, SimLevel::kDetailed, Skip(false));
  const SimResult skipped =
      RunSimulation(app, cfg, SimLevel::kDetailed, Skip(true));
  ExpectIdentical(reference, skipped, "BFS/detailed/l2_drain_attempts=1");
}

// --- Golden statistic digests ---------------------------------------------
// The skip-on vs skip-off tests above compare two runs of the same driver,
// which share every activity index (active SMs, queued L1 misses, busy NoC
// ports, idle memory partitions, live warp slots): a bug in one of those
// sets shows up in both runs alike. These digests pin the full observable
// result instead — total cycles, per-kernel cycles and instructions, and
// every metric name and value, driver.* included — as recorded by the
// full-scan driver the sets replaced. The rows after the 96-slot ones pin
// the run modes layered over that driver: memo replay, analytical degrade,
// per-kernel retry, trace-axis faults and an isolated batch.

enum class GoldenVariant {
  kPlain,
  kFaults,       // storm+delay runtime plan
  kWideSubCore,  // one 96-slot sub-core
  kMemoCold,     // memo on, app x4, empty caches
  kMemoWarm,     // memo on, app x4, second run over the warmed caches
  kWallDegrade,  // degrade.on_hang tripped by a wall budget, no plan
  kFaultRetry,   // storm+delay with degrade.max_retries = 1
  kTraceFaults,  // trace-axis truncation plan
  kBatch,        // isolated batch {app, poisoned app}; hashes outcomes too
};

struct GoldenRow {
  const char* app;
  const char* gpu;  // preset name
  SimLevel level;
  SchedPolicy policy;
  bool skip;
  GoldenVariant variant;
  const char* digest;  // Fingerprint::ToHex of GoldenDigest
};

std::string GoldenDigest(const SimResult& r) {
  FpHasher h;
  h.Mix(r.total_cycles);
  h.Mix(r.instructions);
  h.Mix(r.kernels.size());
  for (const KernelResult& k : r.kernels) {
    h.MixString(k.name);
    h.Mix(k.cycles);
    h.Mix(k.instructions);
  }
  h.Mix(r.metrics.size());
  for (const auto& [name, value] : r.metrics) {
    h.MixString(name);
    h.Mix(value);
  }
  return h.Digest().ToHex();
}

const char* PolicyName(SchedPolicy p) {
  switch (p) {
    case SchedPolicy::kGto:
      return "gto";
    case SchedPolicy::kLrr:
      return "lrr";
    case SchedPolicy::kTwoLevel:
      return "two_level";
  }
  return "?";
}

std::string RowLabel(const GoldenRow& row) {
  std::string label = std::string(row.app) + "/" + row.gpu + "/" +
                      ToString(row.level) + "/" + PolicyName(row.policy) +
                      (row.skip ? "/skip" : "/noskip");
  if (row.variant == GoldenVariant::kFaults) label += "/storm+delay";
  if (row.variant == GoldenVariant::kWideSubCore) label += "/96-slot";
  if (row.variant == GoldenVariant::kMemoCold) label += "/memo-cold";
  if (row.variant == GoldenVariant::kMemoWarm) label += "/memo-warm";
  if (row.variant == GoldenVariant::kWallDegrade) label += "/wall-degrade";
  if (row.variant == GoldenVariant::kFaultRetry) label += "/storm+delay+retry";
  if (row.variant == GoldenVariant::kTraceFaults) label += "/trace-faults";
  if (row.variant == GoldenVariant::kBatch) label += "/batch";
  return label;
}

FaultPlan StormDelayPlan() {
  FaultPlan plan;
  plan.name = "storm+delay";
  plan.seed = 7;
  plan.resp_delay_p = 0.3;
  plan.resp_delay_cycles = 9;
  plan.storm_p = 0.2;
  plan.storm_cycles = 8;
  return plan;
}

FaultPlan TruncatePlan() {
  FaultPlan plan;
  plan.name = "truncate";
  plan.seed = 7;
  plan.trace_truncate_p = 0.5;
  return plan;
}

/// A first kernel no SM can host: every attempt fails at launch.
Application Poisoned(Application app) {
  auto& first = app.kernels.front();
  KernelInfo info = first->info();
  info.smem_bytes_per_cta = 1u << 30;
  std::vector<CtaTrace> variants;
  for (std::size_t v = 0; v < first->num_variants(); ++v) {
    variants.push_back(first->variant(v));
  }
  first = std::make_shared<KernelTrace>(info, std::move(variants));
  app.name += "_poisoned";
  return app;
}

GpuConfig GoldenConfig(const GoldenRow& row) {
  GpuConfig cfg = PresetByName(row.gpu);
  cfg.sched_policy = row.policy;
  if (row.variant == GoldenVariant::kWideSubCore) {
    // One sub-core holding 96 warp slots: its live-slot set spans two
    // 64-bit words.
    cfg.sub_cores_per_sm = 1;
    cfg.max_warps_per_sm = 96;
    cfg.max_threads_per_sm = 96 * kWarpSize;
    cfg.registers_per_sm = 4 * 65536;
    cfg.max_ctas_per_sm = 32;
  }
  return cfg;
}

RunOptions GoldenOptions(const GoldenRow& row) {
  RunOptions options;
  options.model.cycle_skip = row.skip;
  options.memo = false;  // simulate every launch, never replay
  if (row.variant == GoldenVariant::kWallDegrade) {
    // The budget expires at the first wall-clock check (every 4096th
    // poll), so each kernel long enough to reach one degrades.
    options.model.watchdog.wall_seconds = 1e-9;
    options.degrade.on_hang = true;
  }
  if (row.variant == GoldenVariant::kFaultRetry) {
    options.degrade.max_retries = 1;
  }
  return options;
}

SimResult RunGoldenRow(const GoldenRow& row, const Application& app) {
  const GpuConfig cfg = GoldenConfig(row);
  RunOptions options = GoldenOptions(row);
  if (row.variant == GoldenVariant::kMemoCold ||
      row.variant == GoldenVariant::kMemoWarm) {
    options.memo = true;
    MemoCache::Global().Clear();
    ProfileCache::Global().Clear();
    const Application repeated = RepeatLaunches(app, 4);
    if (row.variant == GoldenVariant::kMemoWarm) {
      RunSimulation(repeated, cfg, row.level, options);
    }
    return RunSimulation(repeated, cfg, row.level, options);
  }
  const FaultPlan truncate = TruncatePlan();
  if (row.variant == GoldenVariant::kTraceFaults) {
    options.fault_plan = &truncate;
    return Run({app, cfg, row.level, options}).TakeOrThrow();
  }
  const FaultPlan plan = StormDelayPlan();
  if (row.variant == GoldenVariant::kFaults ||
      row.variant == GoldenVariant::kFaultRetry) {
    options.fault_plan = &plan;
  }
  return RunSimulation(app, cfg, row.level, options);
}

/// The batch row: every result's digest plus its outcome's status and
/// attempt count.
std::string GoldenBatchDigest(const GoldenRow& row, const Application& app) {
  const FaultPlan plan = StormDelayPlan();
  RunOptions options = GoldenOptions(row);
  options.fault_plan = &plan;
  options.retries = 1;
  const ParallelBatchResult batch = RunAppsParallel(
      {app, Poisoned(app)}, GoldenConfig(row), row.level, 2, options);
  FpHasher h;
  for (std::size_t i = 0; i < batch.results.size(); ++i) {
    h.MixString(GoldenDigest(batch.results[i]));
    h.MixString(ToString(batch.statuses.at(i).status));
    h.Mix(batch.statuses.at(i).attempts);
  }
  return h.Digest().ToHex();
}

std::string GoldenRowDigest(const GoldenRow& row, const Application& app) {
  if (row.variant == GoldenVariant::kBatch) {
    return GoldenBatchDigest(row, app);
  }
  const SimResult r = RunGoldenRow(row, app);
  if (row.variant == GoldenVariant::kWallDegrade) {
    EXPECT_FALSE(r.degrades.empty()) << RowLabel(row);
  }
  if (row.variant == GoldenVariant::kMemoWarm) {
    EXPECT_EQ(r.metrics.at("memo.misses"), 0u) << RowLabel(row);
  }
  return GoldenDigest(r);
}

constexpr SimLevel kDet = SimLevel::kDetailed;
constexpr SimLevel kBas = SimLevel::kSwiftSimBasic;
constexpr SimLevel kSil = SimLevel::kSilicon;
constexpr SimLevel kMem = SimLevel::kSwiftSimMemory;
constexpr SchedPolicy kGto = SchedPolicy::kGto;
constexpr SchedPolicy kLrr = SchedPolicy::kLrr;
constexpr SchedPolicy k2Lv = SchedPolicy::kTwoLevel;
constexpr GoldenVariant kPlain = GoldenVariant::kPlain;

// clang-format off
const GoldenRow kGoldenRows[] = {
    {"BFS", "rtx2080ti", kDet, kGto, true, kPlain,
     "0d284ec83b3a60c9a0089fa184649baa"},
    {"BFS", "rtx2080ti", kDet, kGto, false, kPlain,
     "cc57714767896579c8c4f467ba6d55d5"},
    {"BFS", "rtx2080ti", kDet, kLrr, true, kPlain,
     "f4c3cf3388854fa807751046f6fb2462"},
    {"BFS", "rtx2080ti", kDet, kLrr, false, kPlain,
     "b8fdd3c80beefc0b1bfa2c21a5c2a47d"},
    {"BFS", "rtx2080ti", kDet, k2Lv, true, kPlain,
     "6b99741a6cec0b834a33ae94f7d108e2"},
    {"BFS", "rtx2080ti", kDet, k2Lv, false, kPlain,
     "b8fdd3c80beefc0b1bfa2c21a5c2a47d"},
    {"BFS", "rtx2080ti", kSil, kGto, true, kPlain,
     "28c37d2c5ba26360674acac7c83a010e"},
    {"BFS", "rtx2080ti", kSil, kGto, false, kPlain,
     "659ba330b0ce866a52ab932cf66cd072"},
    {"BFS", "rtx2080ti", kSil, kLrr, true, kPlain,
     "5c99f84bdb0f92c073c71691979ec36b"},
    {"BFS", "rtx2080ti", kSil, kLrr, false, kPlain,
     "4c20aae36c827caf701d8a40714d9d30"},
    {"BFS", "rtx2080ti", kSil, k2Lv, true, kPlain,
     "017dc505a16bbc1dbde64b89d04418f5"},
    {"BFS", "rtx2080ti", kSil, k2Lv, false, kPlain,
     "4b1df0eb45b343df3de8fc08619b2c60"},
    {"BFS", "rtx2080ti", kBas, kGto, true, kPlain,
     "3d8c708299d3c1ae61e4a417d24aea32"},
    {"BFS", "rtx2080ti", kBas, kLrr, true, kPlain,
     "b6a82133a62beb9dc4a878ee7eca609a"},
    {"BFS", "rtx2080ti", kBas, k2Lv, true, kPlain,
     "9b46a51a9b55e055a5eb0fad12407b53"},
    {"GEMM", "rtx2080ti", kDet, kGto, true, kPlain,
     "e90783d7d6918101c1063f30f858a057"},
    {"GEMM", "rtx2080ti", kDet, kGto, false, kPlain,
     "fd0ca52a22004ffe9a369d5bf804425f"},
    {"GEMM", "rtx2080ti", kDet, kLrr, true, kPlain,
     "90d6cff144ac18cad54c0d8aad0b6fb8"},
    {"GEMM", "rtx2080ti", kDet, kLrr, false, kPlain,
     "32f5c97668f9bde0456a10a2656c3bd6"},
    {"GEMM", "rtx2080ti", kDet, k2Lv, true, kPlain,
     "e9cda95408dc90171e91c68653365d87"},
    {"GEMM", "rtx2080ti", kDet, k2Lv, false, kPlain,
     "32f5c97668f9bde0456a10a2656c3bd6"},
    {"GEMM", "rtx2080ti", kSil, kGto, true, kPlain,
     "712ff2437b61bc29b60f3c9651ad7988"},
    {"GEMM", "rtx2080ti", kSil, kGto, false, kPlain,
     "981c963973283e36f4617fed77a6c281"},
    {"GEMM", "rtx2080ti", kSil, kLrr, true, kPlain,
     "499785c6b4bb3e51cdbf5c26d231be8e"},
    {"GEMM", "rtx2080ti", kSil, kLrr, false, kPlain,
     "7a240b1b6d9949c215e2bbc5e6883011"},
    {"GEMM", "rtx2080ti", kSil, k2Lv, true, kPlain,
     "1a239745d6acbbdeb6a182251ec48820"},
    {"GEMM", "rtx2080ti", kSil, k2Lv, false, kPlain,
     "1a239745d6acbbdeb6a182251ec48820"},
    {"GEMM", "rtx2080ti", kBas, kGto, true, kPlain,
     "c052965271dfdb85eeda776e16635e1d"},
    {"GEMM", "rtx2080ti", kBas, kLrr, true, kPlain,
     "a10c1520f8db34b196ff932da2614c82"},
    {"GEMM", "rtx2080ti", kBas, k2Lv, true, kPlain,
     "a10c1520f8db34b196ff932da2614c82"},
    {"BFS", "rtx3060", kDet, kGto, true, kPlain,
     "ca822647bd8a5aeda9dbb762c045d90a"},
    {"BFS", "rtx3060", kDet, kGto, false, kPlain,
     "8165f46a18bbe719d93116798aade20f"},
    {"BFS", "rtx3060", kDet, kLrr, true, kPlain,
     "630172723018a89829d687e1c148eafe"},
    {"BFS", "rtx3060", kDet, kLrr, false, kPlain,
     "99266e9bc234f7c5060dddc2eb262fc4"},
    {"BFS", "rtx3060", kDet, k2Lv, true, kPlain,
     "f8a9f67cfe4b7d07fe04698ec2fad698"},
    {"BFS", "rtx3060", kDet, k2Lv, false, kPlain,
     "99266e9bc234f7c5060dddc2eb262fc4"},
    {"BFS", "rtx3060", kSil, kGto, true, kPlain,
     "ef1c52a01f572abe3f4ead6e43506f80"},
    {"BFS", "rtx3060", kSil, kGto, false, kPlain,
     "052370b8ac55c6c15f299bd48f2747cd"},
    {"BFS", "rtx3060", kSil, kLrr, true, kPlain,
     "5c1f3eb949ceb7d53f5a9fecef34df00"},
    {"BFS", "rtx3060", kSil, kLrr, false, kPlain,
     "ccd746e67a21c8a04a8cc192c06ba022"},
    {"BFS", "rtx3060", kSil, k2Lv, true, kPlain,
     "b959895653d46ed7baa865f5a08f82f0"},
    {"BFS", "rtx3060", kSil, k2Lv, false, kPlain,
     "e85a85d9410af50516092cda5946a85a"},
    {"BFS", "rtx3060", kBas, kGto, true, kPlain,
     "e7c29bf6c6f7d2a8b2b339abea859feb"},
    {"BFS", "rtx3060", kBas, kLrr, true, kPlain,
     "96485e9870f82da960d33f864a67d0dd"},
    {"BFS", "rtx3060", kBas, k2Lv, true, kPlain,
     "a865669dd2fe130c21181d42550e5a1d"},
    {"GEMM", "rtx3060", kDet, kGto, true, kPlain,
     "91389481d615275cba62a899e18f0caf"},
    {"GEMM", "rtx3060", kDet, kGto, false, kPlain,
     "f68dc798cffa82a6467b2d5a42d4d03f"},
    {"GEMM", "rtx3060", kDet, kLrr, true, kPlain,
     "775e534a935791fdbfc83d5017c67e89"},
    {"GEMM", "rtx3060", kDet, kLrr, false, kPlain,
     "85ddef54bf48d0d19476c2b78acc68eb"},
    {"GEMM", "rtx3060", kDet, k2Lv, true, kPlain,
     "18a2208626de8bdcefb491c51ec3b461"},
    {"GEMM", "rtx3060", kDet, k2Lv, false, kPlain,
     "85ddef54bf48d0d19476c2b78acc68eb"},
    {"GEMM", "rtx3060", kSil, kGto, true, kPlain,
     "d8b00a8e3b5315fe78824d6618dcc8eb"},
    {"GEMM", "rtx3060", kSil, kGto, false, kPlain,
     "8255f68529c9782368fbd5588c327e64"},
    {"GEMM", "rtx3060", kSil, kLrr, true, kPlain,
     "e0fab1c60ac9dce13604763f636934ba"},
    {"GEMM", "rtx3060", kSil, kLrr, false, kPlain,
     "03b096bd96c0323d8b8679d65f54ad56"},
    {"GEMM", "rtx3060", kSil, k2Lv, true, kPlain,
     "c8a3ea770b06aaff5cea725d1e91b7d3"},
    {"GEMM", "rtx3060", kSil, k2Lv, false, kPlain,
     "c256726824aff5ed0bf392117f57d227"},
    {"GEMM", "rtx3060", kBas, kGto, true, kPlain,
     "b7ddf837630d7d035131b034bd558b1f"},
    {"GEMM", "rtx3060", kBas, kLrr, true, kPlain,
     "45d7884901e1c2389c366d07dd5c04b5"},
    {"GEMM", "rtx3060", kBas, k2Lv, true, kPlain,
     "45d7884901e1c2389c366d07dd5c04b5"},
    {"BFS", "rtx2080ti", kDet, kGto, true, GoldenVariant::kFaults,
     "6a8d63375155b125a35962992160d7fc"},
    {"GEMM", "rtx2080ti", kDet, kGto, true, GoldenVariant::kWideSubCore,
     "9e788c625a387e13a26334297fc10dff"},
    {"GEMM", "rtx2080ti", kDet, kLrr, true, GoldenVariant::kWideSubCore,
     "6280aaf220424b78c71e5d14191a173d"},
    {"GEMM", "rtx2080ti", kDet, k2Lv, true, GoldenVariant::kWideSubCore,
     "c93ab839210465c4ced1ca08cfde8003"},
    {"BFS", "rtx2080ti", kMem, kGto, true, GoldenVariant::kMemoCold,
     "d2ca7fba7ae406a1ad3dbf9c706592a8"},
    {"BFS", "rtx2080ti", kMem, kGto, true, GoldenVariant::kMemoWarm,
     "7ba7a19d27af4482775fe2da95a8e863"},
    {"GEMM", "rtx2080ti", kDet, kGto, true, GoldenVariant::kWallDegrade,
     "ce6ba56dd1566adf1f23622265e3787e"},
    {"BFS", "rtx2080ti", kDet, kGto, true, GoldenVariant::kFaultRetry,
     "6a8d63375155b125a35962992160d7fc"},
    {"BFS", "rtx2080ti", kDet, kGto, true, GoldenVariant::kTraceFaults,
     "d01081c95d38fb0b411beb031231043c"},
    {"BFS", "rtx2080ti", kDet, kGto, true, GoldenVariant::kBatch,
     "2a9694fe8a3563726bff92b021be68cc"},
};
// clang-format on

TEST(CycleSkip, GoldenStatisticDigests) {
  std::map<std::string, Application> apps;
  for (const char* name : {"BFS", "GEMM"}) {
    WorkloadScale s;
    s.scale = 0.05;
    apps.emplace(name, BuildWorkload(name, s));
  }
  std::string actual;
  bool all_match = true;
  for (const GoldenRow& row : kGoldenRows) {
    const std::string digest = GoldenRowDigest(row, apps.at(row.app));
    EXPECT_EQ(digest, row.digest) << RowLabel(row);
    all_match &= digest == row.digest;
    actual += RowLabel(row) + " " + digest + "\n";
  }
  if (!all_match) std::printf("actual digests:\n%s", actual.c_str());
}

}  // namespace
}  // namespace swiftsim
