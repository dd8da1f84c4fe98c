// Columnar trace-core gates (DESIGN.md §14).
//
// The compact storage rewrite is a pure representation change: the dense
// 16-byte record + side address pool must hold exactly the information the
// AoS form held, and every consumer — fingerprinting, the SM issue path at
// all SimLevels, cycle skipping, memo replay — must produce bit-identical
// results. The golden fingerprints, instr counts and cycle counts below
// were captured from the pre-columnar AoS seed at scale 0.05 with the
// default config; any drift is a correctness bug in the encoding, not a
// tolerance to widen.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "config/gpu_config.h"
#include "swiftsim/simulator.h"
#include "trace/fingerprint.h"
#include "trace/trace_io.h"
#include "workloads/gen_util.h"
#include "workloads/workload.h"

namespace swiftsim {
namespace {

WorkloadScale TestScale() {
  WorkloadScale s;
  s.scale = 0.05;
  return s;  // default seed 0x5eed5eed
}

GpuConfig TestConfig() { return GpuConfig(); }

RunOptions NoMemo() {
  RunOptions options;
  options.memo = false;
  return options;
}

/// Golden values captured from the AoS seed build (scale 0.05, default
/// seed and config, memo off): application fingerprint, dynamic instrs,
/// and cycles at the three SimLevels.
struct Golden {
  const char* app;
  const char* fingerprint;
  std::uint64_t instrs;
  Cycle detailed;
  Cycle basic;
  Cycle memory;
};

const std::vector<Golden>& Goldens() {
  static const std::vector<Golden> kGoldens = {
      {"BFS", "068d560b5562a0a768aca37248101a4a", 16416, 36570, 36376,
       48214},
      {"GEMM", "2d46bef1516b3ba77ce854ff374eee75", 17376, 6859, 6901, 8810},
      {"SSSP", "0e77ce494a9cb6fe4aaf67997d17f26c", 8784, 41820, 41819,
       35430},
      {"NW", "a9bd1471f2cbedd79f3cb4699003c1a2", 15552, 11664, 11649,
       14728},
  };
  return kGoldens;
}

TEST(TraceCompact, RecordStaysDense16Bytes) {
  static_assert(sizeof(CompactInstr) == 16);
  EXPECT_EQ(sizeof(CompactInstr), 16u);
  // The AoS interchange form carries the inline lane-address vector; the
  // compact record must undercut it by at least 3x on its own.
  EXPECT_GE(sizeof(TraceInstr), 3 * sizeof(CompactInstr));
}

TEST(TraceCompact, RoundTripEveryWorkload) {
  // AoS -> columnar -> AoS through every registered generator: Decode must
  // reconstruct each instruction exactly, and re-encoding the decoded
  // stream must reproduce the columns byte for byte.
  for (const WorkloadSpec& spec : AllWorkloads()) {
    const Application app = BuildWorkload(spec.name, TestScale());
    for (const auto& kernel : app.kernels) {
      for (std::size_t v = 0; v < kernel->num_variants(); ++v) {
        for (const WarpTrace& warp : kernel->variant(v).warps) {
          WarpTrace reencoded;
          for (std::size_t i = 0; i < warp.size(); ++i) {
            reencoded.push_back(warp.Decode(i));
          }
          ASSERT_EQ(warp, reencoded)
              << spec.name << " kernel " << kernel->info().name
              << " variant " << v;
        }
      }
    }
  }
}

TEST(TraceCompact, GoldenFingerprintsAndInstrCounts) {
  for (const Golden& g : Goldens()) {
    const Application app = BuildWorkload(g.app, TestScale());
    EXPECT_EQ(FingerprintApplication(app).ToHex(), g.fingerprint) << g.app;
    EXPECT_EQ(app.TotalInstrs(), g.instrs) << g.app;
  }
}

TEST(TraceCompact, GoldenCyclesAtEveryLevelSerial) {
  const GpuConfig cfg = TestConfig();
  const RunOptions run = NoMemo();
  for (const Golden& g : Goldens()) {
    const Application app = BuildWorkload(g.app, TestScale());
    EXPECT_EQ(RunSimulation(app, cfg, SimLevel::kDetailed, run).total_cycles,
              g.detailed)
        << g.app;
    EXPECT_EQ(
        RunSimulation(app, cfg, SimLevel::kSwiftSimBasic, run).total_cycles,
        g.basic)
        << g.app;
    EXPECT_EQ(
        RunSimulation(app, cfg, SimLevel::kSwiftSimMemory, run).total_cycles,
        g.memory)
        << g.app;
  }
}

TEST(TraceCompact, CycleSkipOnOffIdentical) {
  const GpuConfig cfg = TestConfig();
  RunOptions on = NoMemo();
  on.model.cycle_skip = true;
  RunOptions off = NoMemo();
  off.model.cycle_skip = false;
  for (const Golden& g : Goldens()) {
    const Application app = BuildWorkload(g.app, TestScale());
    EXPECT_EQ(RunSimulation(app, cfg, SimLevel::kDetailed, on).total_cycles,
              RunSimulation(app, cfg, SimLevel::kDetailed, off).total_cycles)
        << g.app;
  }
}

TEST(TraceCompact, MemoReplayIdentical) {
  // Memoized replay fingerprints the columnar trace; a second run of the
  // same application must replay to exactly the fresh run's cycles.
  const GpuConfig cfg = TestConfig();
  const Application app = BuildWorkload("SSSP", TestScale());
  const Cycle fresh =
      RunSimulation(app, cfg, SimLevel::kSwiftSimMemory).total_cycles;
  const SimResult replayed =
      RunSimulation(app, cfg, SimLevel::kSwiftSimMemory);
  EXPECT_EQ(replayed.total_cycles, fresh);
  const auto hits = replayed.metrics.find("memo.hits");
  ASSERT_NE(hits, replayed.metrics.end());
  EXPECT_GT(hits->second, 0u);
}

TEST(TraceCompact, ShrinkToFitTrimsColumnsAndKeepsResults) {
  const Application plain = BuildWorkload("BFS", TestScale());
  const Application trimmed = BuildWorkload("BFS", TestScale());
  for (const auto& kernel : trimmed.kernels) kernel->ShrinkToFit();
  const GpuConfig cfg = TestConfig();
  ASSERT_EQ(plain.kernels.size(), trimmed.kernels.size());
  for (std::size_t k = 0; k < trimmed.kernels.size(); ++k) {
    const KernelTrace& t = *trimmed.kernels[k];
    const KernelTrace& p = *plain.kernels[k];
    for (std::size_t v = 0; v < t.num_variants(); ++v) {
      for (const WarpTrace& w : t.variant(v).warps) {
        EXPECT_EQ(w.records().capacity(), w.records().size());
        EXPECT_EQ(w.addr_offsets().capacity(), w.addr_offsets().size());
        EXPECT_EQ(w.addr_pool().capacity(), w.addr_pool().size());
      }
    }
    EXPECT_EQ(FingerprintKernel(t), FingerprintKernel(p)) << k;
    EXPECT_EQ(t.TotalInstrs(), p.TotalInstrs()) << k;
    EXPECT_EQ(t.TraceBytes(), p.TraceBytes()) << k;
  }
  const SimResult want =
      RunSimulation(plain, cfg, SimLevel::kSwiftSimMemory, NoMemo());
  const SimResult got =
      RunSimulation(trimmed, cfg, SimLevel::kSwiftSimMemory, NoMemo());
  EXPECT_EQ(got.total_cycles, want.total_cycles);
  EXPECT_EQ(got.instructions, want.instructions);
  EXPECT_EQ(got.metrics, want.metrics);
}

TEST(TraceCompact, MakeKernelFillsVariantsConcurrently) {
  // Each of two variant fills waits for the other to start; filled one
  // after the other, the first would wait out its deadline alone.
  // (GoldenFingerprintsAndInstrCounts pins the pool-built traces to the
  // serially built seed.)
  ThreadPool::Shared().EnsureWorkers(2);
  workloads::KernelShape shape;
  shape.name = "rendezvous";
  shape.ctas = 2;
  shape.warps_per_cta = 1;
  shape.variants = 2;
  std::atomic<int> started{0};
  std::atomic<int> met{0};
  const auto kernel = workloads::MakeKernel(
      shape, /*seed=*/1, [&](CtaTrace* cta, std::size_t, Rng&) {
        started.fetch_add(1);
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(10);
        while (started.load() < 2 &&
               std::chrono::steady_clock::now() < deadline) {
          std::this_thread::yield();
        }
        if (started.load() == 2) met.fetch_add(1);
        WarpEmitter(&cta->warps[0]).Exit(0x1000);
      });
  EXPECT_EQ(met.load(), 2) << "variant fills did not overlap";
  EXPECT_EQ(kernel->num_variants(), 2u);
}

TEST(TraceCompact, DiskCacheRoundTripBitIdentical) {
  const std::string dir = testing::TempDir() + "trace_compact_cache";
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  TraceBuildOptions opts;
  opts.cache_dir = dir;
  for (const Golden& g : Goldens()) {
    bool hit = true;
    const Application cold = BuildWorkloadCached(g.app, TestScale(), opts,
                                                 &hit);
    EXPECT_FALSE(hit) << g.app;
    const Application warm = BuildWorkloadCached(g.app, TestScale(), opts,
                                                 &hit);
    EXPECT_TRUE(hit) << g.app;
    EXPECT_EQ(FingerprintApplication(cold).ToHex(), g.fingerprint) << g.app;
    EXPECT_EQ(FingerprintApplication(warm).ToHex(), g.fingerprint) << g.app;
    ASSERT_EQ(warm.kernels.size(), cold.kernels.size());
    for (std::size_t k = 0; k < warm.kernels.size(); ++k) {
      ASSERT_EQ(warm.kernels[k]->num_variants(),
                cold.kernels[k]->num_variants());
      for (std::size_t v = 0; v < warm.kernels[k]->num_variants(); ++v) {
        ASSERT_EQ(warm.kernels[k]->variant(v).warps,
                  cold.kernels[k]->variant(v).warps)
            << g.app;
      }
    }
  }
  std::filesystem::remove_all(dir, ec);
}

TEST(TraceCompact, CompressionBeatsAoSBy3x) {
  for (const Golden& g : Goldens()) {
    const Application app = BuildWorkload(g.app, TestScale());
    std::uint64_t bytes = 0;
    for (const auto& kernel : app.kernels) bytes += kernel->TraceBytes();
    const double bpi =
        static_cast<double>(bytes) / static_cast<double>(app.TotalInstrs());
    EXPECT_LE(bpi * 3.0, static_cast<double>(sizeof(TraceInstr)))
        << g.app << " bytes/instr " << bpi;
  }
}

}  // namespace
}  // namespace swiftsim
