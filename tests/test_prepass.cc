#include "analytical/cache_prepass.h"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <utility>

#include "config/presets.h"
#include "workloads/patterns.h"
#include "workloads/workload.h"

namespace swiftsim {
namespace {

/// One-warp kernel whose loads have fully predictable cache behavior.
std::shared_ptr<KernelTrace> TinyKernel(unsigned repeats) {
  WarpTrace w;
  WarpEmitter e(&w);
  PcAlloc pa(0x100);
  const Pc pc_stream = pa.Next();
  const Pc pc_reuse = pa.Next();
  const Pc pc_exit = pa.Next();
  for (unsigned i = 0; i < repeats; ++i) {
    // Streams a fresh line every iteration: never hits.
    e.Mem(pc_stream, Opcode::kLdGlobal, 8, {2}, kFullMask,
          CoalescedAddrs(0x10000000 + static_cast<Addr>(i) * 4096, 4));
    // Re-reads one fixed line: hits after the first touch.
    e.Mem(pc_reuse, Opcode::kLdGlobal, 9, {2}, kFullMask,
          CoalescedAddrs(0x20000000, 4));
  }
  e.Exit(pc_exit);
  KernelInfo info;
  info.name = "tiny";
  info.id = 0;
  info.num_ctas = 1;
  info.warps_per_cta = 1;
  info.threads_per_cta = 32;
  return std::make_shared<KernelTrace>(info,
                                       std::vector<CtaTrace>{CtaTrace{{w}}});
}

TEST(Prepass, DistinguishesStreamingFromReuse) {
  const GpuConfig cfg = Rtx2080TiConfig();
  Application app;
  app.name = "tiny";
  app.kernels.push_back(TinyKernel(64));
  const MemProfile profile = BuildMemProfile(app, cfg);

  const PcHitRates& stream = profile.Lookup(0, 0x100);
  const PcHitRates& reuse = profile.Lookup(0, 0x108);
  EXPECT_EQ(stream.accesses, 64u);
  EXPECT_EQ(reuse.accesses, 64u);
  EXPECT_LT(stream.r_l1(), 0.05);      // pure streaming never hits
  EXPECT_GT(stream.r_dram(), 0.9);     // streaming goes to DRAM
  // The reused line hits once the initial fill leaves the merge window
  // (the first ~half of the accesses count as in-flight merges).
  EXPECT_NEAR(reuse.r_l1(), 0.5, 0.1);
  EXPECT_GT(reuse.r_l1(), stream.r_l1() + 0.3);
}

TEST(Prepass, UnknownPcFallsBackToKernelAverage) {
  const GpuConfig cfg = Rtx2080TiConfig();
  Application app;
  app.name = "tiny";
  app.kernels.push_back(TinyKernel(64));
  const MemProfile profile = BuildMemProfile(app, cfg);
  const PcHitRates& fallback = profile.Lookup(0, 0xdead);
  EXPECT_GT(fallback.accesses, 0u);  // kernel-average entry
  // Average over one streaming PC (r_l1 ~ 0) and one reusing PC
  // (r_l1 ~ 0.5 after merge-window accounting).
  EXPECT_NEAR(fallback.r_l1(), 0.25, 0.15);
}

TEST(Prepass, UnknownKernelFallsBackToAllDram) {
  MemProfile empty;
  const PcHitRates& r = empty.Lookup(7, 0x100);
  EXPECT_EQ(r.accesses, 0u);
  EXPECT_DOUBLE_EQ(r.r_dram(), 1.0);
}

TEST(Prepass, RatesSumToOne) {
  const GpuConfig cfg = Rtx2080TiConfig();
  WorkloadScale s;
  s.scale = 0.05;
  const Application app = BuildWorkload("BFS", s);
  const MemProfile profile = BuildMemProfile(app, cfg);
  for (const auto& kernel : app.kernels) {
    for (const CompactInstr& ins : kernel->cta(0).warps[0]) {
      if (!IsGlobalMem(ins.op) || !IsLoad(ins.op)) continue;
      const PcHitRates& r = profile.Lookup(kernel->info().id, ins.pc);
      EXPECT_NEAR(r.r_l1() + r.r_l2() + r.r_dram(), 1.0, 1e-9);
      EXPECT_GE(r.r_l1(), 0.0);
      EXPECT_GE(r.r_l2(), 0.0);
      EXPECT_GE(r.r_dram(), -1e-9);
    }
  }
}

TEST(Prepass, MergeWindowTreatsBurstReuseAsMerge) {
  // Two warps read the same fresh line back-to-back: the second access is
  // timing-wise an MSHR merge, not an L1 hit, so r_l1 must stay low.
  WarpTrace w;
  WarpEmitter e(&w);
  for (unsigned i = 0; i < 32; ++i) {
    e.Mem(0x100, Opcode::kLdGlobal, 8, {2}, kFullMask,
          CoalescedAddrs(0x10000000 + static_cast<Addr>(i) * 4096, 4));
  }
  e.Exit(0x108);
  KernelInfo info;
  info.name = "burst";
  info.id = 0;
  info.num_ctas = 1;
  info.warps_per_cta = 2;
  info.threads_per_cta = 64;
  CtaTrace cta;
  cta.warps = {w, w};  // identical address streams
  Application app;
  app.name = "burst";
  app.kernels.push_back(std::make_shared<KernelTrace>(
      info, std::vector<CtaTrace>{cta}));
  const GpuConfig cfg = Rtx2080TiConfig();
  const MemProfile profile = BuildMemProfile(app, cfg);
  const PcHitRates& r = profile.Lookup(0, 0x100);
  EXPECT_EQ(r.accesses, 64u);
  EXPECT_LT(r.r_l1(), 0.05);  // merges, not L1 hits
}

TEST(PcHitRates, DramRemainderNeverNegative) {
  // Regression: with l1_hits + l2_hits == accesses, the two divisions can
  // both round up by an ulp, making the naive 1 - r_l1 - r_l2 negative.
  // Sweep awkward split points and check the clamped remainder.
  bool naive_went_negative = false;
  for (std::uint64_t accesses = 1; accesses <= 200; ++accesses) {
    for (std::uint64_t l1 = 0; l1 <= accesses; ++l1) {
      PcHitRates r;
      r.accesses = accesses;
      r.l1_hits = l1;
      r.l2_hits = accesses - l1;
      const double naive = 1.0 - r.r_l1() - r.r_l2();
      if (naive < 0.0) naive_went_negative = true;
      EXPECT_GE(r.r_dram(), 0.0)
          << accesses << " split " << l1 << "/" << accesses - l1;
      EXPECT_LE(r.r_dram(), 1.0);
    }
  }
  // The sweep must actually exercise the rounding hazard, or this test
  // guards nothing.
  EXPECT_TRUE(naive_went_negative);
}

/// Every (kernel id, PC) of every CTA and warp of `app`.
std::set<std::pair<KernelId, Pc>> AllPcs(const Application& app) {
  std::set<std::pair<KernelId, Pc>> pcs;
  std::set<const KernelTrace*> seen;
  for (const auto& kernel : app.kernels) {
    if (!seen.insert(kernel.get()).second) continue;
    for (CtaId c = 0; c < kernel->info().num_ctas; ++c) {
      for (const WarpTrace& w : kernel->cta(c).warps) {
        for (const CompactInstr& ins : w) {
          pcs.emplace(kernel->info().id, ins.pc);
        }
      }
    }
  }
  return pcs;
}

void ExpectSameProfile(const MemProfile& a, const MemProfile& b,
                       const std::set<std::pair<KernelId, Pc>>& pcs,
                       const std::string& what) {
  for (const auto& [id, pc] : pcs) {
    const PcHitRates& x = a.Lookup(id, pc);
    const PcHitRates& y = b.Lookup(id, pc);
    ASSERT_EQ(x.accesses, y.accesses) << what << " kernel " << id << " pc " << pc;
    ASSERT_EQ(x.l1_hits, y.l1_hits) << what << " kernel " << id << " pc " << pc;
    ASSERT_EQ(x.l2_hits, y.l2_hits) << what << " kernel " << id << " pc " << pc;
  }
}

TEST(Prepass, LaunchMemoizationIsBitIdentical) {
  // Iterative launch pattern over every workload, under the default GPU
  // and a 35-SM variant: memoized and plain pre-passes must produce
  // identical counts at every PC, and the memo must replay exactly the
  // launches the full-hierarchy signature and snapshots replayed (the
  // counts below were measured with them, equal on both configs).
  const std::map<std::string, std::uint64_t> kReplayed = {
      {"BFS", 8},  {"NW", 9},        {"HOTSPOT", 4}, {"PATHFINDER", 4},
      {"GAUSSIAN", 6}, {"SRAD", 9},  {"ADI", 7},     {"LU", 4},
      {"2MM", 9},  {"GEMM", 4},      {"ATAX", 8},    {"MVT", 9},
      {"SM", 3},   {"II", 4},        {"GRU", 4},     {"LSTM", 4},
      {"PAGERANK", 8}, {"SSSP", 4}};
  GpuConfig narrow;
  narrow.num_sms = 35;
  WorkloadScale s;
  s.scale = 0.05;
  ASSERT_EQ(AllWorkloads().size(), kReplayed.size());
  for (const GpuConfig& cfg : {GpuConfig{}, narrow}) {
    for (const WorkloadSpec& spec : AllWorkloads()) {
      const Application app = RepeatLaunches(BuildWorkload(spec.name, s), 6);
      MemProfile plain;
      CachePrepass fresh(cfg, /*memoize=*/false);
      for (const auto& kernel : app.kernels) {
        fresh.ProcessKernel(*kernel, &plain);
      }
      MemProfile memoized;
      CachePrepass memo(cfg, /*memoize=*/true);
      for (const auto& kernel : app.kernels) {
        memo.ProcessKernel(*kernel, &memoized);
      }
      const std::string what =
          spec.name + " on " + std::to_string(cfg.num_sms) + " SMs";
      EXPECT_EQ(fresh.replayed_launches(), 0u) << what;
      EXPECT_EQ(memo.replayed_launches(), kReplayed.at(spec.name)) << what;
      ExpectSameProfile(plain, memoized, AllPcs(app), what);
    }
  }
}

TEST(Prepass, DeltaReplayLeavesTheFreshState) {
  // A replayed launch writes back only the sets its recording changed.
  // After every launch, the memoized pre-pass must hold the state the
  // plain one reached by replaying everything, and the same counts.
  WorkloadScale s;
  s.scale = 0.05;
  for (const char* name : {"BFS", "NW", "HOTSPOT", "GEMM"}) {
    const Application app = RepeatLaunches(BuildWorkload(name, s), 4);
    const auto pcs = AllPcs(app);
    MemProfile plain;
    MemProfile memoized;
    CachePrepass fresh(GpuConfig{}, /*memoize=*/false);
    CachePrepass memo(GpuConfig{}, /*memoize=*/true);
    for (std::size_t k = 0; k < app.kernels.size(); ++k) {
      fresh.ProcessKernel(*app.kernels[k], &plain);
      memo.ProcessKernel(*app.kernels[k], &memoized);
      const std::string what =
          std::string(name) + " launch " + std::to_string(k);
      ASSERT_EQ(fresh.StateSignature(), memo.StateSignature()) << what;
      ExpectSameProfile(plain, memoized, pcs, what);
    }
    EXPECT_GT(memo.replayed_launches(), 0u) << name;
  }
}

TEST(Prepass, DeterministicAcrossRuns) {
  const GpuConfig cfg = Rtx2080TiConfig();
  WorkloadScale s;
  s.scale = 0.05;
  const Application app = BuildWorkload("SM", s);
  const MemProfile a = BuildMemProfile(app, cfg);
  const MemProfile b = BuildMemProfile(app, cfg);
  for (const CompactInstr& ins : app.kernels[0]->cta(0).warps[0]) {
    if (!IsGlobalMem(ins.op) || !IsLoad(ins.op)) continue;
    EXPECT_EQ(a.Lookup(0, ins.pc).l1_hits, b.Lookup(0, ins.pc).l1_hits);
    EXPECT_EQ(a.Lookup(0, ins.pc).l2_hits, b.Lookup(0, ins.pc).l2_hits);
  }
}

}  // namespace
}  // namespace swiftsim
