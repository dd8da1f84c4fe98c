#include "analytical/cache_prepass.h"

#include <gtest/gtest.h>

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

TEST(Prepass, LaunchMemoizationIsBitIdentical) {
  // Iterative launch pattern: memoized and plain prepasses must produce
  // identical per-PC counts, and the memo must actually replay launches.
  const GpuConfig cfg = Rtx2080TiConfig();
  WorkloadScale s;
  s.scale = 0.05;
  const Application app = RepeatLaunches(BuildWorkload("BFS", s), 6);
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
  EXPECT_EQ(fresh.replayed_launches(), 0u);
  EXPECT_GT(memo.replayed_launches(), 0u);
  for (const auto& kernel : app.kernels) {
    const KernelId id = kernel->info().id;
    for (const CompactInstr& ins : kernel->cta(0).warps[0]) {
      if (!IsGlobalMem(ins.op) || !IsLoad(ins.op)) continue;
      const PcHitRates& a = plain.Lookup(id, ins.pc);
      const PcHitRates& b = memoized.Lookup(id, ins.pc);
      EXPECT_EQ(a.accesses, b.accesses) << ins.pc;
      EXPECT_EQ(a.l1_hits, b.l1_hits) << ins.pc;
      EXPECT_EQ(a.l2_hits, b.l2_hits) << ins.pc;
    }
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
