// SmCore unit tests: run hand-built kernels through a single SM in
// analytical-memory mode (no chip-level plumbing required) and check
// issue/completion/barrier/CTA-lifecycle behavior.
#include "sim/sm.h"

#include <gtest/gtest.h>

#include <deque>
#include <utility>

#include "analytical/cache_prepass.h"
#include "analytical/mem_model.h"
#include "common/rng.h"
#include "config/presets.h"
#include "workloads/patterns.h"

namespace swiftsim {
namespace {

GpuConfig OneSmGpu() {
  GpuConfig cfg = Rtx2080TiConfig();
  cfg.num_sms = 1;
  return cfg;
}

std::shared_ptr<KernelTrace> MakeKernel(
    const std::vector<WarpTrace>& warps, std::uint32_t num_ctas = 1) {
  KernelInfo info;
  info.name = "hand";
  info.id = 0;
  info.num_ctas = num_ctas;
  info.warps_per_cta = static_cast<std::uint32_t>(warps.size());
  info.threads_per_cta = info.warps_per_cta * kWarpSize;
  CtaTrace cta;
  cta.warps = warps;
  return std::make_shared<KernelTrace>(info,
                                       std::vector<CtaTrace>{cta});
}

struct SmHarness {
  GpuConfig cfg = OneSmGpu();
  MemProfile profile;  // empty: all loads modelled as DRAM
  AnalyticalMemModel mem_model{cfg, &profile};
  unsigned completed_ctas = 0;
  SmCore sm{cfg, SelectionFor(SimLevel::kSwiftSimMemory), 0, &mem_model,
            [this](SmId) { ++completed_ctas; }};

  /// Runs the SM until idle; returns the finishing cycle.
  Cycle RunToIdle(Cycle limit = 1'000'000) {
    Cycle now = 0;
    while (!sm.Idle() && now < limit) {
      const bool progressed = sm.Tick(now);
      if (progressed) {
        ++now;
      } else {
        const Cycle wake = sm.NextWake();
        if (wake == kNever) break;
        now = std::max(now + 1, wake);
      }
    }
    return now;
  }
};

WarpTrace AluWarp(unsigned n) {
  WarpTrace w;
  WarpEmitter e(&w);
  e.IntBlock(0x100, n, {10, 11, 12, 13});
  e.Exit(0x100 + 8 * n);
  return w;
}

TEST(SmCore, RunsSingleWarpToCompletion) {
  SmHarness h;
  const auto kernel = MakeKernel({AluWarp(20)});
  ASSERT_TRUE(h.sm.CanTakeCta(kernel->info()));
  h.sm.OnKernelStart(1);
  h.sm.LaunchCta(*kernel, 0);
  EXPECT_FALSE(h.sm.Idle());
  h.RunToIdle();
  EXPECT_TRUE(h.sm.Idle());
  EXPECT_EQ(h.completed_ctas, 1u);
  EXPECT_EQ(h.sm.stats().issued_instrs, 21u);
  EXPECT_EQ(h.sm.stats().issued_alu, 20u);
  EXPECT_EQ(h.sm.stats().issued_control, 1u);
}

TEST(SmCore, DependentChainTakesLongerThanIndependent) {
  SmHarness h;
  WarpTrace dep;
  WarpEmitter ed(&dep);
  ed.FmaChain(0x100, 30, 10, 2, 3);  // serial dependency chain
  ed.Exit(0x200);
  const Cycle t_dep = [&] {
    SmHarness hh;
    const auto k = MakeKernel({dep});
    hh.sm.OnKernelStart(1);
    hh.sm.LaunchCta(*k, 0);
    return hh.RunToIdle();
  }();
  const Cycle t_indep = [&] {
    SmHarness hh;
    const auto k = MakeKernel({AluWarp(30)});
    hh.sm.OnKernelStart(1);
    hh.sm.LaunchCta(*k, 0);
    return hh.RunToIdle();
  }();
  EXPECT_GT(t_dep, t_indep + 30);  // chain pays full latency per link
}

TEST(SmCore, BarrierSynchronizesWarps) {
  // Warp 0 computes for a long time before the barrier; warp 1 arrives
  // immediately. Both must leave together.
  WarpTrace slow, fast;
  WarpEmitter es(&slow), ef(&fast);
  es.FmaChain(0x100, 40, 10, 2, 3);
  es.Bar(0x400);
  es.Alu(0x408, Opcode::kIAdd, 11, {11});
  es.Exit(0x410);
  ef.Bar(0x400);
  ef.Alu(0x408, Opcode::kIAdd, 11, {11});
  ef.Exit(0x410);
  SmHarness h;
  const auto k = MakeKernel({slow, fast});
  h.sm.OnKernelStart(1);
  h.sm.LaunchCta(*k, 0);
  h.RunToIdle();
  EXPECT_TRUE(h.sm.Idle());
  EXPECT_EQ(h.completed_ctas, 1u);
  EXPECT_GT(h.sm.stats().barrier_waits, 0u);  // fast warp blocked
}

TEST(SmCore, ExitWaitsForOutstandingLoads) {
  WarpTrace w;
  WarpEmitter e(&w);
  e.Mem(0x100, Opcode::kLdGlobal, 9, {2}, kFullMask,
        CoalescedAddrs(0x10000000, 4));
  e.Exit(0x108);  // EXIT must wait for the DRAM-latency load writeback
  SmHarness h;
  const auto k = MakeKernel({w});
  h.sm.OnKernelStart(1);
  h.sm.LaunchCta(*k, 0);
  const Cycle done = h.RunToIdle();
  // Empty profile -> the load pays the full DRAM path latency.
  EXPECT_GE(done, h.mem_model.dram_latency());
}

TEST(SmCore, MultipleCtasShareTheSm) {
  SmHarness h;
  const auto k = MakeKernel({AluWarp(10), AluWarp(10)}, /*num_ctas=*/3);
  h.sm.OnKernelStart(1);
  unsigned launched = 0;
  for (CtaId c = 0; c < 3 && h.sm.CanTakeCta(k->info()); ++c) {
    h.sm.LaunchCta(*k, c);
    ++launched;
  }
  EXPECT_EQ(launched, 3u);  // 2 warps/CTA x 3 fits in 32 slots
  h.RunToIdle();
  EXPECT_EQ(h.completed_ctas, 3u);
}

TEST(SmCore, CapacityGatesLaunch) {
  SmHarness h;
  // 16-warp CTAs: two fit (32 warp slots), the third does not.
  const auto k = MakeKernel({AluWarp(4), AluWarp(4), AluWarp(4), AluWarp(4),
                             AluWarp(4), AluWarp(4), AluWarp(4), AluWarp(4),
                             AluWarp(4), AluWarp(4), AluWarp(4), AluWarp(4),
                             AluWarp(4), AluWarp(4), AluWarp(4), AluWarp(4)},
                            3);
  h.sm.OnKernelStart(1);
  EXPECT_TRUE(h.sm.CanTakeCta(k->info()));
  h.sm.LaunchCta(*k, 0);
  EXPECT_TRUE(h.sm.CanTakeCta(k->info()));
  h.sm.LaunchCta(*k, 1);
  EXPECT_FALSE(h.sm.CanTakeCta(k->info()));  // warp slots exhausted
}

TEST(SmCore, DeterministicCycleCounts) {
  const auto run = [] {
    SmHarness h;
    WarpTrace w;
    WarpEmitter e(&w);
    for (int i = 0; i < 10; ++i) {
      e.Mem(0x100 + 32 * i, Opcode::kLdGlobal, 9, {2}, kFullMask,
            CoalescedAddrs(0x10000000 + i * 4096, 4));
      e.Alu(0x108 + 32 * i, Opcode::kFFma, 10, {9, 9, 10});
    }
    e.Exit(0x500);
    const auto k = MakeKernel({w, w, w, w});
    h.sm.OnKernelStart(1);
    h.sm.LaunchCta(*k, 0);
    return h.RunToIdle();
  };
  EXPECT_EQ(run(), run());
}

TEST(SmCore, AnalyticalModeRequiresMemModel) {
  GpuConfig cfg = OneSmGpu();
  EXPECT_THROW(SmCore(cfg, SelectionFor(SimLevel::kSwiftSimMemory), 0,
                      nullptr, [](SmId) {}),
               SimError);
}

TEST(SmCore, NextWakeAdvancesPastStalls) {
  SmHarness h;
  WarpTrace w;
  WarpEmitter e(&w);
  e.Mem(0x100, Opcode::kLdGlobal, 9, {2}, kFullMask,
        CoalescedAddrs(0x10000000, 4));
  e.Alu(0x108, Opcode::kFFma, 10, {9, 9, 10});  // blocked on the load
  e.Exit(0x110);
  const auto k = MakeKernel({w});
  h.sm.OnKernelStart(1);
  h.sm.LaunchCta(*k, 0);
  Cycle now = 0;
  h.sm.Tick(now);  // issues the load
  ++now;
  h.sm.Tick(now);  // nothing issuable: FFMA waits on r9
  const Cycle wake = h.sm.NextWake();
  EXPECT_GT(wake, now + 10);  // sleeps toward the load completion event
  EXPECT_NE(wake, kNever);
}

// --- Fill wakes (cycle-accurate memory) ------------------------------------
// A one-SM stand-in for GpuModel::TickSmRange over a cycle-accurate L1:
// misses leave the L1 miss queue each cycle and come back as fills
// `fill_latency` cycles later, delivered before the wake gate like NoC
// responses. `force_wake` replays the rule fills used to follow (every
// fill wakes the SM on its cycle), the reference the sleep rule must match.
struct FillDriver {
  FillDriver(SimLevel level, const GpuConfig& c, bool force = false)
      : cfg(c), force_wake(force),
        account_skips(SelectionFor(level).alu ==
                      AluModelKind::kCycleAccurate),
        sm(cfg, SelectionFor(level), 0, nullptr,
           [this](SmId) { ++completed_ctas; }) {}

  void Deliver(Cycle now) {
    while (!fills.empty() && fills.front().first <= now) {
      sm.DeliverResponse(fills.front().second, now);
      if (force_wake) sm.ForceWake();
      fills.pop_front();
    }
  }

  /// The wake gate and the miss-queue drain of one cycle.
  void Gate(Cycle now) {
    if (sm.NextWake() <= now || (account_skips && sm.CapacityWakeDue())) {
      sm.Tick(now);
      ++ticks;
    } else if (account_skips || sm.SleptThroughFill(now)) {
      sm.AccountSkippedCycles(1);
    }
    auto& mq = sm.l1()->miss_queue();
    for (; !mq.empty(); mq.pop_front()) {
      const MemRequest& r = mq.front();
      if (r.is_store()) continue;
      fills.emplace_back(now + fill_latency,
                         MemResponse{r.id, r.line_addr, r.sector_mask, r.sm});
    }
  }

  void Step(Cycle now) {
    Deliver(now);
    Gate(now);
  }

  /// Steps until the first outstanding fill is due; returns its cycle.
  Cycle RunToFirstFill(Cycle now) {
    for (; fills.empty() || now < fills.front().first; ++now) Step(now);
    return now;
  }

  Cycle RunToIdle(Cycle now, Cycle limit = 100'000) {
    for (; !sm.Idle() && now < limit; ++now) Step(now);
    return now;
  }

  GpuConfig cfg;
  bool force_wake;
  bool account_skips;  // cycle-accurate ALU with cycle skipping on
  unsigned completed_ctas = 0;
  SmCore sm;
  std::deque<std::pair<Cycle, MemResponse>> fills;
  Cycle fill_latency = 60;
  std::uint64_t ticks = 0;
};

/// One warp: a load into r9 from each line of `lines` (one line per load),
/// an FFMA consuming the first, then exit.
WarpTrace LoadWarp(std::initializer_list<Addr> lines) {
  WarpTrace w;
  WarpEmitter e(&w);
  Pc pc = 0x100;
  std::uint8_t dst = 9;
  for (const Addr line : lines) {
    e.Mem(pc, Opcode::kLdGlobal, dst++, {2}, kFullMask,
          CoalescedAddrs(line, 4));
    pc += 8;
  }
  e.Alu(pc, Opcode::kFFma, 30, {9, 9, 30});
  e.Exit(pc + 8);
  return w;
}

TEST(SmCoreFill, SleepingSmIsNotTickedOnTheFillCycle) {
  FillDriver d(SimLevel::kDetailed, OneSmGpu());
  const auto k = MakeKernel({LoadWarp({0x10000000})});
  d.sm.OnKernelStart(1);
  d.sm.LaunchCta(*k, 0);
  const Cycle fill = d.RunToFirstFill(0);
  ASSERT_GT(d.sm.NextWake(), fill + 1);  // asleep on the outstanding load
  const std::uint64_t ticks = d.ticks;
  const std::uint64_t stalls = d.sm.stats().stall_cycles;

  d.Deliver(fill);
  // No LD/ST unit has an injection pending: the SM sleeps on, waking when
  // the fill's waiter response leaves the L1 latency pipe.
  EXPECT_TRUE(d.sm.SleptThroughFill(fill));
  EXPECT_EQ(d.sm.NextWake(), fill + 1);
  d.Gate(fill);
  EXPECT_EQ(d.ticks, ticks);
  EXPECT_EQ(d.sm.stats().stall_cycles, stalls + 1);  // the elided tick's

  d.RunToIdle(fill + 1);
  EXPECT_TRUE(d.sm.Idle());
  EXPECT_EQ(d.completed_ctas, 1u);
}

TEST(SmCoreFill, BlockedInjectionStillForceWakes) {
  // One MSHR entry: the second load's injection is rejected (MSHRs full)
  // until the first load's fill frees the entry.
  GpuConfig cfg = OneSmGpu();
  cfg.l1.mshr_entries = 1;
  for (const SimLevel level : {SimLevel::kDetailed, SimLevel::kSwiftSimBasic}) {
    SCOPED_TRACE(ToString(level));
    FillDriver d(level, cfg);
    const auto k = MakeKernel({LoadWarp({0x10000000, 0x20000000})});
    d.sm.OnKernelStart(1);
    d.sm.LaunchCta(*k, 0);
    const Cycle fill = d.RunToFirstFill(0);
    ASSERT_GT(d.sm.l1_stats()->mshr_stalls, 0u);
    if (level == SimLevel::kDetailed) {
      // Capacity sleep: the blocked unit needs no retry until the fill.
      EXPECT_GT(d.sm.NextWake(), fill);
    } else {
      // Hybrid ALU keeps the per-cycle retry pin: the SM is already due.
      EXPECT_LE(d.sm.NextWake(), fill);
    }
    d.Deliver(fill);
    EXPECT_FALSE(d.sm.SleptThroughFill(fill));
    EXPECT_LE(d.sm.NextWake(), fill);
    const std::uint64_t ticks = d.ticks;
    d.Gate(fill);
    EXPECT_EQ(d.ticks, ticks + 1);  // retries on the fill's cycle
    d.RunToIdle(fill + 1);
    EXPECT_EQ(d.completed_ctas, 1u);
  }
}

/// Runs `k` under the sleep rule and under forced fill wakes; both must
/// finish on the same cycle with the same issue, stall and L1 statistics.
/// Returns {ticks with the sleep rule, ticks with forced wakes}.
std::pair<std::uint64_t, std::uint64_t> CompareFillRules(
    const KernelTrace& k, SimLevel level, const GpuConfig& cfg) {
  FillDriver sleep(level, cfg);
  FillDriver forced(level, cfg, /*force=*/true);
  for (FillDriver* d : {&sleep, &forced}) {
    d->sm.OnKernelStart(1);
    d->sm.LaunchCta(k, 0);
  }
  EXPECT_EQ(sleep.RunToIdle(0), forced.RunToIdle(0));
  EXPECT_EQ(sleep.completed_ctas, 1u);
  const SmStats& a = sleep.sm.stats();
  const SmStats& b = forced.sm.stats();
  EXPECT_EQ(a.issued_instrs, b.issued_instrs);
  EXPECT_EQ(a.active_cycles, b.active_cycles);
  EXPECT_EQ(a.stall_cycles, b.stall_cycles);
  const CacheStats& la = *sleep.sm.l1_stats();
  const CacheStats& lb = *forced.sm.l1_stats();
  EXPECT_EQ(la.hits, lb.hits);
  EXPECT_EQ(la.misses, lb.misses);
  EXPECT_EQ(la.mshr_merges, lb.mshr_merges);
  EXPECT_EQ(la.mshr_stalls, lb.mshr_stalls);
  EXPECT_EQ(la.bank_conflicts, lb.bank_conflicts);
  return {sleep.ticks, forced.ticks};
}

TEST(SmCoreFill, SleepRuleMatchesForcedWakeStatistics) {
  // Eight warps over the four sub-cores, each streaming loads from its own
  // lines, with and without MSHR pressure. The sleep rule must tick less
  // and count the same; a two-level scheduler's probe mutates its state,
  // so its fills keep forcing the tick.
  std::vector<WarpTrace> warps;
  for (Addr w = 0; w < 8; ++w) {
    const Addr base = 0x10000000 + w * 0x100000;
    warps.push_back(LoadWarp({base, base + 0x1000, base + 0x2000,
                              base + 0x3000, base + 0x4000}));
  }
  const auto k = MakeKernel(warps);
  for (const SimLevel level : {SimLevel::kDetailed, SimLevel::kSwiftSimBasic}) {
    for (const unsigned mshrs : {256u, 3u}) {
      for (const SchedPolicy policy :
           {SchedPolicy::kGto, SchedPolicy::kTwoLevel}) {
        SCOPED_TRACE(ToString(level) + " mshr " + std::to_string(mshrs) +
                     " policy " + ToString(policy));
        GpuConfig cfg = OneSmGpu();
        cfg.l1.mshr_entries = mshrs;
        cfg.sched_policy = policy;
        const auto [sleep_ticks, forced_ticks] =
            CompareFillRules(*k, level, cfg);
        if (policy == SchedPolicy::kTwoLevel) {
          EXPECT_EQ(sleep_ticks, forced_ticks);
        } else {
          EXPECT_LT(sleep_ticks, forced_ticks);
        }
      }
    }
  }
}

// --- Candidate sets ---------------------------------------------------------
// Each sub-core's candidate set holds exactly the warps that could pass
// WarpReady; GTO and LRR probe only its members. The predicate below is
// the contract, recomputed from warp state.

bool CandidateFromState(const SmCore& sm, SimLevel level, unsigned slot) {
  const ModelSelection sel = SelectionFor(level);
  const WarpContext& w = sm.warp(slot);
  return w.valid && !w.done && !w.at_barrier && !w.exhausted() &&
         (sel.frontend != FrontendKind::kDetailed || w.ibuffer > 0) &&
         (sel.silicon_effects || !sm.scoreboard_blocked(slot));
}

void ExpectCandidatesExact(const SmCore& sm, const GpuConfig& cfg,
                           SimLevel level, Cycle now) {
  const unsigned n_sc = cfg.sub_cores_per_sm;
  for (unsigned slot = 0; slot < cfg.max_warps_per_sm; ++slot) {
    ASSERT_EQ(sm.candidates(slot % n_sc).Contains(slot / n_sc),
              CandidateFromState(sm, level, slot))
        << "slot " << slot << " after cycle " << now;
  }
}

/// A random kernel: every CTA has `warps` warps of dependent and
/// independent ALU ops over a small register window, global loads and
/// stores (coalesced and scattered), shared loads, and `bars` barriers at
/// the same points in every warp of the CTA, then exit.
std::shared_ptr<KernelTrace> RandomKernel(Rng& rng, unsigned ctas,
                                          unsigned warps, unsigned len,
                                          unsigned bars) {
  std::vector<CtaTrace> variants(ctas);
  for (CtaTrace& cta : variants) {
    for (unsigned wi = 0; wi < warps; ++wi) {
      WarpTrace w;
      WarpEmitter e(&w);
      Pc pc = 0x100;
      unsigned next_bar = 1;
      for (unsigned i = 0; i < len; ++i, pc += 8) {
        if (next_bar <= bars && i == len * next_bar / (bars + 1)) {
          e.Bar(pc);
          pc += 8;
          ++next_bar;
        }
        const auto reg = [&] {
          return static_cast<std::uint8_t>(8 + rng.Below(6));
        };
        const std::uint8_t dst = reg();
        const std::uint8_t a = reg();
        const Addr region = 0x10000000 + rng.Below(4) * 0x100000;
        switch (rng.Below(7)) {
          case 0:
            e.Alu(pc, Opcode::kIAdd, dst, {a});
            break;
          case 1:
            e.Alu(pc, Opcode::kFFma, dst, {a, reg(), dst});
            break;
          case 2:
            e.Alu(pc, rng.Below(2) ? Opcode::kDFma : Opcode::kRcp, dst, {a});
            break;
          case 3:
            e.Mem(pc, Opcode::kLdGlobal, dst, {a}, kFullMask,
                  CoalescedAddrs(region + rng.Below(64) * 128, 4));
            break;
          case 4:
            e.Mem(pc, Opcode::kLdGlobal, dst, {a}, kFullMask,
                  RandomAddrs(rng, region, 1 << 16, 4));
            break;
          case 5:
            e.Mem(pc, Opcode::kStGlobal, kNoReg, {a}, kFullMask,
                  CoalescedAddrs(region + rng.Below(64) * 128, 4));
            break;
          default:
            e.Mem(pc, Opcode::kLdShared, dst, {a}, kFullMask,
                  StridedAddrs(rng.Below(256) * 4, 4 << rng.Below(3)));
            break;
        }
      }
      e.Exit(pc);
      cta.warps.push_back(std::move(w));
    }
  }
  KernelInfo info;
  info.name = "random";
  info.num_ctas = ctas;
  info.warps_per_cta = warps;
  info.threads_per_cta = warps * kWarpSize;
  return std::make_shared<KernelTrace>(info, std::move(variants));
}

TEST(SmCandidates, SetsMatchWarpStateAfterEveryTick) {
  for (const SimLevel level :
       {SimLevel::kDetailed, SimLevel::kSwiftSimBasic,
        SimLevel::kSwiftSimMemory, SimLevel::kSilicon}) {
    for (const SchedPolicy policy : {SchedPolicy::kGto, SchedPolicy::kLrr}) {
      for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        SCOPED_TRACE(ToString(level) + " " + ToString(policy) + " seed " +
                     std::to_string(seed));
        Rng rng(seed);
        GpuConfig cfg = OneSmGpu();
        cfg.sched_policy = policy;
        cfg.l1.mshr_entries = 8;  // capacity blocks as well as latency
        const auto k =
            RandomKernel(rng, 4, 2 + rng.Below(6), 40, rng.Below(3));
        const auto launch = [&](SmCore& sm) {
          sm.OnKernelStart(1);
          for (CtaId id = 0; id < k->info().num_ctas; ++id) {
            ASSERT_TRUE(sm.CanTakeCta(k->info()));
            sm.LaunchCta(*k, id);
          }
          ExpectCandidatesExact(sm, cfg, level, 0);
        };
        Cycle now = 0;
        if (level == SimLevel::kSwiftSimMemory) {
          MemProfile profile;
          AnalyticalMemModel mem_model{cfg, &profile};
          unsigned done = 0;
          SmCore sm(cfg, SelectionFor(level), 0, &mem_model,
                    [&done](SmId) { ++done; });
          launch(sm);
          for (; !sm.Idle() && now < 200'000; ++now) {
            if (sm.NextWake() > now) continue;
            sm.Tick(now);
            ExpectCandidatesExact(sm, cfg, level, now);
            if (HasFatalFailure()) return;
          }
          EXPECT_EQ(done, k->info().num_ctas);
        } else {
          FillDriver d(level, cfg);
          launch(d.sm);
          for (; !d.sm.Idle() && now < 200'000; ++now) {
            d.Step(now);
            ExpectCandidatesExact(d.sm, cfg, level, now);
            if (HasFatalFailure()) return;
          }
          EXPECT_EQ(d.completed_ctas, k->info().num_ctas);
        }
        EXPECT_LT(now, Cycle{200'000});
      }
    }
  }
}

TEST(SmCandidates, BlockedWarpReentersOnItsWriteback) {
  // One warp: a load, an FFMA waiting on it, exit. The FFMA's scoreboard
  // block takes the warp out of the set; the load's writeback puts it
  // back, so it issues on the writeback's own cycle.
  SmHarness h;
  WarpTrace w;
  WarpEmitter e(&w);
  e.Mem(0x100, Opcode::kLdGlobal, 9, {2}, kFullMask,
        CoalescedAddrs(0x10000000, 4));
  e.Alu(0x108, Opcode::kFFma, 10, {9, 9, 10});
  e.Exit(0x110);
  const auto k = MakeKernel({w});
  h.sm.OnKernelStart(1);
  h.sm.LaunchCta(*k, 0);
  EXPECT_TRUE(h.sm.candidates(0).Contains(0));
  h.sm.Tick(0);  // issues the load
  h.sm.Tick(1);  // the FFMA blocks on r9
  EXPECT_TRUE(h.sm.scoreboard_blocked(0));
  EXPECT_FALSE(h.sm.candidates(0).Contains(0));
  const Cycle writeback = h.sm.NextWake();  // the load's completion event
  ASSERT_GT(writeback, Cycle{2});
  ASSERT_NE(writeback, kNever);
  h.sm.Tick(writeback);
  EXPECT_EQ(h.sm.stats().issued_instrs, 2u);  // the FFMA issued
  EXPECT_FALSE(h.sm.scoreboard_blocked(0));
  EXPECT_TRUE(h.sm.candidates(0).Contains(0));  // EXIT is next
}

TEST(SmCandidates, SiliconBlockedWarpStillRecordsItsFetchWake) {
  // At silicon a scoreboard-blocked warp stays in the set: WarpReady
  // records its i-cache fill before the scoreboard test. With a full
  // i-buffer no other hint names that cycle, so an SM that issued nothing
  // must wake no later than the fill. Two warps per sub-core compete for
  // fetch, so a warp can block before its next fetch misses; long fills
  // and no ALU work in flight leave that fill the earliest wake.
  GpuConfig cfg = OneSmGpu();
  cfg.effects.icache_miss_rate = 0.5;
  cfg.effects.icache_miss_penalty = 30;
  std::vector<WarpTrace> warps;
  for (Addr wi = 0; wi < 8; ++wi) {
    WarpTrace w;
    WarpEmitter e(&w);
    Pc pc = 0x100;
    for (Addr i = 0; i < 4; ++i, pc += 16) {
      e.Mem(pc, Opcode::kLdGlobal, 9, {2}, kFullMask,
            CoalescedAddrs(0x10000000 + wi * 0x100000 + i * 0x1000, 4));
      e.Alu(pc + 8, Opcode::kFFma, 10, {9, 9, 10});
    }
    e.Exit(pc);
    warps.push_back(std::move(w));
  }
  const auto k = MakeKernel(warps);
  FillDriver d(SimLevel::kSilicon, cfg);
  d.fill_latency = 200;
  d.sm.OnKernelStart(1);
  d.sm.LaunchCta(*k, 0);
  unsigned binding = 0;  // checks where that fill was the SM's next wake
  for (Cycle now = 0; !d.sm.Idle() && now < 100'000; ++now) {
    const std::uint64_t issued = d.sm.stats().issued_instrs;
    const std::uint64_t ticks = d.ticks;
    d.Step(now);
    if (d.ticks == ticks || d.sm.stats().issued_instrs != issued) continue;
    for (unsigned slot = 0; slot < cfg.max_warps_per_sm; ++slot) {
      const WarpContext& w = d.sm.warp(slot);
      if (!CandidateFromState(d.sm, SimLevel::kSilicon, slot) ||
          !d.sm.scoreboard_blocked(slot) || w.ibuffer < 2 ||
          w.fetch_ready <= now + 1) {
        continue;
      }
      EXPECT_LE(d.sm.NextWake(), w.fetch_ready) << "slot " << slot;
      if (d.sm.NextWake() == w.fetch_ready) ++binding;
    }
  }
  EXPECT_TRUE(d.sm.Idle());
  EXPECT_EQ(d.completed_ctas, 1u);
  EXPECT_GT(binding, 0u);  // the case was exercised
}

}  // namespace
}  // namespace swiftsim
