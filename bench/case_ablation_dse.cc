// Ablation: design-space-exploration flexibility (paper §II-B's argument
// for keeping modules of interest cycle-accurate).
//
//  (a) Warp-scheduler sweep — the paper's motivating example: evaluating a
//      new scheduling algorithm requires the Warp Scheduler & Dispatch
//      module to stay cycle-accurate; everything else can stay simplified
//      (Swift-Sim-Basic is used for the sweep).
//  (b) L1 replacement-policy sweep — reuse-distance analytical cache
//      models assume LRU; the cycle-accurate cache module can model FIFO
//      and Random too. Swift-Sim-Basic keeps the cycle-accurate memory
//      path, so the sweep is possible at hybrid speed.
//  (c) Memory-timing sweep — DRAM x NoC latency at Swift-Sim-Memory. The
//      timing knobs do not change cache geometry, so every point shares
//      one pre-pass profile through the global ProfileCache: the sweep
//      pays the reuse-distance analysis once, not per point.
//
// All three sweeps share the process-global MemoCache; with --memo-file
// the driver loads it before the first sweep and saves it after the last,
// so a re-run (or a later dse case over overlapping configs) starts warm.
#include <cstdio>

#include "config/presets.h"
#include "swiftsim/memo_cache.h"
#include "swiftsim_bench.h"

namespace swiftsim::bench {

int RunAblationDse(Bench& b) {
  const BenchOptions& opt = b.opt();
  const auto& apps = b.Apps();
  const GpuConfig base = Rtx2080TiConfig();
  std::uint64_t memo_hits = 0;
  std::uint64_t memo_misses = 0;
  // Runs one sweep point, prints its cycles and records it as `arm`.
  const auto run = [&](const Application& app, const GpuConfig& gpu,
                       SimLevel level, const std::string& arm) {
    const RunOutcome out = Run({app, gpu, level, opt.run});
    memo_hits += out.result.Metric("memo.hits");
    memo_misses += out.result.Metric("memo.misses");
    Record r = RecordOf(out);
    r.level = arm;
    b.Append(r);
    std::printf(" %12llu", static_cast<unsigned long long>(r.cycles));
  };

  std::printf("-- (a) warp-scheduler policy sweep (Swift-Sim-Basic) --\n");
  std::printf("%-10s %12s %12s %12s\n", "app", "gto", "lrr", "two_level");
  for (const Application& app : apps) {
    std::printf("%-10s", app.name.c_str());
    for (SchedPolicy pol :
         {SchedPolicy::kGto, SchedPolicy::kLrr, SchedPolicy::kTwoLevel}) {
      GpuConfig gpu = base;
      gpu.sched_policy = pol;
      run(app, gpu, SimLevel::kSwiftSimBasic, "sched=" + ToString(pol));
    }
    std::printf("\n");
  }

  std::printf("-- (b) L1 replacement-policy sweep (Swift-Sim-Basic) --\n");
  std::printf("%-10s %12s %12s %12s\n", "app", "lru", "fifo", "random");
  for (const Application& app : apps) {
    std::printf("%-10s", app.name.c_str());
    for (ReplacementPolicy pol :
         {ReplacementPolicy::kLru, ReplacementPolicy::kFifo,
          ReplacementPolicy::kRandom}) {
      GpuConfig gpu = base;
      gpu.l1.replacement = pol;
      gpu.l2.replacement = pol;
      run(app, gpu, SimLevel::kSwiftSimBasic, "replace=" + ToString(pol));
    }
    std::printf("\n");
  }
  std::printf("(cycle counts shift with policy; an analytical-only cache "
              "model could not run sweep (b) at all)\n");

  std::printf("-- (c) memory-timing sweep (Swift-Sim-Memory, shared "
              "pre-pass) --\n");
  const std::uint64_t pc_hits0 = ProfileCache::Global().hits();
  const std::uint64_t pc_miss0 = ProfileCache::Global().misses();
  std::printf("%-10s %12s %12s %12s %12s\n", "app", "d160/n4", "d160/n16",
              "d227/n4", "d227/n16");
  for (const Application& app : apps) {
    std::printf("%-10s", app.name.c_str());
    for (const unsigned dram_lat : {160u, 227u}) {
      for (const unsigned noc_lat : {4u, 16u}) {
        GpuConfig gpu = base;
        gpu.dram.latency = dram_lat;
        gpu.noc.latency = noc_lat;
        run(app, gpu, SimLevel::kSwiftSimMemory,
            "dram=" + std::to_string(dram_lat) +
                ",noc=" + std::to_string(noc_lat));
      }
    }
    std::printf("\n");
  }
  const std::uint64_t built = ProfileCache::Global().misses() - pc_miss0;
  const std::uint64_t shared = ProfileCache::Global().hits() - pc_hits0;
  std::printf("(timing knobs leave cache geometry unchanged: %llu pre-pass "
              "profiles built, %llu shared across the %zux4 grid)\n",
              static_cast<unsigned long long>(built),
              static_cast<unsigned long long>(shared), apps.size());

  std::printf("memo: %llu launches replayed, %llu simulated across all "
              "sweeps\n",
              static_cast<unsigned long long>(memo_hits),
              static_cast<unsigned long long>(memo_misses));
  return 0;
}

}  // namespace swiftsim::bench
