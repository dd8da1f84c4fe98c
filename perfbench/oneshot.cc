// `oneshot`: the CLI user's cold process. A fixed application mix (every
// WorkloadKind, BFS and SM included) is simulated serially at the detailed,
// basic and memory levels through Simulator, then BFS and SM each run alone
// through RunAppsParallel on every core in `auto` mode. The process-global
// memo and profile caches are emptied before every application, so each
// call pays what a fresh process pays: the memo cache records and almost
// never replays.
#include <optional>

#include "harness.h"
#include "swiftsim/memo_cache.h"
#include "swiftsim/parallel.h"
#include "swiftsim/simulator.h"
#include "workloads/workload.h"

namespace perfbench {
namespace {

using swiftsim::Application;
using swiftsim::GpuConfig;
using swiftsim::SimLevel;
using swiftsim::SimResult;

// The intra-app parallel path pays only when an SM tick is heavy; BFS
// (irregular) and SM (streaming) bracket that.
const char* const kMtApps[] = {"BFS", "SM"};

struct LevelSlice {
  SimLevel level;
  const char* span;  // Simulator::Run span name
  const char* key;   // metric infix
  unsigned passes_per_cycle;
};
// Each level's slice is sized on its own: the memory level runs about
// three times faster than the cycle-accurate ones, so it makes three
// passes per cycle and gets a slice of the run comparable to theirs.
const LevelSlice kSlices[] = {
    {SimLevel::kDetailed, "sim.detailed", "detailed", 1},
    {SimLevel::kSwiftSimBasic, "sim.basic", "basic", 1},
    {SimLevel::kSwiftSimMemory, "sim.memory", "memory", 3},
};

std::uint64_t MetricOr0(const SimResult& r, const char* name) {
  auto it = r.metrics.find(name);
  return it == r.metrics.end() ? 0 : it->second;
}

/// Counts of one pass; they repeat exactly from pass to pass.
struct PassCounts {
  std::uint64_t memo_hits = 0, memo_misses = 0, memo_avoided = 0;
  std::uint64_t prepass_built = 0, prepass_shared = 0;
};

}  // namespace

RunResult RunOneshot(const Options& opt, Tracer& tracer) {
  RunResult out;
  const GpuConfig cfg;

  // Set-up is trace generation of the mix. It is repeated once per cycle of
  // the timed loop, outside the timed samples, so its median (setup_s)
  // samples the host across the whole run like every other timing.
  std::vector<AppSpec> specs;
  for (std::size_t i = 0; i < AppMix().size(); ++i) {
    specs.push_back({AppMix()[i], {kMixScale, DeriveSeed(opt.seed, i)}});
  }
  std::vector<double> setup;
  tracer.set_enabled(opt.trace);
  const std::vector<Application> apps = BuildApps(specs, tracer, &setup);
  std::uint64_t mix_instrs = 0;
  for (const Application& app : apps) mix_instrs += app.TotalInstrs();

  // Serial references of the run's mix, outside every timed window. The
  // peak resident set restarts after them, so peak_rss_mb covers the timed
  // loop only.
  std::map<SimLevel, std::vector<Reference>> refs;
  for (const LevelSlice& slice : kSlices) {
    refs[slice.level] = RunReferences(apps, cfg, slice.level, opt.threads, tracer);
  }
  tracer.set_enabled(false);
  ResetPeakRss();

  // The timed loop runs in cycles: each cycle makes one pass of the mix at
  // every level (the memory level passes_per_cycle times) and one parallel
  // repeat. Interleaving puts every level's samples across the whole run,
  // so slow and fast spells of the host weigh on all levels alike, and each
  // application's time is the median of its own samples.
  struct Samples {
    std::vector<std::vector<double>> pre, sim;  // [app][sample]
  };
  std::map<SimLevel, Samples> samples;
  for (const LevelSlice& slice : kSlices) {
    samples[slice.level].pre.resize(apps.size());
    samples[slice.level].sim.resize(apps.size());
  }
  std::map<SimLevel, PassCounts> counts;

  const auto run_pass = [&](const LevelSlice& slice, std::uint64_t parent) {
    Span pass(tracer, "oneshot.pass", parent);
    Samples& smp = samples[slice.level];
    PassCounts c;
    for (std::size_t i = 0; i < apps.size(); ++i) {
      ResetGlobalCaches();
      auto& profiles = swiftsim::ProfileCache::Global();
      const std::uint64_t misses0 = profiles.misses();
      const std::uint64_t hits0 = profiles.hits();
      std::optional<swiftsim::Simulator> sim;
      {
        // At the memory level the constructor runs the cache pre-pass.
        Span p(tracer,
               slice.level == SimLevel::kSwiftSimMemory ? "analytical.prepass"
                                                        : "sim.setup",
               pass.id());
        sim.emplace(apps[i], cfg, slice.level);
        smp.pre[i].push_back(p.End());
      }
      c.prepass_built += profiles.misses() - misses0;
      c.prepass_shared += profiles.hits() - hits0;
      Span run(tracer, slice.span, pass.id());
      const SimResult res = sim->Run();
      smp.sim[i].push_back(run.End());
      const Reference& ref = refs[slice.level][i];
      out.Check(res.total_cycles == ref.cycles &&
                    res.instructions == ref.instructions,
                std::string("oneshot ") + slice.key + " " + apps[i].name +
                    " differs from the serial reference");
      c.memo_hits += MetricOr0(res, "memo.hits");
      c.memo_misses += MetricOr0(res, "memo.misses");
      c.memo_avoided += MetricOr0(res, "memo.replayed_cycles");
    }
    counts[slice.level] = c;
  };

  // BFS and SM alone on every core, auto mode (the intra-app task-graph path
  // for a single cycle-accurate application).
  std::vector<std::size_t> mt_apps;
  std::uint64_t mt_instrs = 0;
  for (std::size_t i = 0; i < apps.size(); ++i) {
    for (const char* mt : kMtApps) {
      if (apps[i].name != mt) continue;
      mt_apps.push_back(i);
      mt_instrs += apps[i].TotalInstrs();
    }
  }
  std::vector<std::vector<double>> mt_samples(mt_apps.size());
  double lane_busy = 0, batch_wall = 0;
  std::uint64_t tg_rounds = 0, tg_steals = 0;
  const auto run_mt = [&](std::uint64_t parent) {
    Span rep(tracer, "oneshot.mt", parent);
    tg_rounds = tg_steals = 0;
    for (std::size_t b = 0; b < mt_apps.size(); ++b) {
      const std::vector<Application> batch = {apps[mt_apps[b]]};
      ResetGlobalCaches();
      Span s(tracer, "parallel.run_apps", rep.id());
      const swiftsim::ParallelBatchResult res = swiftsim::RunAppsParallel(
          batch, cfg, SimLevel::kDetailed, opt.threads);
      mt_samples[b].push_back(s.End());
      const SimResult& r = res.results.at(0);
      const Reference& ref = refs[SimLevel::kDetailed][mt_apps[b]];
      out.Check(r.total_cycles == ref.cycles && r.instructions == ref.instructions,
                "oneshot detailed_mt " + batch[0].name +
                    " differs from the serial reference");
      lane_busy += r.wall_seconds;
      batch_wall += res.wall_seconds;
      tg_rounds += MetricOr0(r, "driver.tg_rounds");
      tg_steals += MetricOr0(r, "driver.tg_steals");
    }
  };

  Rounds cycles;
  RunRounds(opt, tracer, opt.seconds, [&](bool traced) {
    BuildApps(specs, tracer, &setup);
    Span cycle(tracer, "oneshot.cycle");
    for (const LevelSlice& slice : kSlices) {
      for (unsigned k = 0; k < slice.passes_per_cycle; ++k) {
        run_pass(slice, cycle.id());
      }
    }
    run_mt(cycle.id());
    cycles.Add(cycle.End(), traced);
  });
  out.Set("peak_rss_mb", PeakRssMb(), "MB");

  // The accuracy set runs after the peak is read: it is no part of the
  // simulation the timed loop measures.
  tracer.set_enabled(opt.trace);
  MeasureAccuracy(&out, opt.threads, tracer);
  tracer.set_enabled(false);

  const auto sum_of_medians = [](const std::vector<std::vector<double>>& v) {
    double sum = 0;
    for (const std::vector<double>& s : v) sum += Median(s);
    return sum;
  };
  // One cold pass of everything: the mix at every level plus the parallel
  // runs, each application at its median.
  double wall = 0;
  std::map<SimLevel, double> sim_s;
  for (const LevelSlice& slice : kSlices) {
    const Samples& smp = samples[slice.level];
    const double pre = sum_of_medians(smp.pre);
    const double sim = sum_of_medians(smp.sim);
    sim_s[slice.level] = sim;
    wall += pre + sim;
    out.Set(std::string("sim.") + slice.key + "_s", sim, "s");
    out.Set(std::string("sim.ns_per_instr.") + slice.key,
            1e9 * sim / static_cast<double>(mix_instrs), "ns/instr");
    out.Set(std::string("sim.") + slice.key + "_ips",
            static_cast<double>(mix_instrs) / (pre + sim), "instr/s");
  }
  const double mt_wall = sum_of_medians(mt_samples);
  wall += mt_wall;

  // --- End to end ---------------------------------------------------------
  out.Set("setup_s", Median(setup), "s");
  out.Set("wall_s", wall, "s");
  out.Set("sim_ips",
          static_cast<double>(3 * mix_instrs + mt_instrs) / wall, "instr/s");

  // --- Per layer ----------------------------------------------------------
  SetAppSetLayers(&out, apps, Median(setup));
  const PassCounts& mem = counts[SimLevel::kSwiftSimMemory];
  out.Set("analytical.prepass_s",
          sum_of_medians(samples[SimLevel::kSwiftSimMemory].pre), "s");
  out.Set("analytical.prepass_built", mem.prepass_built, "count");
  out.Set("analytical.prepass_shared", mem.prepass_shared, "count");
  // Fig. 5 split: what the detailed front-end and ALU pipelines cost over
  // the hybrid ALU model, and what cycle-accurate memory costs over the
  // analytical pipe (pre-pass excluded; it is its own metric).
  out.Set("core.alu_frontend_s",
          sim_s[SimLevel::kDetailed] - sim_s[SimLevel::kSwiftSimBasic], "s");
  out.Set("mem.ca_s",
          sim_s[SimLevel::kSwiftSimBasic] - sim_s[SimLevel::kSwiftSimMemory], "s");
  std::uint64_t hits = 0, misses = 0, avoided = 0;
  for (const auto& [level, c] : counts) {
    hits += c.memo_hits;
    misses += c.memo_misses;
    avoided += c.memo_avoided;
  }
  SetMemoLayer(&out, hits, misses, avoided);
  double mt_serial = 0;
  for (std::size_t i : mt_apps) {
    mt_serial += Median(samples[SimLevel::kDetailed].sim[i]);
  }
  out.Set("parallel.mt_speedup", mt_serial / mt_wall, "x");
  out.Set("parallel.detailed_mt_ips", static_cast<double>(mt_instrs) / mt_wall,
          "instr/s");
  out.Set("parallel.tg_rounds", tg_rounds, "count");
  out.Set("parallel.tg_steals", tg_steals, "count");
  out.Set("parallel.lane_util_pct", 100.0 * lane_busy / batch_wall, "%");
  out.Set("trace_overhead_pct", cycles.OverheadPct(), "%");
  BypassLayer(&out, "dse.");
  BypassLayer(&out, "service.");
  return out;
}

}  // namespace perfbench
