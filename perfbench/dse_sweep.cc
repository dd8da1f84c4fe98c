// `dse-sweep`: dse::RunSweep with default early stopping over a seeded
// SweepSpec, two applications (one irregular, one regular) on every core
// as point lanes. The spec crosses a cycle-accurate-only knob (scheduler
// policy: screen-rung dedup), timing-only knobs (DRAM and NoC latency:
// geometry-equal points share one pre-pass profile) and an L1 size (a
// second geometry). All three levels run: screen -> refine -> final.
// The process-global caches are emptied before every sweep.
#include <optional>

#include "config/sweep_spec.h"
#include "harness.h"
#include "swiftsim/dse_engine.h"
#include "workloads/workload.h"

namespace perfbench {
namespace {

using swiftsim::Application;
using swiftsim::GpuConfig;
using swiftsim::SimLevel;

const char* const kApps[] = {"BFS", "GEMM"};  // irregular, regular
constexpr double kScale = 0.08;

/// 2 x 3 x 2 x 3 = 36 points: enough survivors after screening
/// (ceil(36 / 4) = 9 > max_promote 8) that the refine rung runs.
swiftsim::SweepSpec MakeSpec(std::uint64_t seed) {
  // Seeded jitter moves the latencies without changing the point count or
  // the spec's shape.
  const auto jitter = [&](std::uint64_t salt, unsigned span) {
    return static_cast<unsigned>(DeriveSeed(seed, salt) % span);
  };
  swiftsim::SweepSpec spec;
  spec.AddAxis("core.sched_policy", {"gto", "lrr"});
  spec.AddAxis("dram.latency", {std::to_string(180 + jitter(101, 16)),
                                std::to_string(227 + jitter(102, 16)),
                                std::to_string(280 + jitter(103, 16))});
  spec.AddAxis("l1.size_bytes", {"32768", "65536"});
  spec.AddAxis("noc.latency", {std::to_string(6 + jitter(104, 3)),
                               std::to_string(12 + jitter(105, 3)),
                               std::to_string(20 + jitter(106, 3))});
  return spec;
}

/// Everything a sweep decides about one point; repeats of a sweep agree.
bool SamePoint(const swiftsim::dse::PointOutcome& p,
               const swiftsim::dse::PointOutcome& q) {
  return p.screen_cycles == q.screen_cycles &&
         p.refine_cycles == q.refine_cycles &&
         p.final_cycles == q.final_cycles && p.promoted == q.promoted &&
         p.frontier == q.frontier;
}

}  // namespace

RunResult RunDseSweep(const Options& opt, Tracer& tracer) {
  RunResult out;
  const GpuConfig base;

  // Set-up is trace generation of both applications, repeated once per
  // sweep outside the timed sweep; its median is setup_s.
  std::vector<AppSpec> specs;
  for (std::size_t i = 0; i < std::size(kApps); ++i) {
    specs.push_back({kApps[i], {kScale, DeriveSeed(opt.seed, i)}});
  }
  std::vector<double> setup;
  tracer.set_enabled(opt.trace);
  const std::vector<Application> apps = BuildApps(specs, tracer, &setup);
  const std::vector<swiftsim::SweepPoint> points =
      MakeSpec(opt.seed).Expand(base, /*skip_invalid=*/false).points;
  std::uint64_t app_instrs = 0;
  for (const Application& app : apps) app_instrs += app.TotalInstrs();

  tracer.set_enabled(false);

  swiftsim::dse::DseOptions dopt;
  dopt.threads = opt.threads;

  Rounds rounds;
  std::vector<double> screen_s, refine_s, final_s, busy_s;
  std::optional<swiftsim::dse::SweepReport> first;
  swiftsim::dse::SweepReport last;
  ResetPeakRss();
  RunRounds(opt, tracer, opt.seconds, [&](bool traced) {
    BuildApps(specs, tracer, &setup);
    ResetGlobalCaches();
    Span s(tracer, "dse.sweep");
    swiftsim::dse::SweepReport rep = swiftsim::dse::RunSweep(apps, points, dopt);
    rounds.Add(s.End(), traced);
    double screen = 0, refine = 0, fin = 0;
    for (const auto& p : rep.points) {
      screen += p.screen_wall;
      refine += p.refine_wall;
      fin += p.final_wall;
    }
    screen_s.push_back(screen);
    refine_s.push_back(refine);
    final_s.push_back(fin);
    busy_s.push_back(screen + refine + fin);
    if (!first) {
      first = rep;
    } else {
      for (std::size_t i = 0; i < rep.points.size(); ++i) {
        out.Check(SamePoint(first->points[i], rep.points[i]),
                  "dse point " + rep.points[i].label +
                      " differs between repeats of the sweep");
      }
    }
    last = std::move(rep);
  });
  out.Set("peak_rss_mb", PeakRssMb(), "MB");

  // Each promoted point against a fresh serial run of that point, and the
  // accuracy set, outside the timed windows and after the peak is read.
  tracer.set_enabled(opt.trace);
  MeasureAccuracy(&out, opt.threads, tracer);
  for (const auto& p : first->points) {
    if (!p.promoted) continue;
    swiftsim::Cycle cycles = 0;
    for (const Reference& r : RunReferences(apps, points[p.index].cfg,
                                            dopt.final_level, opt.threads,
                                            tracer)) {
      cycles += r.cycles;
    }
    out.Check(cycles == p.final_cycles,
              "dse promoted point " + p.label + " differs from a fresh run");
  }
  tracer.set_enabled(false);

  // Simulations each rung ran (screen dedup copies are not simulations)
  // and the instructions the sweep's results cover.
  const double n_screen = static_cast<double>(last.screen_sims);
  const double n_refine = static_cast<double>(last.refined);
  const double n_final = static_cast<double>(last.promoted);
  std::uint64_t delivered = 0;
  std::uint64_t avoided = 0;
  for (const auto& p : last.points) {
    delivered += app_instrs * ((p.screen_cycles != 0) + (p.refine_cycles != 0) +
                               (p.final_cycles != 0));
    avoided += p.memo_cycles_avoided;
  }

  // --- End to end ---------------------------------------------------------
  const double wall = Median(rounds.wall);
  out.Set("setup_s", Median(setup), "s");
  out.Set("wall_s", wall, "s");
  out.Set("sim_ips", static_cast<double>(delivered) / wall, "instr/s");

  // --- Per layer ----------------------------------------------------------
  SetAppSetLayers(&out, apps, Median(setup));
  const double instrs = static_cast<double>(app_instrs);
  const struct {
    const char* key;
    double seconds;
    double sims;
  } rungs[] = {{"memory", Median(screen_s), n_screen},
               {"basic", Median(refine_s), n_refine},
               {"detailed", Median(final_s), n_final}};
  for (const auto& r : rungs) {
    out.Set(std::string("sim.") + r.key + "_s", r.seconds, "s");
    out.Set(std::string("sim.ns_per_instr.") + r.key,
            r.sims == 0 ? 0.0 : 1e9 * r.seconds / (r.sims * instrs), "ns/instr");
    out.Set(std::string("sim.") + r.key + "_ips",
            r.seconds == 0 ? 0.0 : r.sims * instrs / r.seconds, "instr/s");
  }
  // Fig. 5 split per simulation of the application pair.
  const auto per_sim = [](double s, double n) { return n == 0 ? 0.0 : s / n; };
  out.Set("core.alu_frontend_s",
          per_sim(rungs[2].seconds, n_final) - per_sim(rungs[1].seconds, n_refine),
          "s");
  out.Set("mem.ca_s",
          per_sim(rungs[1].seconds, n_refine) -
              per_sim(rungs[0].seconds, n_screen),
          "s");
  // RunSweep charges the pre-pass to the screen rung's point walls and does
  // not report it apart; the counts below are its own.
  out.Set("analytical.prepass_s", 0.0, "s");
  out.Set("analytical.prepass_built", last.prepass_built, "count");
  out.Set("analytical.prepass_shared", last.prepass_shared, "count");
  SetMemoLayer(&out, last.memo_hits, last.memo_misses, avoided);
  out.Set("parallel.mt_speedup", Median(busy_s) / wall, "x");
  out.Set("parallel.lane_util_pct",
          100.0 * Median(busy_s) / (wall * opt.threads), "%");
  // SweepReport carries no task-graph counters or intra-app throughput.
  out.Set("parallel.detailed_mt_ips", 0.0, "instr/s");
  out.Set("parallel.tg_rounds", 0.0, "count");
  out.Set("parallel.tg_steals", 0.0, "count");
  out.Set("dse.points_per_s", static_cast<double>(points.size()) / wall, "1/s");
  out.Set("dse.screen_s", rungs[0].seconds, "s");
  out.Set("dse.refine_s", rungs[1].seconds, "s");
  out.Set("dse.final_s", rungs[2].seconds, "s");
  out.Set("dse.screen_sims", last.screen_sims, "count");
  out.Set("dse.screen_deduped", last.screen_deduped, "count");
  out.Set("dse.promoted", last.promoted, "count");
  out.Set("dse.retired", last.retired, "count");
  out.Set("trace_overhead_pct", rounds.OverheadPct(), "%");
  BypassLayer(&out, "service.");
  return out;
}

}  // namespace perfbench
