// Design-space exploration at scale (DESIGN.md §13): expands a config
// sweep, screens every point with the cheap analytical-memory estimate,
// and promotes only the Pareto frontier (cycles x area-proxy) to the
// cycle-accurate level — with one process-global MemoCache/ProfileCache
// threaded through all points and optionally persisted across sweep
// processes via --memo-file.
//
// The case's own flags: --points=<n> samples the grid (64);
// --sweep-ini=<path> reads the axes from INI ([sweep] axis.<key>);
// --keep-fraction=<f> (0.25) and --max-promote=<n> (8, 0 = uncapped) set
// the rung quotas; --refine adds the Swift-Sim-Basic rung;
// --no-early-stopping runs every point cycle-accurate; --journal=<path>
// and --resume=<path> write and recover the write-ahead journal
// (DESIGN.md §16). Two CI gates: --smoke needs >= 3x over the cold
// per-point baseline (77 under 4 hw threads); --chaos-smoke SIGKILLs a
// forked sweep and requires a bit-identical resume (77 without fork).
#include <cstdio>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>
#include <csignal>
#define SWIFTSIM_HAVE_FORK 1
#endif

#include "common/status.h"
#include "config/presets.h"
#include "config/sweep_spec.h"
#include "swiftsim/dse_engine.h"
#include "swiftsim/memo_cache.h"
#include "swiftsim_bench.h"

namespace swiftsim::bench {

namespace {

/// The default grid: the paper's §II-B DSE axes (scheduler policy, cache
/// geometry + replacement, chip shape, DRAM timing). 216 combinations;
/// --points samples them evenly.
SweepSpec DefaultSpec() {
  SweepSpec spec;
  spec.AddAxis("core.sched_policy", {"gto", "lrr", "two_level"});
  spec.AddAxis("l1.size_bytes", {"32768", "65536", "131072"});
  spec.AddAxis("l1.replacement", {"lru", "fifo", "random"});
  spec.AddAxis("l2.size_bytes", {"131072", "262144"});
  spec.AddAxis("gpu.num_sms", {"34", "68"});
  spec.AddAxis("dram.latency", {"160", "227"});
  return spec;
}

#if defined(SWIFTSIM_HAVE_FORK)
/// Chaos recovery gate (DESIGN.md §16): fork a journaling sweep, SIGKILL
/// it once the journal shows progress, resume from the torn journal in
/// this process, and require bit-identity (per-point cycles, rung
/// decisions, Pareto frontier) with an uninterrupted reference run.
int RunChaosSmoke(const std::vector<Application>& apps,
                  const std::vector<SweepPoint>& points,
                  const dse::DseOptions& dopt) {
  const std::string journal =
      "bench_dse_chaos." + std::to_string(::getpid()) + ".journal";
  std::remove(journal.c_str());

  // The victim forks without exec, so it must stay off the shared
  // ThreadPool (whose worker threads do not survive fork): threads=1
  // makes every ParallelFor fully inline, and the apps were already
  // built by the parent.
  const pid_t child = ::fork();
  SS_CHECK(child >= 0, "fork failed");
  if (child == 0) {
    dse::DseOptions victim = dopt;
    victim.threads = 1;
    victim.journal_path = journal;
    victim.resume = false;
    try {
      dse::RunSweep(apps, points, victim);
    } catch (const SimError&) {
      ::_Exit(1);
    }
    ::_Exit(0);  // no atexit/destructors on inherited state
  }

  // SIGKILL once the journal holds the head plus a few rung records; the
  // poll granularity lands the kill at an arbitrary progress point.
  bool killed = false;
  int status = 0;
  pid_t done = 0;
  for (int spin = 0; spin < 120000 && !killed; ++spin) {
    done = ::waitpid(child, &status, WNOHANG);
    if (done == child) break;
    struct stat st{};
    if (::stat(journal.c_str(), &st) == 0 && st.st_size > 256) {
      ::kill(child, SIGKILL);
      killed = true;
    } else {
      ::usleep(1000);
    }
  }
  if (done != child) {
    if (!killed) ::kill(child, SIGKILL);  // watchdog: never hang the gate
    ::waitpid(child, &status, 0);
  }
  std::printf("chaos: victim %s\n", killed ? "SIGKILLed mid-sweep"
                                           : "finished before the kill");

  dse::DseOptions resume_opt = dopt;
  resume_opt.journal_path = journal;
  resume_opt.resume = true;
  const dse::SweepReport resumed = dse::RunSweep(apps, points, resume_opt);

  const dse::SweepReport fresh = dse::RunSweep(apps, points, dopt);

  std::size_t divergent = 0;
  for (std::size_t i = 0; i < fresh.points.size(); ++i) {
    const dse::PointOutcome& a = resumed.points[i];
    const dse::PointOutcome& b = fresh.points[i];
    if (a.screen_cycles != b.screen_cycles ||
        a.refine_cycles != b.refine_cycles ||
        a.final_cycles != b.final_cycles || a.promoted != b.promoted ||
        a.frontier != b.frontier || a.retired_by != b.retired_by) {
      std::printf("FAIL: point %zu diverges after resume "
                  "(cycles %llu/%llu/%llu vs %llu/%llu/%llu)\n",
                  i, static_cast<unsigned long long>(a.screen_cycles),
                  static_cast<unsigned long long>(a.refine_cycles),
                  static_cast<unsigned long long>(a.final_cycles),
                  static_cast<unsigned long long>(b.screen_cycles),
                  static_cast<unsigned long long>(b.refine_cycles),
                  static_cast<unsigned long long>(b.final_cycles));
      ++divergent;
    }
  }
  std::remove(journal.c_str());
  if (divergent > 0) return 1;
  std::printf("chaos smoke: %zu points bit-identical after SIGKILL+resume "
              "(%llu rung results replayed from the journal)\n",
              fresh.points.size(),
              static_cast<unsigned long long>(resumed.points_resumed));
  return 0;
}
#endif  // SWIFTSIM_HAVE_FORK

// The per-point record: the point's config label as its level, the
// final-rung cycles (0 for a retired point) and every rung's figures.
Record PointRecord(const dse::PointOutcome& p, const std::string& apps) {
  Record r;
  r.app = apps;
  r.level = p.label;
  r.cycles = p.final_cycles;
  r.wall_s = p.screen_wall + p.refine_wall + p.final_wall;
  r.Count("point", static_cast<double>(p.index));
  r.Count("screen_cycles", static_cast<double>(p.screen_cycles));
  r.Count("refine_cycles", static_cast<double>(p.refine_cycles));
  r.Count("area", p.area);
  r.Count("promoted", p.promoted ? 1 : 0);
  r.Count("frontier", p.frontier ? 1 : 0);
  return r;
}

// The whole sweep's record: throughput against the cold baseline and the
// engine's sharing counters.
Record SweepRecord(const dse::SweepReport& rep, const std::string& apps) {
  Record r;
  r.app = apps;
  r.level = "sweep";
  r.wall_s = rep.wall_seconds;
  const double points = static_cast<double>(rep.points.size());
  r.Count("points", points);
  r.Count("points_per_s", rep.wall_seconds > 0 ? points / rep.wall_seconds : 0);
  r.Count("est_cold_wall_s", rep.est_cold_wall);
  r.Count("speedup_vs_cold", rep.speedup_vs_cold);
  for (const auto& [name, value] :
       {std::pair<const char*, std::uint64_t>{"promoted", rep.promoted},
        {"retired", rep.retired},
        {"refined", rep.refined},
        {"memo.hits", rep.memo_hits},
        {"memo.misses", rep.memo_misses},
        {"prepass_shared", rep.prepass_shared},
        {"prepass_built", rep.prepass_built},
        {"screen_sims", rep.screen_sims},
        {"screen_deduped", rep.screen_deduped},
        {"journal_appends", rep.journal_appends},
        {"journal_bytes", rep.journal_bytes},
        {"points_resumed", rep.points_resumed}}) {
    r.Count(name, static_cast<double>(value));
  }
  return r;
}

}  // namespace

int RunDse(Bench& b) {
  const BenchOptions& opt = b.opt();
  const std::size_t num_points = b.Uint("--points", 64);
  SS_CHECK(num_points > 0, "--points must be positive");
  dse::DseOptions dopt;
  dopt.refine_rung = b.Has("--refine");  // opt-in; see DESIGN.md §13
  dopt.early_stopping = !b.Has("--no-early-stopping");
  dopt.keep_fraction = b.Double("--keep-fraction", dopt.keep_fraction);
  SS_CHECK(dopt.keep_fraction > 0 && dopt.keep_fraction <= 1,
           "--keep-fraction must be in (0, 1]");
  dopt.max_promote = b.Unsigned("--max-promote", dopt.max_promote);
  dopt.journal_path = b.String("--journal", "");
  if (b.Has("--resume")) {
    dopt.journal_path = b.String("--resume", "");
    dopt.resume = true;
  }
  const GpuConfig base = Rtx2080TiConfig();
  const std::string sweep_ini = b.String("--sweep-ini", "");
  const SweepSpec spec =
      sweep_ini.empty() ? DefaultSpec() : SweepSpec::FromFile(sweep_ini);
  const SweepSpec::Expansion exp = spec.ExpandCapped(base, num_points);
  SS_CHECK(!exp.points.empty(), "sweep expanded to zero valid points");
  std::printf("grid: %zu combinations -> %zu points (%zu invalid skipped)\n",
              spec.NumPoints(), exp.points.size(), exp.skipped_invalid);

  dopt.threads = opt.threads;
  dopt.run = opt.run;
  const auto& apps = b.Apps();

  if (b.Has("--chaos-smoke")) {
#if defined(SWIFTSIM_HAVE_FORK)
    return RunChaosSmoke(apps, exp.points, dopt);
#else
    std::printf("SKIP: chaos smoke needs fork/kill\n");
    return 77;
#endif
  }

  const dse::SweepReport rep = dse::RunSweep(apps, exp.points, dopt);
  std::printf("%-4s %-11s %12s %12s %6s  %s\n", "pt", "level", "screen_cyc",
              "final_cyc", "area", "decision");
  for (const dse::PointOutcome& p : rep.points) {
    const char* decision = p.frontier    ? "frontier"
                           : p.promoted  ? "promoted"
                                         : p.retired_by.c_str();
    std::printf("%-4zu %-11s %12llu %12llu %6.0f  %.60s\n", p.index,
                ToString(p.level_reached).c_str(),
                static_cast<unsigned long long>(p.screen_cycles),
                static_cast<unsigned long long>(p.final_cycles), p.area,
                decision);
  }
  std::string app_names;
  for (const std::string& name : opt.apps) {
    app_names += (app_names.empty() ? "" : ",") + name;
  }
  Record sweep = SweepRecord(rep, app_names);
  sweep.threads = opt.threads;
  std::printf("-- sweep: wall %.2fs", sweep.wall_s);
  for (const auto& [name, value] : sweep.counters) {
    std::printf(", %s %.10g", name.c_str(), value);
  }
  std::printf(" --\n");
  if (!dopt.journal_path.empty()) {
    std::printf("journal: %s\n", dopt.journal_path.c_str());
  }

  // Pruning must never be silent: a retired point without a recorded
  // bound is a bug, not a report style choice.
  for (const dse::PointOutcome& p : rep.points) {
    if (!p.promoted && p.retired_by.empty()) {
      std::printf("FAIL: point %zu retired without a recorded bound\n",
                  p.index);
      return 1;
    }
  }

  for (const dse::PointOutcome& p : rep.points) {
    b.Append(PointRecord(p, app_names));
  }
  b.Append(sweep);
  if (b.Has("--smoke") && rep.speedup_vs_cold < 3.0) {
    std::printf("FAIL: smoke gate needs speedup_vs_cold >= 3.0 (got %.2f)\n",
                rep.speedup_vs_cold);
    return 1;
  }
  return 0;
}

}  // namespace swiftsim::bench
