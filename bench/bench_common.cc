#include "bench_common.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <thread>

#include "common/journal.h"
#include "common/stats.h"
#include "common/status.h"
#include "common/strutil.h"
#include "swiftsim/memo_cache.h"
#include "swiftsim/simulator.h"
#include "workloads/gen_util.h"

namespace swiftsim::bench {

BenchOptions ParseOptions(int argc, char** argv, double default_scale) {
  return ParseOptions(argc, argv, default_scale, {});
}

BenchOptions ParseOptions(int argc, char** argv, double default_scale,
                          const std::vector<BenchFlag>& extra) {
  BenchOptions opt;
  opt.scale = default_scale;
  // The shared flag set, expressed through the same BenchFlag machinery a
  // bench uses for its own flags — one matcher, one error path.
  std::vector<BenchFlag> flags = {
      {"--scale", true,
       [&opt](const std::string& v) {
         opt.scale = ParseDouble(v, "--scale");
         SS_CHECK(opt.scale > 0, "--scale must be positive");
       }},
      {"--sweep", true,
       [&opt](const std::string& v) {
         for (const std::string& s : Split(v, ',')) {
           const double scale = ParseDouble(s, "--sweep");
           SS_CHECK(scale > 0, "--sweep scales must be positive");
           opt.sweep.push_back(scale);
         }
         SS_CHECK(!opt.sweep.empty(), "--sweep needs at least one scale");
       }},
      {"--apps", true,
       [&opt](const std::string& v) { opt.apps = Split(v, ','); }},
      {"--threads", true,
       [&opt](const std::string& v) {
         opt.threads = static_cast<unsigned>(ParseUint(v, "--threads"));
       }},
      {"--seed", true,
       [&opt](const std::string& v) { opt.seed = ParseUint(v, "--seed"); }},
      {"--json", true,
       [&opt](const std::string& v) {
         opt.json_path = v;
         SS_CHECK(!opt.json_path.empty(), "--json needs a path");
       }},
      {"--no-skip", false,
       [&opt](const std::string&) { opt.cycle_skip = false; }},
      {"--no-memo", false,
       [&opt](const std::string&) { opt.memo = false; }},
      {"--memo-file", true,
       [&opt](const std::string& v) {
         opt.memo_file = v;
         SS_CHECK(!opt.memo_file.empty(), "--memo-file needs a path");
       }},
      {"--watchdog-cycles", true,
       [&opt](const std::string& v) {
         opt.watchdog_cycles = ParseUint(v, "--watchdog-cycles");
       }},
      {"--timeout-sec", true,
       [&opt](const std::string& v) {
         opt.timeout_sec = ParseDouble(v, "--timeout-sec");
         SS_CHECK(opt.timeout_sec >= 0, "--timeout-sec must be >= 0");
       }},
      {"--fault-plan", true,
       [&opt](const std::string& v) {
         opt.fault_plan_path = v;
         SS_CHECK(!opt.fault_plan_path.empty(), "--fault-plan needs a path");
       }},
      {"--degrade-on-hang", false,
       [&opt](const std::string&) { opt.degrade_on_hang = true; }},
      {"--dump-dir", true,
       [&opt](const std::string& v) {
         opt.dump_dir = v;
         SS_CHECK(!opt.dump_dir.empty(), "--dump-dir needs a path");
       }},
      {"--trace-cache", true,
       [&opt](const std::string& v) {
         opt.trace_cache_dir = v;
         SS_CHECK(!opt.trace_cache_dir.empty(), "--trace-cache needs a dir");
       }},
      {"--serial-gen", false,
       [&opt](const std::string&) { opt.serial_gen = true; }},
  };
  flags.insert(flags.end(), extra.begin(), extra.end());

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    bool matched = false;
    for (const BenchFlag& flag : flags) {
      if (flag.has_value) {
        if (StartsWith(arg, flag.name + "=")) {
          flag.handler(arg.substr(flag.name.size() + 1));
          matched = true;
          break;
        }
      } else if (arg == flag.name) {
        flag.handler("");
        matched = true;
        break;
      }
    }
    if (!matched) {
      std::string expected;
      for (const BenchFlag& flag : flags) {
        if (!expected.empty()) expected += ", ";
        expected += flag.name + (flag.has_value ? "=" : "");
      }
      throw SimError("unknown flag '" + arg + "' (expected " + expected +
                     ")");
    }
  }
  if (opt.threads == 0) {
    opt.threads = std::max(1u, std::thread::hardware_concurrency());
  }
  return opt;
}

bool LoadMemoFileIfExists(const std::string& path) {
  SS_CHECK(!path.empty(), "memo file path is empty");
  if (!std::filesystem::exists(path)) return false;
  try {
    MemoCache::Global().LoadFromFile(path);
  } catch (const SimError& e) {
    // Corrupt advisory cache (§16): quarantine and run cold rather than
    // failing the bench over a file we would have regenerated anyway.
    QuarantineCorruptFile(path, e.what());
    return false;
  }
  return true;
}

void SaveMemoFile(const std::string& path) {
  SS_CHECK(!path.empty(), "memo file path is empty");
  const std::filesystem::path p(path);
  if (p.has_parent_path()) {
    std::error_code ec;
    std::filesystem::create_directories(p.parent_path(), ec);
  }
  MemoCache::Global().SaveToFile(path);
}

std::vector<Application> BuildApps(const BenchOptions& opt) {
  std::vector<Application> apps;
  for (BuiltApp& built : BuildAppsTimed(opt)) {
    apps.push_back(std::move(built.app));
  }
  return apps;
}

std::vector<BuiltApp> BuildAppsTimed(const BenchOptions& opt) {
  std::vector<std::string> names = opt.apps;
  if (names.empty()) {
    for (const auto& spec : AllWorkloads()) names.push_back(spec.name);
  }
  workloads::SetParallelTraceBuild(!opt.serial_gen);
  WorkloadScale scale;
  scale.scale = opt.scale;
  scale.seed = opt.seed;
  TraceBuildOptions trace_opts;
  trace_opts.cache_dir = opt.trace_cache_dir;
  std::vector<BuiltApp> apps;
  apps.reserve(names.size());
  for (const auto& name : names) {
    BuiltApp built;
    const auto t0 = std::chrono::steady_clock::now();
    built.app = BuildWorkloadCached(name, scale, trace_opts, &built.cache_hit);
    const auto t1 = std::chrono::steady_clock::now();
    built.build_seconds = std::chrono::duration<double>(t1 - t0).count();
    apps.push_back(std::move(built));
  }
  return apps;
}

std::uint64_t TraceBytesOf(const Application& app) {
  std::uint64_t bytes = 0;
  for (const auto& kernel : app.kernels) bytes += kernel->TraceBytes();
  return bytes;
}

std::uint64_t PeakRssKb() {
  struct rusage ru = {};
  if (::getrusage(RUSAGE_SELF, &ru) != 0) return 0;
  return static_cast<std::uint64_t>(ru.ru_maxrss);  // KiB on Linux
}

void ApplyRobustness(GpuConfig* cfg, const BenchOptions& opt) {
  cfg->watchdog.stall_cycles = opt.watchdog_cycles;
  cfg->watchdog.wall_seconds = opt.timeout_sec;
  if (!opt.dump_dir.empty()) cfg->watchdog.dump_dir = opt.dump_dir;
  cfg->degrade.on_hang = opt.degrade_on_hang;
}

AppRun RunOne(const Application& app, const GpuConfig& cfg, SimLevel level,
              const FaultPlan* plan) {
  const RunOutcome out = Run({app, cfg, level, {plan}});
  const SimResult& r = out.result;
  AppRun run;
  run.app = app.name;
  // Benches spell a stall hang "hang" and any other failure "error".
  if (out.outcome.status != AppStatus::kFailed) {
    run.status = ToString(out.outcome.status);
  } else {
    run.status = out.outcome.hang ? "hang" : "error";
  }
  run.error = out.outcome.error;
  run.degrade_events = r.degrades.size();
  run.cycles = r.total_cycles;
  run.instructions = r.instructions;
  run.wall_seconds = r.wall_seconds;
  run.cycles_skipped = r.Metric("driver.cycles_skipped");
  run.skip_jumps = r.Metric("driver.skip_jumps");
  run.memo_hits = r.Metric("memo.hits");
  run.memo_misses = r.Metric("memo.misses");
  run.memo_cycles_avoided = r.Metric("memo.replayed_cycles");
  return run;
}

AppRun RunOne(const Application& app, const GpuConfig& cfg, SimLevel level,
              const BenchOptions& opt) {
  if (opt.fault_plan_path.empty()) return RunOne(app, cfg, level);
  const FaultPlan plan = FaultPlan::FromFile(opt.fault_plan_path);
  return RunOne(app, cfg, level, &plan);
}

double ErrPct(Cycle predicted, Cycle actual) {
  return std::abs(SignedErrPct(predicted, actual));
}

double SignedErrPct(Cycle predicted, Cycle actual) {
  SS_CHECK(actual > 0, "ErrPct: zero actual cycles");
  return 100.0 *
         (static_cast<double>(predicted) - static_cast<double>(actual)) /
         static_cast<double>(actual);
}

void PrintHeader(const std::string& experiment, const BenchOptions& opt) {
  std::printf("==== %s ====\n", experiment.c_str());
  std::printf("scale=%.2f threads=%u apps=%zu\n", opt.scale, opt.threads,
              opt.apps.empty() ? AllWorkloads().size() : opt.apps.size());
}

namespace {

std::string GitDescribe() {
  std::string out = "unknown";
  if (FILE* p = ::popen("git describe --always --dirty 2>/dev/null", "r")) {
    char buf[128];
    if (std::fgets(buf, sizeof buf, p)) {
      out.assign(buf);
      while (!out.empty() && (out.back() == '\n' || out.back() == '\r')) {
        out.pop_back();
      }
    }
    ::pclose(p);
    if (out.empty()) out = "unknown";
  }
  return out;
}

// The host's CPU model as /proc/cpuinfo names it ("unknown" elsewhere).
std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const std::size_t colon = line.find(':');
    if (colon != std::string::npos) {
      return std::string(Trim(std::string_view(line).substr(colon + 1)));
    }
  }
  return "unknown";
}

}  // namespace

std::string GitDescribeString() { return GitDescribe(); }

JsonRun ToJsonRun(const AppRun& run, const std::string& level,
                  unsigned threads) {
  JsonRun j;
  j.app = run.app;
  j.level = level;
  j.status = run.status;
  j.degrade_events = run.degrade_events;
  j.cycles = run.cycles;
  j.wall_seconds = run.wall_seconds;
  j.instrs_per_sec = run.wall_seconds > 0
                         ? static_cast<double>(run.instructions) /
                               run.wall_seconds
                         : 0.0;
  j.threads = threads;
  j.cycles_skipped = run.cycles_skipped;
  j.skip_jumps = run.skip_jumps;
  j.memo_hits = run.memo_hits;
  j.memo_misses = run.memo_misses;
  j.memo_cycles_avoided = run.memo_cycles_avoided;
  return j;
}

LatencySummary Summarize(const std::vector<double>& seconds) {
  LatencySummary s;
  if (seconds.empty()) return s;
  s.count = seconds.size();
  s.p50 = Quantile(seconds, 0.50);
  s.p95 = Quantile(seconds, 0.95);
  s.p99 = Quantile(seconds, 0.99);
  s.mean = Mean(seconds);
  s.max = *std::max_element(seconds.begin(), seconds.end());
  return s;
}

void AppendLatencyFields(const std::string& prefix, const LatencySummary& s,
                         std::vector<std::pair<std::string, double>>* extra) {
  extra->emplace_back(prefix + "_p50_sec", s.p50);
  extra->emplace_back(prefix + "_p95_sec", s.p95);
  extra->emplace_back(prefix + "_p99_sec", s.p99);
  extra->emplace_back(prefix + "_mean_sec", s.mean);
  extra->emplace_back(prefix + "_max_sec", s.max);
  extra->emplace_back(prefix + "_count", static_cast<double>(s.count));
}

void WriteRunsJson(const std::string& path, const std::string& bench,
                   const BenchOptions& opt, const std::vector<JsonRun>& runs) {
  WriteRunsJson(path, bench, opt, runs, {});
}

void WriteRunsJson(const std::string& path, const std::string& bench,
                   const BenchOptions& opt, const std::vector<JsonRun>& runs,
                   const std::vector<std::pair<std::string, double>>& extra) {
  const std::filesystem::path p(path);
  if (p.has_parent_path()) {
    std::error_code ec;
    std::filesystem::create_directories(p.parent_path(), ec);
  }
  FILE* f = std::fopen(path.c_str(), "w");
  SS_CHECK(f != nullptr, "cannot open --json path '" + path + "'");
  std::fprintf(f, "{\n  \"bench\": \"%s\",\n  \"git\": \"%s\",\n",
               bench.c_str(), GitDescribe().c_str());
  std::fprintf(f, "  \"host\": {\"nproc\": %u, \"cpu\": \"%s\"},\n",
               std::thread::hardware_concurrency(), CpuModel().c_str());
  for (const auto& [name, value] : extra) {
    std::fprintf(f, "  \"%s\": %.6f,\n", name.c_str(), value);
  }
  std::fprintf(f, "  \"scale\": %.4f,\n  \"runs\": [\n", opt.scale);
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const JsonRun& r = runs[i];
    std::fprintf(f,
                 "    {\"app\": \"%s\", \"level\": \"%s\", "
                 "\"status\": \"%s\", \"degrade_events\": %llu, "
                 "\"cycles\": %llu, "
                 "\"wall_seconds\": %.6f, \"instrs_per_sec\": %.1f, "
                 "\"speedup_vs_serial\": %.3f, "
                 "\"threads\": %u, \"scale\": %.4f, "
                 "\"cycles_skipped\": %llu, \"skip_jumps\": %llu, "
                 "\"memo_hits\": %llu, \"memo_misses\": %llu, "
                 "\"memo_cycles_avoided\": %llu, "
                 "\"trace_bytes\": %llu, \"bytes_per_instr\": %.2f, "
                 "\"peak_rss_kb\": %llu, "
                 "\"trace_build_seconds\": %.6f}%s\n",
                 r.app.c_str(), r.level.c_str(), r.status.c_str(),
                 static_cast<unsigned long long>(r.degrade_events),
                 static_cast<unsigned long long>(r.cycles), r.wall_seconds,
                 r.instrs_per_sec, r.speedup_vs_serial, r.threads,
                 r.scale > 0 ? r.scale : opt.scale,
                 static_cast<unsigned long long>(r.cycles_skipped),
                 static_cast<unsigned long long>(r.skip_jumps),
                 static_cast<unsigned long long>(r.memo_hits),
                 static_cast<unsigned long long>(r.memo_misses),
                 static_cast<unsigned long long>(r.memo_cycles_avoided),
                 static_cast<unsigned long long>(r.trace_bytes),
                 r.bytes_per_instr,
                 static_cast<unsigned long long>(r.peak_rss_kb),
                 r.trace_build_seconds, i + 1 < runs.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s (%zu runs)\n", path.c_str(), runs.size());
}

}  // namespace swiftsim::bench
