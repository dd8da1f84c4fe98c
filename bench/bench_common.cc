#include "bench_common.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <thread>

#include "common/json.h"
#include "common/status.h"
#include "common/strutil.h"

namespace swiftsim::bench {

namespace {

void CreateParentDirs(const std::string& path) {
  const std::filesystem::path p(path);
  if (p.has_parent_path()) {
    std::error_code ec;
    std::filesystem::create_directories(p.parent_path(), ec);
  }
}

std::string GitDescribe() {
  std::string out;
  if (FILE* p = ::popen("git describe --always --dirty 2>/dev/null", "r")) {
    char buf[128];
    if (std::fgets(buf, sizeof buf, p)) out.assign(buf);
    ::pclose(p);
  }
  while (!out.empty() && (out.back() == '\n' || out.back() == '\r')) {
    out.pop_back();
  }
  return out.empty() ? "unknown" : out;
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

// A value flag whose value must be a non-empty path.
BenchFlag PathFlag(const char* name, std::string* out) {
  return {name, true, [name, out](const std::string& v) {
            if (v.empty()) throw SimError(std::string(name) + " needs a path");
            *out = v;
          }};
}

// A value flag holding a non-negative integer that must fit `*out`.
BenchFlag UintFlag(const char* name, std::uint64_t* out) {
  return {name, true,
          [name, out](const std::string& v) { *out = ParseUint(v, name); }};
}
BenchFlag UintFlag(const char* name, unsigned* out) {
  return {name, true,
          [name, out](const std::string& v) { *out = ParseUnsigned(v, name); }};
}

// A switch that sets `*out` to `value`.
BenchFlag Switch(const char* name, bool* out, bool value) {
  return {name, false, [out, value](const std::string&) { *out = value; }};
}

}  // namespace

BenchOptions ParseOptions(int argc, char** argv, double default_scale,
                          unsigned shared,
                          const std::vector<BenchFlag>& extra) {
  BenchOptions opt;
  opt.scale = default_scale;
  const std::pair<unsigned, BenchFlag> table[] = {
      {kScale,
       {"--scale", true,
        [&opt](const std::string& v) {
          opt.scale = ParseDouble(v, "--scale");
          if (!(opt.scale > 0)) throw SimError("--scale must be positive");
        }}},
      {kApps,
       {"--apps", true,
        [&opt](const std::string& v) { opt.apps = Split(v, ','); }}},
      {kSeed, UintFlag("--seed", &opt.seed)},
      {kTraceCache, PathFlag("--trace-cache", &opt.trace_cache_dir)},
      {kThreads, UintFlag("--threads", &opt.threads)},
      {kJson, PathFlag("--json", &opt.json_path)},
      {kNoSkip, Switch("--no-skip", &opt.run.model.cycle_skip, false)},
      {kNoMemo, Switch("--no-memo", &opt.run.memo, false)},
      {kMemoFile, PathFlag("--memo-file", &opt.memo_file)},
      {kWatchdog,
       UintFlag("--watchdog-cycles", &opt.run.model.watchdog.stall_cycles)},
      {kWatchdog,
       {"--timeout-sec", true,
        [&opt](const std::string& v) {
          double& budget = opt.run.model.watchdog.wall_seconds;
          budget = ParseDouble(v, "--timeout-sec");
          if (!std::isfinite(budget) || budget < 0) {
            throw SimError("--timeout-sec must be a finite value >= 0");
          }
        }}},
      {kWatchdog, PathFlag("--dump-dir", &opt.run.model.watchdog.dump_dir)},
      {kDegrade, Switch("--degrade-on-hang", &opt.run.degrade_on_hang, true)},
      {kFaultPlan,
       {"--fault-plan", true,
        [&opt](const std::string& v) {
          if (v.empty()) throw SimError("--fault-plan needs a path");
          opt.fault_plan =
              std::make_shared<const FaultPlan>(FaultPlan::FromFile(v));
          opt.run.fault_plan = opt.fault_plan.get();
        }}},
  };
  std::vector<BenchFlag> flags;
  for (const auto& [bit, flag] : table) {
    if ((shared & bit) != 0) flags.push_back(flag);
  }
  flags.insert(flags.end(), extra.begin(), extra.end());

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto match = std::find_if(
        flags.begin(), flags.end(), [&arg](const BenchFlag& flag) {
          return flag.has_value ? StartsWith(arg, flag.name + "=")
                                : arg == flag.name;
        });
    if (match == flags.end()) {
      std::string expected;
      for (const BenchFlag& flag : flags) {
        if (!expected.empty()) expected += ", ";
        expected += flag.name + (flag.has_value ? "=" : "");
      }
      throw SimError("unknown flag '" + arg + "' (expected " +
                     (expected.empty() ? "no flags" : expected) + ")");
    }
    match->handler(match->has_value ? arg.substr(match->name.size() + 1)
                                    : "");
  }
  if (opt.threads == 0) {
    opt.threads = std::max(1u, std::thread::hardware_concurrency());
  }
  return opt;
}

std::vector<Application> BuildApps(const BenchOptions& opt,
                                   std::vector<double>* build_seconds) {
  WorkloadScale scale;
  scale.scale = opt.scale;
  scale.seed = opt.seed;
  TraceBuildOptions trace_opts;
  trace_opts.cache_dir = opt.trace_cache_dir;
  std::vector<Application> apps;
  apps.reserve(opt.apps.size());
  for (const auto& name : opt.apps) {
    const auto t0 = std::chrono::steady_clock::now();
    apps.push_back(BuildWorkloadCached(name, scale, trace_opts));
    const auto t1 = std::chrono::steady_clock::now();
    if (build_seconds != nullptr) {
      build_seconds->push_back(std::chrono::duration<double>(t1 - t0).count());
    }
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

double SignedErrPct(Cycle predicted, Cycle actual) {
  SS_CHECK(actual > 0, "ErrPct: zero actual cycles");
  return 100.0 *
         (static_cast<double>(predicted) - static_cast<double>(actual)) /
         static_cast<double>(actual);
}

void Record::Count(std::string name, double value) {
  if (value != 0) counters.emplace_back(std::move(name), value);
}

double Record::Counter(std::string_view name) const {
  for (const auto& [key, value] : counters) {
    if (key == name) return value;
  }
  return 0;
}

Record RecordOf(const SimResult& result) {
  Record r;
  r.app = result.app;
  r.level = result.simulator;
  r.cycles = result.total_cycles;
  r.instructions = result.instructions;
  r.wall_s = result.wall_seconds;
  for (const char* name : {"driver.cycles_skipped", "driver.skip_jumps",
                           "memo.hits", "memo.misses",
                           "memo.replayed_cycles"}) {
    r.Count(name, static_cast<double>(result.Metric(name)));
  }
  return r;
}

Record RecordOf(const RunOutcome& run) {
  Record r = RecordOf(run.result);
  // A stall hang is spelled "hang" and any other failure "error".
  if (run.outcome.status != AppStatus::kFailed) {
    r.status = ToString(run.outcome.status);
  } else {
    r.status = run.outcome.hang ? "hang" : "error";
  }
  r.error = run.outcome.error;
  r.Count("degrade_events", static_cast<double>(run.result.degrades.size()));
  return r;
}

void StampRecord(Record* r, const std::string& bench_case,
                 const BenchOptions& opt) {
  static const std::string git = GitDescribe();
  static const std::string cpu = CpuModel();
  r->bench_case = bench_case;
  if (r->scale == 0) r->scale = opt.scale;
  r->seed = opt.seed;
  r->git = git;
  r->nproc = std::thread::hardware_concurrency();
  r->cpu = cpu;
}

void AppendRecord(const std::string& path, const Record& r) {
  JsonWriter w;
  w.BeginObject();
  w.Key("case").String(r.bench_case);
  w.Key("app").String(r.app);
  w.Key("level").String(r.level);
  w.Key("status").String(r.status);
  w.Key("error").String(r.error);
  w.Key("cycles").Uint(r.cycles);
  w.Key("instructions").Uint(r.instructions);
  w.Key("wall_s").Double(r.wall_s);
  w.Key("threads").Uint(r.threads);
  w.Key("scale").Double(r.scale);
  w.Key("seed").Uint(r.seed);
  w.Key("git").String(r.git);
  w.Key("host").BeginObject();
  w.Key("nproc").Uint(r.nproc);
  w.Key("cpu").String(r.cpu);
  w.EndObject();
  w.Key("counters").BeginObject();
  for (const auto& [name, value] : r.counters) {
    // Integral counters print exactly; JsonWriter::Double keeps 9 digits.
    w.Key(name);
    if (value >= 0 && value < 9.007199254740992e15 &&
        value == std::floor(value)) {
      w.Uint(static_cast<std::uint64_t>(value));
    } else {
      w.Double(value);
    }
  }
  w.EndObject();
  w.EndObject();
  CreateParentDirs(path);
  std::ofstream out(path, std::ios::app | std::ios::binary);
  SS_CHECK(out.good(), "cannot open --json path '" + path + "'");
  out << w.str() << '\n';
  SS_CHECK(out.good(), "cannot append to '" + path + "'");
}

}  // namespace swiftsim::bench
