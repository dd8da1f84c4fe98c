#include "swiftsim_bench.h"

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <thread>

#include "common/journal.h"
#include "common/status.h"
#include "common/strutil.h"
#include "swiftsim/memo_cache.h"

namespace swiftsim::bench {

namespace {

// The run-setting flags (BenchOptions::run).
constexpr unsigned kSimFlags = kNoSkip | kNoMemo | kWatchdog | kDegrade;

struct CaseDef {
  const char* name;
  const char* title;
  double default_scale;
  std::vector<std::string> default_apps;  // empty = all 18 workloads
  unsigned flags;                         // the SharedFlag mask it reads
  std::vector<std::pair<std::string, bool>> extra;  // own flags, has value
  int (*run)(Bench&);
};

const std::vector<CaseDef>& Cases() {
  static const std::vector<CaseDef> cases = {
      {"table1", "Table I: comparison of three NVIDIA GPUs", 0, {}, 0, {},
       RunTable1},
      {"table2", "Table II: NVIDIA RTX 2080 Ti GPU configuration", 0, {}, 0,
       {}, RunTable2},
      {"fig4", "Figure 4: prediction error and speedup (RTX 2080 Ti)", 0.3,
       {}, kWorkload | kJson | kSimFlags | kFaultPlan, {}, RunFig4},
      {"fig5", "Figure 5: speedup contribution analysis", 0.25, {},
       kWorkload | kThreads | kJson | kSimFlags, {}, RunFig5},
      // The baseline runs on a GpuModel directly (its reservation-failure
      // total needs the model), outside the pipeline's memo, degrade and
      // fault plan.
      {"fig6", "Figure 6: prediction error across three GPUs", 0.2, {},
       kWorkload | kJson | kNoSkip | kWatchdog, {}, RunFig6},
      {"ablation-hybrid", "Ablation: per-module hybridization steps", 0.2,
       {"GEMM", "NW", "BFS", "ADI", "HOTSPOT", "SM"},
       kWorkload | kJson | kNoSkip | kNoMemo | kWatchdog, {},
       RunAblationHybrid},
      {"ablation-dse", "Ablation: DSE sweeps on cycle-accurate modules", 0.2,
       {"BFS", "HOTSPOT", "LU", "SM"},
       kWorkload | kJson | kSimFlags | kFaultPlan | kMemoFile, {},
       RunAblationDse},
      {"ablation-sampling",
       "Ablation: CTA sampling on top of Swift-Sim-Basic", 3.0,
       {"SM", "GEMM", "ADI", "PAGERANK"}, kWorkload | kJson | kSimFlags, {},
       RunAblationSampling},
      {"hotpath", "Hot-path throughput: serial kDetailed", 0.35,
       {"GEMM", "SM", "BFS", "PAGERANK", "HOTSPOT"},
       kWorkload | kJson | kSimFlags | kFaultPlan, {}, RunHotpath},
      // Replay is off under a fault plan or degrade (DESIGN.md §10), so
      // the case's exactness checks could not hold with either.
      {"memo", "Cross-launch memoization: iterative solvers", 0.35,
       {"BFS", "PAGERANK", "SSSP"},
       kWorkload | kJson | kNoSkip | kNoMemo | kWatchdog, {}, RunMemo},
      {"dse", "DSE: warm-cache sweep with adaptive early stopping", 0.1,
       {"BFS", "SSSP"},
       kWorkload | kThreads | kJson | kSimFlags | kMemoFile,
       {{"--points", true}, {"--sweep-ini", true}, {"--keep-fraction", true},
        {"--max-promote", true}, {"--refine", false},
        {"--no-early-stopping", false}, {"--smoke", false},
        {"--journal", true}, {"--resume", true}, {"--chaos-smoke", false}},
       RunDse},
      {"trace", "Trace footprint: columnar storage + streaming generation",
       0.35, {}, kWorkload | kJson, {{"--smoke", false}}, RunTrace},
      {"service", "Persistent simulation service: cold vs warm requests",
       0.05, {"BFS", "NW", "HOTSPOT", "GEMM"},
       kScale | kApps | kSeed | kThreads | kJson,
       {{"--daemon", true}, {"--smoke", false}, {"--supervise-smoke", false},
        {"--repeats", true}},
       RunService},
  };
  return cases;
}

int Usage() {
  std::fprintf(stderr, "usage: swiftsim_bench <case> [flags]\ncases:");
  for (const CaseDef& c : Cases()) std::fprintf(stderr, " %s", c.name);
  std::fprintf(stderr, "\n");
  return 2;
}

// --memo-file: merges the file into the global MemoCache. A missing file
// starts cold, and a corrupt one is quarantined (DESIGN.md §16) rather
// than failing over a cache the run regenerates anyway.
void LoadMemoFile(const std::string& path) {
  if (!std::filesystem::exists(path)) return;
  try {
    MemoCache::Global().LoadFromFile(path);
  } catch (const SimError& e) {
    QuarantineCorruptFile(path, e.what());
    return;
  }
  std::printf("memo-file: loaded %zu replayable launch records from %s\n",
              MemoCache::Global().size(), path.c_str());
}

void SaveMemoFile(const std::string& path) {
  const std::filesystem::path p(path);
  std::error_code ec;  // SaveToFile reports a directory it cannot write
  if (p.has_parent_path()) {
    std::filesystem::create_directories(p.parent_path(), ec);
  }
  MemoCache::Global().SaveToFile(path);
  std::printf("memo-file: saved %zu replayable launch records to %s\n",
              MemoCache::Global().size(), path.c_str());
}

int RunCase(const CaseDef& c, int argc, char** argv) {
  std::map<std::string, std::string> flags;
  std::vector<BenchFlag> extra;
  for (const auto& [name, has_value] : c.extra) {
    extra.push_back({name, has_value, [&flags, name = name](
                                          const std::string& v) {
                       flags[name] = v;
                     }});
  }
  BenchOptions opt =
      ParseOptions(argc, argv, c.default_scale, c.flags, extra);
  if (opt.apps.empty()) opt.apps = c.default_apps;
  if (opt.apps.empty()) {
    for (const auto& spec : AllWorkloads()) opt.apps.push_back(spec.name);
  }
  if ((c.flags & kJson) != 0 && opt.json_path.empty()) {
    opt.json_path = std::string("results/") + c.name + ".jsonl";
  }
  std::printf("==== %s ====\n", c.title);
  if ((c.flags & kScale) != 0) {
    std::printf("scale=%.2f threads=%u apps=%zu\n", opt.scale, opt.threads,
                opt.apps.size());
  }
  // The MemoCache is loaded before the case and saved after it.
  const std::string memo_file = opt.memo_file;
  if (!memo_file.empty()) LoadMemoFile(memo_file);
  Bench bench(c.name, std::move(opt), std::move(flags));
  const int rc = c.run(bench);
  if (!memo_file.empty()) SaveMemoFile(memo_file);
  return rc;
}

}  // namespace

const std::vector<Application>& Bench::Apps() {
  if (!built_) {
    apps_ = BuildApps(opt_, &build_seconds_);
    built_ = true;
  }
  return apps_;
}

bool Bench::SkipTimedSmoke() const {
  if (!Has("--smoke") || std::thread::hardware_concurrency() >= 4) {
    return false;
  }
  std::printf("SKIP: the --smoke gate needs >= 4 hardware threads\n");
  return true;
}

const std::vector<double>& Bench::BuildSeconds() {
  Apps();
  return build_seconds_;
}

std::string Bench::String(const std::string& flag,
                          const std::string& fallback) const {
  const auto it = flags_.find(flag);
  return it != flags_.end() ? it->second : fallback;
}

std::uint64_t Bench::Uint(const std::string& flag,
                          std::uint64_t fallback) const {
  return Has(flag) ? ParseUint(flags_.at(flag), flag) : fallback;
}

unsigned Bench::Unsigned(const std::string& flag, unsigned fallback) const {
  return Has(flag) ? ParseUnsigned(flags_.at(flag), flag) : fallback;
}

double Bench::Double(const std::string& flag, double fallback) const {
  return Has(flag) ? ParseDouble(flags_.at(flag), flag) : fallback;
}

void Bench::Append(Record r) const {
  StampRecord(&r, name_, opt_);
  AppendRecord(opt_.json_path, r);
}

Record Bench::Run(const Application& app, const GpuConfig& cfg,
                  SimLevel level, const std::string& arm) const {
  Record r = RecordOf(swiftsim::Run({app, cfg, level, opt_.run}));
  if (!arm.empty()) r.level = arm;
  Append(r);
  return r;
}

}  // namespace swiftsim::bench

int main(int argc, char** argv) {
  using namespace swiftsim::bench;
  if (argc < 2) return Usage();
  for (const CaseDef& c : Cases()) {
    if (std::strcmp(argv[1], c.name) != 0) continue;
    try {
      // The case name stands in for argv[0].
      return RunCase(c, argc - 1, argv + 1);
    } catch (const swiftsim::SimError& e) {
      std::fflush(stdout);
      std::fprintf(stderr, "error: %s\n", e.what());
      return 2;
    }
  }
  std::fprintf(stderr, "error: unknown case '%s'\n", argv[1]);
  return Usage();
}
