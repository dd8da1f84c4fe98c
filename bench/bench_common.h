// Shared experiment harness: the flag parser and run record of
// `swiftsim_bench <case>` (bench/swiftsim_bench.cc), plus the
// trace-footprint helper perfbench links.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "config/gpu_config.h"
#include "sim/gpu_model.h"
#include "sim/model_select.h"
#include "swiftsim/fault_inject.h"
#include "swiftsim/simulator.h"
#include "trace/kernel.h"
#include "workloads/workload.h"

namespace swiftsim::bench {

/// The shared flags. A case declares the ones it reads as a mask; every
/// other shared flag is rejected as unknown.
enum SharedFlag : unsigned {
  kScale = 1u << 0,       // --scale=<f>: workload scale
  kApps = 1u << 1,        // --apps=A,B,C: workload subset
  kSeed = 1u << 2,        // --seed=<n>
  kTraceCache = 1u << 3,  // --trace-cache=<dir>: on-disk compact traces
  kThreads = 1u << 4,     // --threads=<n>: worker threads
  kJson = 1u << 5,        // --json=<path>: where records are appended
  kNoSkip = 1u << 6,      // --no-skip: disable event-calendar jumps
  kNoMemo = 1u << 7,      // --no-memo: disable cross-launch caches
  kMemoFile = 1u << 8,    // --memo-file=<path>: persist the MemoCache
  kWatchdog = 1u << 9,    // --watchdog-cycles=<n>, --timeout-sec=<s>,
                          // --dump-dir=<dir> (DESIGN.md §11)
  kDegrade = 1u << 10,    // --degrade-on-hang: analytical fallback
  kFaultPlan = 1u << 11,  // --fault-plan=<ini>: chaos scenario
  kWorkload = kScale | kApps | kSeed | kTraceCache,
};

struct BenchOptions {
  double scale = 0.35;
  std::vector<std::string> apps;  // the driver fills in a case's default
  unsigned threads = 0;           // 0 = hardware concurrency
  std::uint64_t seed = 0x5eed5eedULL;
  std::string json_path;
  std::string memo_file;
  /// --no-skip, --no-memo, the watchdog flags (--timeout-sec bounds each
  /// app run), --degrade-on-hang and --fault-plan, as the run pipeline
  /// takes them.
  RunOptions run;
  /// Owns the --fault-plan that run.fault_plan points at; null = no plan.
  std::shared_ptr<const FaultPlan> fault_plan;
  std::string trace_cache_dir;  // empty = always generate
};

/// One command-line flag. Value flags are spelled `--name=<value>` (the
/// handler receives the value); switches are spelled `--name` (the
/// handler receives "").
struct BenchFlag {
  std::string name;       // including the leading "--", e.g. "--points"
  bool has_value = true;  // false: boolean switch
  std::function<void(const std::string& value)> handler;
};

/// Parses argv[1..argc) against the shared flags in `shared` (a SharedFlag
/// mask) plus `extra`; throws SimError naming the flag on an unknown or
/// malformed one. A --fault-plan file is loaded here.
BenchOptions ParseOptions(int argc, char** argv, double default_scale,
                          unsigned shared,
                          const std::vector<BenchFlag>& extra = {});

/// Builds the requested workloads (through the --trace-cache when set);
/// `build_seconds`, when given, receives each one's wall time.
std::vector<Application> BuildApps(
    const BenchOptions& opt, std::vector<double>* build_seconds = nullptr);

/// Columnar trace bytes across all kernels of `app` (DESIGN.md §14).
std::uint64_t TraceBytesOf(const Application& app);

/// Peak resident-set size of this process so far, in KiB (getrusage).
std::uint64_t PeakRssKb();

/// (predicted/actual - 1) as a signed percentage.
double SignedErrPct(Cycle predicted, Cycle actual);

/// One measured run: one line of `results/<case>.jsonl`. Files under
/// results/ are append-only, so the trajectory across changes survives.
struct Record {
  std::string bench_case;  // written as "case"
  std::string app;
  std::string level;  // simulator level, arm or phase
  std::string status = "ok";  // ok | degraded | timeout | hang | error
  std::string error;
  Cycle cycles = 0;
  std::uint64_t instructions = 0;
  double wall_s = 0;
  unsigned threads = 1;
  double scale = 0;
  std::uint64_t seed = 0;
  std::string git;  // `git describe --always --dirty`, or "unknown"
  unsigned nproc = 0;
  std::string cpu;
  /// Case-specific figures; only the non-zero ones are kept.
  std::vector<std::pair<std::string, double>> counters;

  /// Adds `name` unless `value` is zero.
  void Count(std::string name, double value);
  /// The named counter, or 0 when it was not kept.
  double Counter(std::string_view name) const;
};

/// The run's app, simulator, cycles, instructions, wall time and its
/// skip and memo counters.
Record RecordOf(const SimResult& result);
/// As above plus the outcome's status, error and degrade count.
Record RecordOf(const RunOutcome& run);

/// Fills the case, scale, seed, git and host fields of `r`.
void StampRecord(Record* r, const std::string& bench_case,
                 const BenchOptions& opt);

/// Appends `r` as one JSON object on one line to `path`, creating parent
/// directories.
void AppendRecord(const std::string& path, const Record& r);

}  // namespace swiftsim::bench
