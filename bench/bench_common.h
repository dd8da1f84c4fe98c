// Shared experiment harness for the table/figure reproduction benches.
//
// Every bench accepts:
//   --scale=<f>     workload scale (default per bench)
//   --apps=A,B,C    subset of workloads (default: all 18)
//   --threads=<n>   worker threads for parallel measurements
// and prints the rows/series of the corresponding paper table or figure.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "config/gpu_config.h"
#include "sim/gpu_model.h"
#include "sim/model_select.h"
#include "swiftsim/fault_inject.h"
#include "trace/kernel.h"
#include "workloads/workload.h"

namespace swiftsim::bench {

struct BenchOptions {
  double scale = 0.35;
  std::vector<double> sweep;      // --sweep=a,b,c: scales for scaling
                                  // benches; empty = just `scale`
  std::vector<std::string> apps;  // empty = all registered workloads
  unsigned threads = 0;           // 0 = hardware concurrency
  std::uint64_t seed = 0x5eed5eedULL;
  std::string json_path;          // --json=<path>: machine-readable records
  bool cycle_skip = true;         // --no-skip: disable event-calendar jumps
  bool memo = true;               // --no-memo: disable cross-launch caches
  std::string memo_file;          // --memo-file=<path>: persist the global
                                  // MemoCache across sweep processes
  // Resilience knobs (DESIGN.md §11); 0/empty = off.
  Cycle watchdog_cycles = 0;      // --watchdog-cycles=<n>: stall window
  double timeout_sec = 0;         // --timeout-sec=<s>: per-app wall budget
  std::string fault_plan_path;    // --fault-plan=<ini>: chaos scenario
  bool degrade_on_hang = false;   // --degrade-on-hang: analytical fallback
  std::string dump_dir;           // --dump-dir=<dir>: hang diagnostics
  // Trace generation knobs (DESIGN.md §14).
  std::string trace_cache_dir;    // --trace-cache=<dir>: on-disk compact
                                  // trace cache; empty = always generate
  bool serial_gen = false;        // --serial-gen: disable parallel per-
                                  // variant trace generation
};

/// One command-line flag a bench can register on top of the shared set.
/// Value flags are spelled `--name=<value>` (the handler receives the
/// value); switches are spelled `--name` (the handler receives ""). Every
/// flag — built-in or extra — parses through the same matcher, and an
/// unrecognized argument is an error naming the full accepted set.
struct BenchFlag {
  std::string name;       // including the leading "--", e.g. "--points"
  bool has_value = true;  // false: boolean switch
  std::function<void(const std::string& value)> handler;
};

/// Parses --scale/--sweep/--apps/--threads/--seed/--json/--no-skip/
/// --no-memo/--memo-file/--watchdog-cycles/--timeout-sec/--fault-plan/
/// --degrade-on-hang/--dump-dir plus any `extra` bench-specific flags;
/// throws SimError on unknown or malformed flags.
BenchOptions ParseOptions(int argc, char** argv, double default_scale);
BenchOptions ParseOptions(int argc, char** argv, double default_scale,
                          const std::vector<BenchFlag>& extra);

/// Loads `path` into the process-global MemoCache when the file exists;
/// returns true when entries were merged in. A missing file is not an
/// error (every sweep's first process starts cold).
bool LoadMemoFileIfExists(const std::string& path);

/// Persists the global MemoCache's replay-ready entries to `path`.
void SaveMemoFile(const std::string& path);

/// `git describe --always --dirty`, or "unknown" outside a repository.
std::string GitDescribeString();

/// Maps the resilience knobs onto the config consumed by every driver.
/// The wall budget is per fresh GpuModel, which the benches create per
/// app — so --timeout-sec bounds each application run.
void ApplyRobustness(GpuConfig* cfg, const BenchOptions& opt);

/// The measured outcome of one (app, simulator-level) run.
struct AppRun {
  std::string app;
  std::string status = "ok";  // ok | degraded | timeout | hang | error
  std::string error;          // what() when status is not ok/degraded
  std::uint64_t degrade_events = 0;
  Cycle cycles = 0;
  double wall_seconds = 0;
  std::uint64_t instructions = 0;
  std::uint64_t cycles_skipped = 0;  // driver cycles elided by the calendar
  std::uint64_t skip_jumps = 0;      // wake events dispatched via jumps
  std::uint64_t memo_hits = 0;       // launches replayed from the MemoCache
  std::uint64_t memo_misses = 0;     // launches simulated (and recorded)
  std::uint64_t memo_cycles_avoided = 0;  // simulated cycles replay elided
};

/// Runs one app at one level through the run pipeline (serial), with
/// `plan` armed. A failure becomes the AppRun's status and error; the
/// bench carries on.
AppRun RunOne(const Application& app, const GpuConfig& cfg, SimLevel level,
              const FaultPlan* plan = nullptr);
/// As above with the plan named by --fault-plan, if any.
AppRun RunOne(const Application& app, const GpuConfig& cfg, SimLevel level,
              const BenchOptions& opt);

/// Builds every requested workload once (they are reused across levels).
std::vector<Application> BuildApps(const BenchOptions& opt);

/// One built workload with its generation cost — the trace bench and the
/// hot-path bench report build wall time and cache behaviour per app.
struct BuiltApp {
  Application app;
  double build_seconds = 0;  // wall time inside BuildWorkloadCached
  bool cache_hit = false;    // served from the on-disk compact cache
};

/// BuildApps with per-app timing, honouring --trace-cache/--serial-gen.
std::vector<BuiltApp> BuildAppsTimed(const BenchOptions& opt);

/// Columnar trace bytes across all kernels of `app` (DESIGN.md §14).
std::uint64_t TraceBytesOf(const Application& app);

/// Peak resident-set size of this process so far, in KiB (getrusage).
std::uint64_t PeakRssKb();

/// |predicted/actual - 1| as a percentage.
double ErrPct(Cycle predicted, Cycle actual);

/// (predicted/actual - 1) as a signed percentage.
double SignedErrPct(Cycle predicted, Cycle actual);

/// Prints a standard header naming the experiment.
void PrintHeader(const std::string& experiment, const BenchOptions& opt);

/// One machine-readable record for --json output (BENCH_*.json files track
/// the perf trajectory across PRs).
struct JsonRun {
  std::string app;
  std::string level;       // simulator level or configuration label
  std::string status = "ok";
  std::uint64_t degrade_events = 0;
  Cycle cycles = 0;
  double wall_seconds = 0;
  double instrs_per_sec = 0;
  double speedup_vs_serial = 0;  // serial wall / this wall; 0 = n/a
  double scale = 0;              // per-run workload scale; 0 = opt.scale
  unsigned threads = 1;
  std::uint64_t cycles_skipped = 0;
  std::uint64_t skip_jumps = 0;
  std::uint64_t memo_hits = 0;
  std::uint64_t memo_misses = 0;
  std::uint64_t memo_cycles_avoided = 0;
  // Trace-footprint fields (DESIGN.md §14); 0 = not measured.
  std::uint64_t trace_bytes = 0;      // columnar storage across kernels
  double bytes_per_instr = 0;         // trace_bytes / dynamic instrs
  std::uint64_t peak_rss_kb = 0;      // process peak RSS after the run
  double trace_build_seconds = 0;     // wall time generating the trace
};

/// Converts an AppRun measured at `level` into a JsonRun.
JsonRun ToJsonRun(const AppRun& run, const std::string& level,
                  unsigned threads);

/// Latency distribution of a set of request/run wall times — the service
/// bench's throughput story is meaningless without the tail, so the
/// summary leads with the percentiles (linear-interpolation quantiles,
/// common/stats.h).
struct LatencySummary {
  std::size_t count = 0;
  double p50 = 0;
  double p95 = 0;
  double p99 = 0;
  double mean = 0;
  double max = 0;
};

/// Summarizes `seconds` (unsorted; empty input returns an all-zero
/// summary rather than throwing — benches report what they measured).
LatencySummary Summarize(const std::vector<double>& seconds);

/// Flattens `s` into `<prefix>_p50_sec`/`_p95_sec`/`_p99_sec`/`_mean_sec`/
/// `_max_sec`/`_count` extra fields for WriteRunsJson.
void AppendLatencyFields(const std::string& prefix, const LatencySummary& s,
                         std::vector<std::pair<std::string, double>>* extra);

/// Writes `{"bench":..., "git":..., "host":..., "scale":..., "runs":[...]}`
/// to `path`, creating parent directories as needed. `git` is `git
/// describe --always --dirty` ("unknown" outside a repo); `host` is
/// `{"nproc": <hardware threads>, "cpu": <model name>}`. The `extra` overload
/// additionally emits each (name, value) pair as a top-level numeric
/// field — throughput and latency summaries ride next to the runs.
void WriteRunsJson(const std::string& path, const std::string& bench,
                   const BenchOptions& opt, const std::vector<JsonRun>& runs);
void WriteRunsJson(const std::string& path, const std::string& bench,
                   const BenchOptions& opt, const std::vector<JsonRun>& runs,
                   const std::vector<std::pair<std::string, double>>& extra);

}  // namespace swiftsim::bench
