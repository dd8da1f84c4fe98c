// Shared pieces of the repository benchmark: run options, the span
// recorder behind the traced run, small statistics helpers, the serial
// reference simulations every workload checks against, and the result
// record `run.py` turns into the benchmark's last output line.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "config/gpu_config.h"
#include "sim/gpu_model.h"
#include "sim/model_select.h"
#include "trace/kernel.h"
#include "workloads/workload.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point a, Clock::time_point b);

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;  // timed budget of the run
  bool trace = false;   // traced run: spans + per-layer metrics
  unsigned threads = 1;  // CPUs the process may run on; never 0
  std::string tmp_dir;   // fresh, empty, owned by this run
  std::string out_dir;   // trace-event JSON + layer table land here
  std::string swiftsimd;  // daemon binary for the `service` workload
};

// --- Spans -----------------------------------------------------------------

/// One recorded interval. Its layer is the text of `name` before the first
/// '.'; `parent` is the id of the enclosing span (0 = root).
struct SpanRecord {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::string name;
  double start_s = 0;  // since the tracer's epoch
  double end_s = 0;
  unsigned tid = 0;
};

/// In-memory span store. Recording is switched per round so a traced run
/// can interleave traced and untraced rounds of identical work; spans are
/// written out once, after the timed work ends.
class Tracer {
 public:
  Tracer();
  void set_enabled(bool on) { enabled_.store(on); }
  bool enabled() const { return enabled_.load(); }
  /// Distinguishes runs in the trace-event file (args.run).
  void set_run_id(std::string id) { run_id_ = std::move(id); }

  /// Reserves a span id, so children can name a span before it closes.
  std::uint64_t NextId();
  /// Stores a closed span under an id from NextId(); no-op when disabled.
  void Record(std::uint64_t id, const std::string& name, std::uint64_t parent,
              Clock::time_point start, Clock::time_point end,
              unsigned tid);

  /// Chrome trace-event JSON (opens in Perfetto / chrome://tracing).
  void WriteTraceEvents(const std::string& path) const;
  /// Per-layer self time: a span's duration minus what its children cover.
  /// Returns seconds by layer and writes a TSV table to `path`.
  std::map<std::string, double> WriteSelfTimeTable(
      const std::string& path) const;

 private:
  Clock::time_point epoch_;
  std::atomic<bool> enabled_{false};
  std::string run_id_;
  mutable std::mutex mu_;
  std::uint64_t next_id_ = 1;
  std::vector<SpanRecord> spans_;
};

/// Stopwatch that is also a span: always measures (the untraced run needs
/// the same walls), records only while the tracer is enabled.
class Span {
 public:
  Span(Tracer& tracer, const char* name, std::uint64_t parent = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Closes the span (idempotent) and returns its duration in seconds.
  double End();
  /// Id children pass as `parent`; 0 when tracing is off.
  std::uint64_t id() const { return id_; }

 private:
  Tracer& tracer_;
  const char* name_;
  std::uint64_t parent_;
  std::uint64_t id_ = 0;
  Clock::time_point start_;
  double seconds_ = -1;
};

// --- Statistics ------------------------------------------------------------

double Median(std::vector<double> v);

/// CPUs this process may run on (its affinity mask): the worker budget
/// passed to every entry point, so none of them gets 0.
unsigned UsableCpus();

/// Peak resident set (VmHWM) of `pid` ("self" for this process), in MB.
double PeakRssMb(const std::string& pid = "self");
/// Returns freed heap to the system and restarts this process's VmHWM at
/// its current resident set, so PeakRssMb() afterwards covers only what
/// runs from here on (not the references computed before the timed loop).
void ResetPeakRss();

/// Walls of repeated rounds of identical work. In a traced run every second
/// round records spans; traced and untraced walls are kept apart so the run
/// reports its own tracing overhead.
struct Rounds {
  std::vector<double> wall;
  std::vector<double> traced;
  std::vector<double> untraced;
  void Add(double seconds, bool was_traced);
  /// 100 * (median traced / median untraced - 1); 0 without both kinds.
  double OverheadPct() const;
};

/// Runs `round(traced)` until `budget` seconds have passed, at least
/// `min_rounds` times. In a traced run every second round is traced.
template <typename Fn>
void RunRounds(const Options& opt, Tracer& tracer, double budget, Fn&& round,
               unsigned min_rounds = 3) {
  const Clock::time_point start = Clock::now();
  for (unsigned i = 0;
       i < min_rounds || Seconds(start, Clock::now()) < budget; ++i) {
    tracer.set_enabled(opt.trace && i % 2 == 1);
    round(tracer.enabled());
  }
  tracer.set_enabled(false);
}

// --- Inputs ----------------------------------------------------------------

/// Deterministic 64-bit mix of the run seed with a salt: every generated
/// input (workload seeds, sweep values, request draws) derives from it.
std::uint64_t DeriveSeed(std::uint64_t seed, std::uint64_t salt);

// --- Result ----------------------------------------------------------------

struct Metric {
  double value = 0;
  std::string unit;
};

/// What one run reports. `metrics` holds both metric sets; main() keeps the
/// end-to-end or the per-layer names depending on the mode.
struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  // first few mismatch descriptions
  std::map<std::string, Metric> metrics;

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  /// Counts one checked operation; records a mismatch when !ok.
  void Check(bool ok, const std::string& what);
};

// --- Serial references -----------------------------------------------------

/// One serial reference simulation: a fresh GpuModel (caches empty) driven
/// kernel by kernel through GpuModel::RunKernel, no memo, no parallelism.
/// The analytical-memory level gets its profile from BuildMemProfile.
struct Reference {
  swiftsim::Cycle cycles = 0;
  std::uint64_t instructions = 0;
  std::map<std::string, std::uint64_t> metrics;
};

/// Serial references of `apps` at `level`, up to `threads` applications
/// at a time; each one is its own serial simulation.
std::vector<Reference> RunReferences(
    const std::vector<swiftsim::Application>& apps,
    const swiftsim::GpuConfig& cfg, swiftsim::SimLevel level, unsigned threads,
    Tracer& tracer);

/// The application mix behind `oneshot` and the accuracy figures: two
/// irregular, two memory-streaming, one compute-bound and one mixed
/// application, BFS and SM among them.
const std::vector<std::string>& AppMix();
constexpr double kMixScale = 0.1;

/// Runs the silicon oracle and the detailed, basic and memory levels over
/// the accuracy set (AppMix at kMixScale and a fixed seed, so the figures
/// compare across runs and seeds) as serial references outside every timed
/// window. Sets err_*_pct, the mean |cycles / silicon - 1| per level, and
/// the model's exact counts: sim.skip_share and the detailed level's
/// core.* and mem.* counts.
void MeasureAccuracy(RunResult* out, unsigned threads, Tracer& tracer);

/// One application of a workload's set: registry name, scale and seed.
struct AppSpec {
  std::string name;
  swiftsim::WorkloadScale scale;
};

/// Trace generation of `specs`: the set-up the workloads time (spans
/// workloads.build_mix / workloads.build). Appends its wall to `walls`.
std::vector<swiftsim::Application> BuildApps(const std::vector<AppSpec>& specs,
                                             Tracer& tracer,
                                             std::vector<double>* walls);

/// Empties every process-global cache a simulation could warm (MemoCache,
/// ProfileCache), so each timed call starts cold as a fresh process would.
void ResetGlobalCaches();

/// Per-layer figures of a workload's own application set: median build
/// time, instruction count and trace bytes per instruction.
void SetAppSetLayers(RunResult* out,
                     const std::vector<swiftsim::Application>& apps,
                     double build_s);

/// memo.hits / misses / hit_ratio / cycles_avoided.
void SetMemoLayer(RunResult* out, std::uint64_t hits, std::uint64_t misses,
                  std::uint64_t cycles_avoided);

/// Sets every per-layer metric under `layer_prefix` (e.g. "dse.") to zero:
/// the workload never calls into that layer. main() rejects a run that
/// leaves any listed metric unset, so a bypass is always explicit.
void BypassLayer(RunResult* out, const std::string& layer_prefix);

/// The per-layer metric names and units every traced run reports.
const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics();
/// The end-to-end metric names and units every untraced run reports.
const std::vector<std::pair<std::string, std::string>>& EndToEndMetrics();

RunResult RunOneshot(const Options& opt, Tracer& tracer);
RunResult RunDseSweep(const Options& opt, Tracer& tracer);
RunResult RunService(const Options& opt, Tracer& tracer);

}  // namespace perfbench
