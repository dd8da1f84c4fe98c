// Persistent simulation service (DESIGN.md §15): the engine behind the
// `swiftsimd` daemon. Repeated-launch workloads pay process cold start —
// trace generation, pre-passes, cache warming — on every CLI invocation,
// while the warm MemoCache path is 46–123× faster than cold simulation
// (results/BENCH_memo.json). This module keeps one process alive and
// shares the warm state across requests:
//
//   * an NDJSON request protocol (one JSON object per line; unix-socket
//     and stdin/stdout transports) accepting simulation jobs — workload,
//     scale/seed, launch iterations, SimLevel, preset + sparse INI
//     overrides;
//   * a fleet of worker lanes, one job each, feeding the shared
//     ThreadPool; every job runs the serial simulator (DESIGN.md §7);
//   * process-global warm state — MemoCache, ProfileCache and a
//     fingerprint-keyed built-trace cache (in-memory LRU over the on-disk
//     compact cache) — shared by all requests, with --memo-file
//     persistence on shutdown;
//   * request coalescing: concurrent jobs with an identical coalescing
//     key (trace fingerprint, iterations, canonical config hash,
//     SimLevel, wall budget) attach to the one in-flight simulation and
//     fan out its result;
//   * admission control: a bounded queue rejects overload with a typed
//     `queue_full` error instead of stalling clients;
//   * per-request isolation reusing the §11 outcome classification: a
//     hung job trips the wall-clock watchdog and returns a typed
//     `timeout`, a faulted job returns `sim_failed` — the daemon stays up.
//
// Results are bit-identical to one-shot CLI runs of the same (workload,
// config, SimLevel), including under coalescing and after memo-file
// reload: replay is exact at the analytical-memory level.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/bounded_queue.h"
#include "common/thread_pool.h"
#include "config/gpu_config.h"
#include "sim/model_select.h"
#include "trace/fingerprint.h"
#include "trace/kernel.h"

namespace swiftsim::service {

/// Typed protocol errors. Everything a client can cause has its own code
/// so callers can branch without string matching; `sim_timeout` and
/// `sim_failed` classify jobs that were admitted but did not complete at
/// the requested level (the §11 AppOutcome taxonomy over the wire).
enum class ErrorCode {
  kBadJson,          // line is not a JSON object
  kBadRequest,       // wrong/missing/unknown fields
  kUnknownOp,        // unrecognized "op"
  kUnknownWorkload,  // workload name not in the registry
  kBadConfig,        // unknown preset, unknown INI key, or bad value
  kOversized,        // line, scale or iterations beyond the limits
  kQueueFull,        // admission control rejected the job
  kShuttingDown,     // submitted after shutdown began
  kSimTimeout,       // watchdog tripped (wall clock or stall window)
  kSimFailed,        // simulation raised after exhausting retries
  kWorkerCrashed,    // supervised worker died with the job in flight and
                     // the per-job crash-retry budget is exhausted (§16)
};

const char* ToString(ErrorCode code);

/// Request-side resource caps (admission control against hostile or
/// runaway jobs; `oversized` rejections name the violated limit).
struct Limits {
  std::size_t max_line_bytes = 1 << 20;
  double max_scale = 2.0;
  unsigned max_iterations = 1024;
};

enum class Op { kSimulate, kPing, kStats, kShutdown };

/// One simulation job as carried by a `simulate` request.
struct JobRequest {
  std::string id;        // client correlation id, echoed in the response
  std::string workload;  // registry name, e.g. "BFS"
  double scale = 0.05;
  std::uint64_t seed = 0x5eed5eedULL;
  unsigned iterations = 1;  // RepeatLaunches count (iterative-solver shape)
  SimLevel level = SimLevel::kSwiftSimMemory;
  std::string preset;      // "" = generic GpuConfig; else presets.h name
  std::string config_ini;  // sparse INI overrides on top of the preset
  double timeout_sec = -1;  // per-request wall budget; <0 = daemon default
};

struct Request {
  Op op = Op::kSimulate;
  std::string id;  // for non-simulate ops (simulate carries job.id)
  JobRequest job;
};

/// One NDJSON response record. For `simulate`, `ok` means the job
/// completed at the requested level (possibly `degraded`); watchdog trips
/// and simulation failures come back with ok=false and a typed error, and
/// the daemon keeps serving.
struct Response {
  std::string id;
  bool ok = false;
  ErrorCode error = ErrorCode::kBadRequest;  // meaningful when !ok
  std::string error_message;
  std::string status;  // ok|degraded|timeout|failed|pong|stats|shutting_down
  Cycle cycles = 0;
  std::uint64_t instructions = 0;
  double sim_seconds = 0;    // wall time inside the simulator
  double wall_seconds = 0;   // submit → response (queue + run)
  double queue_seconds = 0;  // submit → job start
  bool coalesced = false;    // served by fanning out another job's result
  std::uint64_t memo_hits = 0;
  std::uint64_t memo_misses = 0;
  std::uint64_t memo_cycles_avoided = 0;
  std::uint64_t degrade_events = 0;
  std::string extra_json;  // pre-serialized payload ("stats" op); "" = none
};

/// Parses one NDJSON request line. Returns false and fills `error` /
/// `error_message` (and `id` when the line carried a usable one) on any
/// malformed input; never throws on client data.
bool ParseRequestLine(const std::string& line, const Limits& limits,
                      Request* out, ErrorCode* error,
                      std::string* error_message, std::string* id);

/// Serializes a response as one JSON line (no trailing newline).
std::string EncodeResponse(const Response& r);

/// Accepted SimLevel spellings: "silicon", "detailed", "basic", "memory"
/// plus the canonical ToString(SimLevel) forms. Throws SimError.
SimLevel SimLevelFromString(const std::string& s);

struct ServiceOptions {
  unsigned threads = 0;         // worker budget; 0 = hardware concurrency
  /// Expected concurrent jobs: the lane count, capped at the thread
  /// budget. 0 = the thread budget.
  unsigned max_concurrent = 0;
  unsigned queue_capacity = 64;  // admitted-but-unstarted job bound
  Limits limits;
  std::string memo_file;        // load on start, save (atomic) on Stop
  std::string trace_cache_dir;  // on-disk compact trace cache; "" = off
  std::uint64_t app_cache_entries = 64;  // in-memory built-trace LRU cap
  double default_timeout_sec = 0;  // per-request wall watchdog; 0 = off
  Cycle watchdog_cycles = 0;       // stall-window watchdog; 0 = off
  bool degrade_on_hang = false;    // analytical fallback on a hung kernel
  /// Caps on the process-global MemoCache (entries, bytes) and
  /// ProfileCache (entries), set once at construction; 0 = unbounded.
  std::uint64_t memo_max_entries = 0;
  std::uint64_t memo_max_bytes = 0;
  /// Supervision telemetry snapshot (DESIGN.md §16): filled in by the
  /// supervisor when it spawns this worker so the `stats` op can report
  /// restart/replay counters. Snapshots are as of worker start —
  /// the worker cannot observe the live supervisor across the process
  /// boundary.
  bool supervised = false;
  std::uint64_t sup_restarts = 0;
  std::uint64_t sup_jobs_replayed = 0;
  std::uint64_t sup_retries = 0;
};

/// Monotonic service counters (a snapshot; `stats` op serializes these
/// plus latency percentiles over the recent completion window).
struct ServiceStats {
  std::uint64_t accepted = 0;    // jobs admitted to the queue
  std::uint64_t coalesced = 0;   // jobs attached to an in-flight twin
  std::uint64_t rejected = 0;    // typed rejections (full/oversized/...)
  std::uint64_t completed = 0;   // ok or degraded
  std::uint64_t degraded = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t failures = 0;
  std::uint64_t app_cache_hits = 0;    // in-memory built-trace cache
  std::uint64_t app_cache_misses = 0;
  std::uint64_t disk_trace_hits = 0;   // misses served by the on-disk cache
  std::uint64_t memo_hits = 0;         // accumulated from job results
  std::uint64_t memo_misses = 0;
  std::uint64_t memo_cycles_avoided = 0;
};

class SimulationService {
 public:
  /// Invoked exactly once per admitted job, from a worker lane (followers
  /// of a coalesced job are all invoked by the lane that ran it).
  using Callback = std::function<void(const Response&)>;

  explicit SimulationService(ServiceOptions opt);
  ~SimulationService();  // Stop()s if still running
  SimulationService(const SimulationService&) = delete;
  SimulationService& operator=(const SimulationService&) = delete;

  /// Admission: on acceptance (true) `done` fires later from a worker
  /// lane; on rejection (false) `*rejection` carries the typed error and
  /// `done` is never invoked.
  bool Submit(const JobRequest& job, Callback done, Response* rejection);

  /// Blocking convenience for tools and tests.
  Response SubmitAndWait(const JobRequest& job);

  /// Stops admission, drains every queued job, joins the lanes and — when
  /// configured — persists the global MemoCache to `memo_file` via an
  /// atomic temp-file rename. Idempotent.
  void Stop();

  ServiceStats stats() const;
  /// The `stats` op payload: counters, lane shape, global cache sizes and
  /// p50/p95/p99 wall latency over the recent completion window.
  std::string StatsJson() const;

  const Limits& limits() const { return opt_.limits; }
  const ServiceOptions& options() const { return opt_; }

 private:
  struct PendingJob;
  struct CoalesceKey {
    Fingerprint trace_key;  // WorkloadBuildKey(workload, scale, seed)
    std::uint64_t cfg_hash = 0;
    std::uint32_t iterations = 1;
    std::uint8_t level = 0;
    /// The resolved wall budget: a follower must not inherit another
    /// job's budget (or its timeout).
    double wall_seconds = 0;

    bool operator<(const CoalesceKey& o) const {
      if (trace_key != o.trace_key) return trace_key < o.trace_key;
      if (cfg_hash != o.cfg_hash) return cfg_hash < o.cfg_hash;
      if (iterations != o.iterations) return iterations < o.iterations;
      if (level != o.level) return level < o.level;
      return wall_seconds < o.wall_seconds;
    }
  };

  // Percentile window: enough samples that p99 is meaningful, bounded so
  // a long-lived daemon's stats stay O(1).
  static constexpr std::size_t kLatencyWindow = 4096;

  /// One worker lane: pops admitted jobs and runs them to completion.
  /// Lanes are dedicated threads, NOT tasks on the shared pool — a lane
  /// parked in Pop would occupy a pool worker and take it from the
  /// parallel work running jobs submit to that same pool (trace builds).
  /// The pool carries the parallel work; lanes only carry the waiting.
  void LaneLoop();
  void ProcessJob(const std::shared_ptr<PendingJob>& job);
  void RunJob(PendingJob& job, Response* out);
  /// Fetches the built application for (workload, scale, seed) through
  /// the in-memory LRU and, beneath it, the on-disk compact trace cache.
  std::shared_ptr<const Application> GetApp(const JobRequest& job);
  void RecordLatency(double seconds);

  ServiceOptions opt_;
  unsigned num_lanes_ = 1;
  GpuConfig base_generic_;  // preset-free request base
  std::unique_ptr<BoundedQueue<std::shared_ptr<PendingJob>>> queue_;
  std::vector<std::thread> lanes_;

  std::mutex stop_mu_;  // serializes Stop() callers (drain + persist once)
  mutable std::mutex mu_;
  bool stopping_ = false;
  bool stopped_ = false;
  std::map<CoalesceKey, std::shared_ptr<PendingJob>> inflight_;
  ServiceStats stats_;
  // Recent wall latencies (ring) for the percentile report.
  std::vector<double> latencies_;
  std::size_t latency_next_ = 0;

  // In-memory built-trace cache: fingerprint-keyed, LRU-capped.
  struct AppSlot {
    std::shared_ptr<const Application> app;
    std::uint64_t last_use = 0;
  };
  mutable std::mutex app_mu_;
  std::map<Fingerprint, AppSlot> app_cache_;
  std::uint64_t app_clock_ = 0;
};

/// One serve loop over a line transport: reads NDJSON requests until EOF
/// or a `shutdown` op, submits jobs, and streams responses in completion
/// order (correlate by `id`). `write_line` is called under an internal
/// mutex — transports only need a raw line sink. Returns after every
/// admitted job's response has been written; on `shutdown` the service is
/// Stop()ed (drained + persisted) before the acknowledgement is written.
struct ServeResult {
  std::uint64_t handled = 0;  // request lines consumed
  bool shutdown = false;      // a shutdown op ended the loop
};

ServeResult ServeTransport(
    const std::function<bool(std::string*)>& read_line,
    const std::function<void(const std::string&)>& write_line,
    SimulationService& svc, bool stop_on_shutdown = true);

/// NDJSON loop over iostreams (the stdin/stdout daemon mode and tests).
ServeResult ServeLines(std::istream& in, std::ostream& out,
                       SimulationService& svc);

}  // namespace swiftsim::service
