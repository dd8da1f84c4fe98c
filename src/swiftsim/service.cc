#include "swiftsim/service.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <thread>
#include <utility>

#include "common/journal.h"
#include "common/json.h"
#include "common/status.h"
#include "common/stats.h"
#include "config/ini.h"
#include "config/presets.h"
#include "swiftsim/memo_cache.h"
#include "swiftsim/simulator.h"
#include "workloads/workload.h"

namespace swiftsim::service {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

}  // namespace

const char* ToString(ErrorCode code) {
  switch (code) {
    case ErrorCode::kBadJson:
      return "bad_json";
    case ErrorCode::kBadRequest:
      return "bad_request";
    case ErrorCode::kUnknownOp:
      return "unknown_op";
    case ErrorCode::kUnknownWorkload:
      return "unknown_workload";
    case ErrorCode::kBadConfig:
      return "bad_config";
    case ErrorCode::kOversized:
      return "oversized";
    case ErrorCode::kQueueFull:
      return "queue_full";
    case ErrorCode::kShuttingDown:
      return "shutting_down";
    case ErrorCode::kSimTimeout:
      return "timeout";
    case ErrorCode::kSimFailed:
      return "sim_failed";
    case ErrorCode::kWorkerCrashed:
      return "worker_crashed";
  }
  return "?";
}

SimLevel SimLevelFromString(const std::string& s) {
  if (s == "memory" || s == "swift-sim-memory") return SimLevel::kSwiftSimMemory;
  if (s == "basic" || s == "swift-sim-basic") return SimLevel::kSwiftSimBasic;
  if (s == "detailed" || s == "accel-sim-baseline") return SimLevel::kDetailed;
  if (s == "silicon") return SimLevel::kSilicon;
  throw SimError("unknown simulation level '" + s +
                 "' (expected memory|basic|detailed|silicon)");
}

bool ParseRequestLine(const std::string& line, const Limits& limits,
                      Request* out, ErrorCode* error,
                      std::string* error_message, std::string* id) {
  *out = Request{};
  id->clear();
  error_message->clear();

  if (line.size() > limits.max_line_bytes) {
    *error = ErrorCode::kOversized;
    std::ostringstream os;
    os << "request line of " << line.size() << " bytes exceeds the "
       << limits.max_line_bytes << "-byte limit";
    *error_message = os.str();
    return false;
  }

  JsonValue root;
  try {
    JsonLimits jl;
    jl.max_bytes = limits.max_line_bytes;
    root = ParseJson(line, jl);
  } catch (const SimError& e) {
    *error = ErrorCode::kBadJson;
    *error_message = e.what();
    return false;
  }
  if (!root.is_object()) {
    *error = ErrorCode::kBadJson;
    *error_message = "request must be a JSON object";
    return false;
  }

  // Recover the correlation id first so every later error can echo it.
  if (const JsonValue* v = root.Find("id"); v != nullptr && v->is_string()) {
    *id = v->AsString();
  }

  auto fail = [&](ErrorCode code, const std::string& msg) {
    *error = code;
    *error_message = msg;
    return false;
  };

  Request req;
  bool have_workload = false;
  try {
    for (const auto& [key, value] : root.Members()) {
      if (key == "op") {
        const std::string& op = value.AsString();
        if (op == "simulate") {
          req.op = Op::kSimulate;
        } else if (op == "ping") {
          req.op = Op::kPing;
        } else if (op == "stats") {
          req.op = Op::kStats;
        } else if (op == "shutdown") {
          req.op = Op::kShutdown;
        } else {
          return fail(ErrorCode::kUnknownOp, "unknown op '" + op + "'");
        }
      } else if (key == "id") {
        req.id = value.AsString();
        req.job.id = req.id;
      } else if (key == "workload") {
        req.job.workload = value.AsString();
        have_workload = true;
      } else if (key == "scale") {
        req.job.scale = value.AsDouble();
      } else if (key == "seed") {
        req.job.seed = value.AsUint();
      } else if (key == "iterations") {
        std::uint64_t it = value.AsUint();
        if (it == 0) return fail(ErrorCode::kBadRequest, "iterations must be >= 1");
        if (it > limits.max_iterations) {
          std::ostringstream os;
          os << "iterations " << it << " exceeds the limit of "
             << limits.max_iterations;
          return fail(ErrorCode::kOversized, os.str());
        }
        req.job.iterations = static_cast<unsigned>(it);
      } else if (key == "level") {
        req.job.level = SimLevelFromString(value.AsString());
      } else if (key == "preset") {
        req.job.preset = value.AsString();
      } else if (key == "config") {
        req.job.config_ini = value.AsString();
      } else if (key == "timeout_sec") {
        double t = value.AsDouble();
        if (t < 0) return fail(ErrorCode::kBadRequest, "timeout_sec must be >= 0");
        req.job.timeout_sec = t;
      } else {
        return fail(ErrorCode::kBadRequest, "unknown field '" + key + "'");
      }
    }
  } catch (const SimError& e) {
    // A typed-accessor mismatch (string where a number belongs, a level
    // name outside the vocabulary) is the client's malformed request.
    return fail(ErrorCode::kBadRequest, e.what());
  }

  if (req.op == Op::kSimulate) {
    if (!have_workload || req.job.workload.empty()) {
      return fail(ErrorCode::kBadRequest, "simulate requires a 'workload'");
    }
    if (!(req.job.scale > 0)) {
      return fail(ErrorCode::kBadRequest, "scale must be > 0");
    }
    if (req.job.scale > limits.max_scale) {
      std::ostringstream os;
      os << "scale " << req.job.scale << " exceeds the limit of "
         << limits.max_scale;
      return fail(ErrorCode::kOversized, os.str());
    }
  }

  *out = std::move(req);
  return true;
}

std::string EncodeResponse(const Response& r) {
  JsonWriter w;
  w.BeginObject();
  w.Key("id").String(r.id);
  w.Key("ok").Bool(r.ok);
  if (!r.ok) {
    w.Key("error").String(ToString(r.error));
    w.Key("message").String(r.error_message);
    if (!r.status.empty()) w.Key("status").String(r.status);
    if (r.wall_seconds > 0) w.Key("wall_seconds").Double(r.wall_seconds);
  } else {
    w.Key("status").String(r.status);
    if (r.status == "ok" || r.status == "degraded") {
      w.Key("cycles").Uint(r.cycles);
      w.Key("instructions").Uint(r.instructions);
      w.Key("sim_seconds").Double(r.sim_seconds);
      w.Key("wall_seconds").Double(r.wall_seconds);
      w.Key("queue_seconds").Double(r.queue_seconds);
      w.Key("memo_hits").Uint(r.memo_hits);
      w.Key("memo_misses").Uint(r.memo_misses);
      w.Key("memo_cycles_avoided").Uint(r.memo_cycles_avoided);
      w.Key("degrade_events").Uint(r.degrade_events);
    }
    if (!r.extra_json.empty()) w.Key("stats").Raw(r.extra_json);
  }
  w.EndObject();
  return w.str();
}

// ---------------------------------------------------------------------------
// SimulationService
// ---------------------------------------------------------------------------

struct SimulationService::PendingJob {
  JobRequest job;
  GpuConfig cfg;
  RunOptions options;
  Callback done;
  Clock::time_point submit;
};

SimulationService::SimulationService(ServiceOptions opt) : opt_(std::move(opt)) {
  unsigned threads = opt_.threads != 0 ? opt_.threads
                                       : std::max(1u, std::thread::hardware_concurrency());
  // One lane per expected concurrent job, never more than the budget.
  num_lanes_ = std::min(
      opt_.max_concurrent != 0 ? opt_.max_concurrent : threads, threads);
  queue_ = std::make_unique<BoundedQueue<std::shared_ptr<PendingJob>>>(
      opt_.queue_capacity);
  latencies_.reserve(kLatencyWindow);

  if (opt_.memo_max_entries != 0 || opt_.memo_max_bytes != 0) {
    MemoCache::Global().SetLimits(opt_.memo_max_entries, opt_.memo_max_bytes);
    if (opt_.memo_max_entries != 0) {
      ProfileCache::Global().SetMaxEntries(opt_.memo_max_entries);
    }
  }
  if (!opt_.memo_file.empty()) {
    std::ifstream probe(opt_.memo_file);
    if (probe.good()) {
      try {
        MemoCache::Global().LoadFromFile(opt_.memo_file);
      } catch (const SimError& e) {
        // A corrupt advisory cache is a cold start, not a startup failure:
        // quarantine it and serve from an empty cache (§16).
        QuarantineCorruptFile(opt_.memo_file, e.what());
      }
    }
  }

  // Lanes are dedicated threads that only wait and drive; the worker
  // budget lives on the shared pool, where every lane's nested parallel
  // work (trace builds) executes.
  ThreadPool::Shared().EnsureWorkers(num_lanes_);
  lanes_.reserve(num_lanes_);
  for (unsigned i = 0; i < num_lanes_; ++i) {
    lanes_.emplace_back([this] { LaneLoop(); });
  }
}

SimulationService::~SimulationService() {
  try {
    Stop();
  } catch (...) {
    // Destruction must not throw; a failed memo-file save is lost cache
    // warmth, not lost results.
  }
}

bool SimulationService::Submit(const JobRequest& job, Callback done,
                               Response* rejection) {
  auto reject = [&](ErrorCode code, const std::string& msg) {
    rejection->id = job.id;
    rejection->ok = false;
    rejection->error = code;
    rejection->error_message = msg;
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.rejected;
    return false;
  };

  // Limits apply to direct API callers too, not just the NDJSON path.
  if (!(job.scale > 0) || job.scale > opt_.limits.max_scale) {
    return reject(ErrorCode::kOversized, "scale out of range");
  }
  if (job.iterations == 0 || job.iterations > opt_.limits.max_iterations) {
    return reject(ErrorCode::kOversized, "iterations out of range");
  }
  try {
    WorkloadByName(job.workload);
  } catch (const SimError& e) {
    return reject(ErrorCode::kUnknownWorkload, e.what());
  }

  // Resolve preset + sparse INI overrides into the machine this job
  // simulates. FromIni ignores unknown keys, so they are rejected here: a typo
  // would otherwise simulate the default silently. Run settings are not
  // GpuConfig keys, so a client cannot reach the daemon's caches, dump
  // directories or watchdog through its config.
  GpuConfig cfg;
  try {
    cfg = job.preset.empty() ? GpuConfig() : PresetByName(job.preset);
    if (!job.config_ini.empty()) {
      IniFile ini = IniFile::ParseString(job.config_ini);
      for (const std::string& key : ini.Keys()) {
        if (GpuConfig::IniKeys().count(key) == 0) {
          throw SimError("unknown config key '" + key + "'");
        }
      }
      cfg = GpuConfig::FromIni(ini, cfg);
    }
  } catch (const SimError& e) {
    return reject(ErrorCode::kBadConfig, e.what());
  }
  auto pending = std::make_shared<PendingJob>();
  pending->job = job;
  pending->cfg = std::move(cfg);
  // The run settings come from the daemon, except the request's own wall
  // budget. Degradation routes through the resilient driver, which
  // bypasses the memoized fast path, so it stays a daemon opt-in.
  RunOptions& options = pending->options;
  options.model.watchdog.stall_cycles = opt_.watchdog_cycles;
  options.model.watchdog.wall_seconds =
      job.timeout_sec >= 0 ? job.timeout_sec : opt_.default_timeout_sec;
  options.degrade_on_hang = opt_.degrade_on_hang;
  pending->done = std::move(done);
  pending->submit = Clock::now();

  std::lock_guard<std::mutex> lock(mu_);
  if (stopping_) {
    rejection->id = job.id;
    rejection->ok = false;
    rejection->error = ErrorCode::kShuttingDown;
    rejection->error_message = "service is shutting down";
    ++stats_.rejected;
    return false;
  }
  if (!queue_->TryPush(std::move(pending))) {
    rejection->id = job.id;
    rejection->ok = false;
    rejection->error = ErrorCode::kQueueFull;
    std::ostringstream os;
    os << "admission queue full (" << queue_->capacity() << " jobs)";
    rejection->error_message = os.str();
    ++stats_.rejected;
    return false;
  }
  ++stats_.accepted;
  return true;
}

Response SimulationService::SubmitAndWait(const JobRequest& job) {
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  Response result;
  Response rejection;
  bool admitted = Submit(
      job,
      [&](const Response& r) {
        std::lock_guard<std::mutex> lock(mu);
        result = r;
        done = true;
        cv.notify_all();
      },
      &rejection);
  if (!admitted) return rejection;
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&] { return done; });
  return result;
}

void SimulationService::LaneLoop() {
  std::shared_ptr<PendingJob> job;
  while (queue_->Pop(&job)) {
    ProcessJob(job);
    job.reset();
  }
}

void SimulationService::ProcessJob(const std::shared_ptr<PendingJob>& job) {
  const Clock::time_point start = Clock::now();
  Response r;
  RunJob(*job, &r);
  r.id = job->job.id;
  r.wall_seconds = SecondsBetween(job->submit, Clock::now());
  r.queue_seconds = SecondsBetween(job->submit, start);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (r.ok) {
      ++stats_.completed;
      if (r.status == "degraded") ++stats_.degraded;
    } else if (r.error == ErrorCode::kSimTimeout) {
      ++stats_.timeouts;
    } else {
      ++stats_.failures;
    }
    stats_.memo_hits += r.memo_hits;
    stats_.memo_misses += r.memo_misses;
    stats_.memo_cycles_avoided += r.memo_cycles_avoided;
    RecordLatency(r.wall_seconds);
  }
  try {
    job->done(r);
  } catch (...) {
    // A client callback failure must not take down the lane.
  }
}

void SimulationService::RunJob(PendingJob& job, Response* out) {
  std::shared_ptr<const Application> app;
  try {
    app = GetApp(job.job);
  } catch (const std::exception& e) {
    out->ok = false;
    out->error = ErrorCode::kSimFailed;
    out->error_message = e.what();
    out->status = "failed";
    return;
  }
  // A one-iteration job runs the cached app itself, uncopied.
  Application repeated;
  if (job.job.iterations > 1) {
    repeated = RepeatLaunches(*app, job.job.iterations);
  }
  const RunOutcome run = Run({job.job.iterations > 1 ? repeated : *app,
                              job.cfg, job.job.level, job.options});
  const AppOutcome& outcome = run.outcome;
  out->ok = run.error == nullptr;
  if (!out->ok) {
    // The wire reports every hang, not only a spent wall budget, as a
    // timeout.
    const bool timeout = outcome.hang || outcome.status == AppStatus::kTimedOut;
    out->error = timeout ? ErrorCode::kSimTimeout : ErrorCode::kSimFailed;
    out->error_message = outcome.error;
    out->status = timeout ? "timeout" : "failed";
    return;
  }
  const SimResult& res = run.result;
  out->status = ToString(outcome.status);
  out->cycles = res.total_cycles;
  out->instructions = res.instructions;
  out->sim_seconds = res.wall_seconds;
  out->memo_hits = res.Metric("memo.hits");
  out->memo_misses = res.Metric("memo.misses");
  out->memo_cycles_avoided = res.Metric("memo.replayed_cycles");
  out->degrade_events = res.degrades.size();
}

std::shared_ptr<const Application> SimulationService::GetApp(
    const JobRequest& job) {
  Fingerprint key = WorkloadBuildKey(job.workload, {job.scale, job.seed});
  {
    std::lock_guard<std::mutex> lock(app_mu_);
    if (auto it = app_cache_.find(key); it != app_cache_.end()) {
      it->second.last_use = ++app_clock_;
      std::shared_ptr<const Application> app = it->second.app;
      std::lock_guard<std::mutex> slock(mu_);
      ++stats_.app_cache_hits;
      return app;
    }
  }

  bool disk_hit = false;
  TraceBuildOptions build;
  build.cache_dir = opt_.trace_cache_dir;
  Application built = BuildWorkloadCached(job.workload, {job.scale, job.seed},
                                          build, &disk_hit);
  // The LRU keeps up to app_cache_entries apps resident; drop their
  // generators' growth slack (30-40%) while the traces are still private.
  for (const auto& kernel : built.kernels) kernel->ShrinkToFit();
  auto app = std::make_shared<const Application>(std::move(built));
  {
    std::lock_guard<std::mutex> lock(app_mu_);
    AppSlot& slot = app_cache_[key];
    slot.app = app;
    slot.last_use = ++app_clock_;
    while (opt_.app_cache_entries != 0 &&
           app_cache_.size() > opt_.app_cache_entries) {
      auto victim = app_cache_.begin();
      for (auto it = app_cache_.begin(); it != app_cache_.end(); ++it) {
        if (it->second.last_use < victim->second.last_use) victim = it;
      }
      app_cache_.erase(victim);
    }
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.app_cache_misses;
    if (disk_hit) ++stats_.disk_trace_hits;
  }
  return app;
}

void SimulationService::RecordLatency(double seconds) {
  if (latencies_.size() < kLatencyWindow) {
    latencies_.push_back(seconds);
  } else {
    latencies_[latency_next_] = seconds;
  }
  latency_next_ = (latency_next_ + 1) % kLatencyWindow;
}

void SimulationService::Stop() {
  std::lock_guard<std::mutex> stop_lock(stop_mu_);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopped_) return;
    stopping_ = true;
  }
  queue_->Close();
  for (std::thread& lane : lanes_) {
    if (lane.joinable()) lane.join();
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopped_ = true;
  }
  if (!opt_.memo_file.empty()) {
    MemoCache::Global().SaveToFile(opt_.memo_file);
  }
}

ServiceStats SimulationService::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

std::string SimulationService::StatsJson() const {
  ServiceStats s;
  std::vector<double> lat;
  {
    std::lock_guard<std::mutex> lock(mu_);
    s = stats_;
    lat = latencies_;
  }
  JsonWriter w;
  w.BeginObject();
  w.Key("accepted").Uint(s.accepted);
  w.Key("rejected").Uint(s.rejected);
  w.Key("completed").Uint(s.completed);
  w.Key("degraded").Uint(s.degraded);
  w.Key("timeouts").Uint(s.timeouts);
  w.Key("failures").Uint(s.failures);
  w.Key("app_cache_hits").Uint(s.app_cache_hits);
  w.Key("app_cache_misses").Uint(s.app_cache_misses);
  w.Key("disk_trace_hits").Uint(s.disk_trace_hits);
  w.Key("memo_hits").Uint(s.memo_hits);
  w.Key("memo_misses").Uint(s.memo_misses);
  w.Key("memo_cycles_avoided").Uint(s.memo_cycles_avoided);
  // Supervision counters (§16): snapshots injected at worker spawn; all
  // zero when the daemon runs unsupervised.
  w.Key("supervised").Bool(opt_.supervised);
  w.Key("restarts").Uint(opt_.sup_restarts);
  w.Key("jobs_replayed").Uint(opt_.sup_jobs_replayed);
  w.Key("retries").Uint(opt_.sup_retries);
  w.Key("app_lanes").Uint(num_lanes_);
  w.Key("queue_capacity").Uint(queue_->capacity());
  w.Key("queue_depth").Uint(queue_->size());
  w.Key("memo_cache_entries").Uint(MemoCache::Global().size());
  w.Key("memo_cache_bytes").Uint(MemoCache::Global().bytes());
  w.Key("profile_cache_entries").Uint(ProfileCache::Global().size());
  w.Key("latency_samples").Uint(lat.size());
  if (!lat.empty()) {
    w.Key("latency_p50_sec").Double(Quantile(lat, 0.50));
    w.Key("latency_p95_sec").Double(Quantile(lat, 0.95));
    w.Key("latency_p99_sec").Double(Quantile(lat, 0.99));
  }
  w.EndObject();
  return w.str();
}

// ---------------------------------------------------------------------------
// Transports
// ---------------------------------------------------------------------------

ServeResult ServeTransport(
    const std::function<bool(std::string*)>& read_line,
    const std::function<void(const std::string&)>& write_line,
    SimulationService& svc, bool stop_on_shutdown) {
  // Completion callbacks fire on worker lanes; the shared block serializes
  // writes and lets the loop drain every outstanding response before it
  // returns (the transport's streams outlive the loop, nothing else).
  struct Shared {
    std::mutex mu;
    std::condition_variable cv;
    std::function<void(const std::string&)> write;
    std::uint64_t outstanding = 0;

    void Emit(const std::string& line) {
      std::lock_guard<std::mutex> lock(mu);
      write(line);
    }
    void Done() {
      {
        std::lock_guard<std::mutex> lock(mu);
        --outstanding;
      }
      cv.notify_all();
    }
    void Drain() {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return outstanding == 0; });
    }
  };
  auto sh = std::make_shared<Shared>();
  sh->write = write_line;

  ServeResult result;
  std::string line;
  while (read_line(&line)) {
    ++result.handled;
    if (line.empty()) continue;

    Request req;
    ErrorCode err;
    std::string msg;
    std::string id;
    if (!ParseRequestLine(line, svc.limits(), &req, &err, &msg, &id)) {
      Response r;
      r.id = id;
      r.ok = false;
      r.error = err;
      r.error_message = msg;
      sh->Emit(EncodeResponse(r));
      continue;
    }

    if (req.op == Op::kPing) {
      Response r;
      r.id = req.id;
      r.ok = true;
      r.status = "pong";
      sh->Emit(EncodeResponse(r));
      continue;
    }
    if (req.op == Op::kStats) {
      Response r;
      r.id = req.id;
      r.ok = true;
      r.status = "stats";
      r.extra_json = svc.StatsJson();
      sh->Emit(EncodeResponse(r));
      continue;
    }
    if (req.op == Op::kShutdown) {
      // Stop() drains every admitted job (their responses stream out while
      // it runs); the acknowledgement is written last so a client reading
      // until "shutting_down" sees every result.
      if (stop_on_shutdown) svc.Stop();
      sh->Drain();
      Response r;
      r.id = req.id;
      r.ok = true;
      r.status = "shutting_down";
      sh->Emit(EncodeResponse(r));
      result.shutdown = true;
      return result;
    }

    {
      std::lock_guard<std::mutex> lock(sh->mu);
      ++sh->outstanding;
    }
    Response rejection;
    bool admitted = svc.Submit(
        req.job,
        [sh](const Response& r) {
          sh->Emit(EncodeResponse(r));
          sh->Done();
        },
        &rejection);
    if (!admitted) {
      sh->Done();
      sh->Emit(EncodeResponse(rejection));
    }
  }
  sh->Drain();
  return result;
}

ServeResult ServeLines(std::istream& in, std::ostream& out,
                       SimulationService& svc) {
  return ServeTransport(
      [&in](std::string* line) {
        return static_cast<bool>(std::getline(in, *line));
      },
      [&out](const std::string& line) {
        out << line << '\n';
        out.flush();
      },
      svc);
}

}  // namespace swiftsim::service
