// `service`: a real `swiftsimd` is forked with --trace-cache and
// --memo-file in a fresh directory and driven over NDJSON on its
// stdin/stdout. A closed loop keeps `threads` requests outstanding: each
// response releases the next request. Requests are a seeded, skewed draw
// over a job catalogue (workload x seed x iterations x level x INI
// override) taken from bench/bench_service.cpp: its default applications,
// scale and launches per job at the memory level, under the default
// configuration and under its coalescing-burst override. Popular jobs are
// replayed by the warm caches; one request in kNeverSeenEvery names a job
// no earlier request named, which the daemon simulates cold.
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <numeric>
#include <stdexcept>

#include "common/json.h"
#include "common/stats.h"
#include "common/thread_pool.h"
#include "config/ini.h"
#include "harness.h"
#include "swiftsim/simulator.h"
#include "workloads/workload.h"

namespace perfbench {
namespace {

using swiftsim::Application;
using swiftsim::GpuConfig;
using swiftsim::JsonValue;
using swiftsim::SimLevel;

constexpr unsigned kSetupEvery = 6;  // segments per extra daemon set-up

// The job shape of bench/bench_service.cpp: its default --apps, its
// default scale, kIterations launches per job, the memory level (the only
// level it requests) and, besides the default configuration, the
// never-seen override of its coalescing burst.
const char* const kApps[] = {"BFS", "NW", "HOTSPOT", "GEMM"};
constexpr double kScale = 0.05;
constexpr unsigned kIterations = 8;
const char* const kConfigs[] = {"", "[gpu]\nnum_sms = 35\n"};
// bench_service submits each job cold once and then warm --repeats (4)
// times: one request in five is a first submission.
constexpr unsigned kNeverSeenEvery = 5;
// Popularity over the catalogue is Zipf with this exponent. No request
// sample in the repository fixes it; 1 is the classic Zipf law, and this
// is an assumption to re-base once a recorded request log exists.
constexpr double kZipfExponent = 1.0;
constexpr double kSegmentSeconds = 1.0;  // tracing alternates per segment
constexpr double kReadTimeoutSeconds = 60;
constexpr unsigned kRequestTrackBase = 1000;  // trace-event tid of slot 0

struct Job {
  std::string workload;
  double scale = kScale;
  std::uint64_t seed = 0;
  unsigned iterations = kIterations;
  std::string config_ini;  // sparse override, "" = generic GPU

  std::string Key() const {
    return workload + "/" + std::to_string(scale) + "/" +
           std::to_string(seed) + "/" + std::to_string(iterations) + "/" +
           config_ini;
  }
};

/// The popular catalogue, most popular first: every application under
/// every configuration. The run seed picks the trace seeds, so every seed
/// has the same mix of job shapes.
std::vector<Job> PopularJobs(std::uint64_t seed) {
  std::vector<Job> jobs;
  for (const char* config : kConfigs) {
    for (std::size_t a = 0; a < std::size(kApps); ++a) {
      Job j;
      j.workload = kApps[a];
      j.seed = DeriveSeed(seed, 1000 + a);
      j.config_ini = config;
      jobs.push_back(j);
    }
  }
  return jobs;
}

/// The n-th never-seen job: a popular job's shape with a fresh trace seed,
/// so no cache holds it.
Job NeverSeenJob(std::uint64_t seed, std::uint64_t n) {
  Job j;
  j.workload = kApps[n % std::size(kApps)];
  j.seed = DeriveSeed(seed, 1000000 + n);
  j.config_ini = kConfigs[(n / std::size(kApps)) % std::size(kConfigs)];
  return j;
}

std::string EncodeRequest(const std::string& id, const Job& j) {
  swiftsim::JsonWriter w;
  w.BeginObject();
  w.Key("op").String("simulate");
  w.Key("id").String(id);
  w.Key("workload").String(j.workload);
  w.Key("scale").Double(j.scale);
  w.Key("seed").Uint(j.seed);
  w.Key("iterations").Uint(j.iterations);
  w.Key("level").String("memory");
  if (!j.config_ini.empty()) w.Key("config").String(j.config_ini);
  w.EndObject();
  return w.str();
}

/// In-process one-shot of a job: what a CLI run of it would answer, with
/// the default configuration's memo (this process's own, apart from every
/// cache the daemon holds), as bench/bench_service.cpp checks it.
swiftsim::SimResult OneShot(const Job& j) {
  GpuConfig cfg;
  if (!j.config_ini.empty()) {
    cfg = GpuConfig::FromIni(swiftsim::IniFile::ParseString(j.config_ini), cfg);
  }
  const Application app = swiftsim::RepeatLaunches(
      swiftsim::BuildWorkload(j.workload, {j.scale, j.seed}), j.iterations);
  return swiftsim::RunSimulation(app, cfg, SimLevel::kSwiftSimMemory);
}

/// A swiftsimd child process on stdin/stdout pipes. The destructor kills
/// and reaps it on every path.
class Daemon {
 public:
  Daemon(const std::string& binary, const std::vector<std::string>& args) {
    int to_child[2];
    int from_child[2];
    if (::pipe(to_child) != 0 || ::pipe(from_child) != 0) {
      throw std::runtime_error("pipe() failed");
    }
    pid_ = ::fork();
    if (pid_ < 0) throw std::runtime_error("fork() failed");
    if (pid_ == 0) {
      ::dup2(to_child[0], STDIN_FILENO);
      ::dup2(from_child[1], STDOUT_FILENO);
      ::close(to_child[0]);
      ::close(to_child[1]);
      ::close(from_child[0]);
      ::close(from_child[1]);
      std::vector<char*> argv;
      argv.push_back(const_cast<char*>(binary.c_str()));
      for (const std::string& a : args) {
        argv.push_back(const_cast<char*>(a.c_str()));
      }
      argv.push_back(nullptr);
      ::execv(binary.c_str(), argv.data());
      std::perror("perfbench: execv swiftsimd");
      std::_Exit(127);
    }
    ::close(to_child[0]);
    ::close(from_child[1]);
    in_fd_ = to_child[1];
    out_fd_ = from_child[0];
  }

  ~Daemon() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      int status = 0;
      ::waitpid(pid_, &status, 0);
    }
    if (in_fd_ >= 0) ::close(in_fd_);
    if (out_fd_ >= 0) ::close(out_fd_);
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  pid_t pid() const { return pid_; }

  void Send(const std::string& line) {
    const std::string framed = line + "\n";
    std::size_t done = 0;
    while (done < framed.size()) {
      const ssize_t n =
          ::write(in_fd_, framed.data() + done, framed.size() - done);
      if (n <= 0) throw std::runtime_error("write to swiftsimd failed");
      done += static_cast<std::size_t>(n);
    }
  }

  /// Next response line; throws when the daemon closes its output or stays
  /// silent past the read timeout.
  std::string ReadLine() {
    for (;;) {
      const std::size_t nl = buffer_.find('\n', scanned_);
      if (nl != std::string::npos) {
        std::string line = buffer_.substr(0, nl);
        buffer_.erase(0, nl + 1);
        scanned_ = 0;
        return line;
      }
      scanned_ = buffer_.size();
      pollfd p{out_fd_, POLLIN, 0};
      const int ready =
          ::poll(&p, 1, static_cast<int>(kReadTimeoutSeconds * 1000));
      if (ready <= 0) throw std::runtime_error("swiftsimd did not answer in time");
      char chunk[65536];
      const ssize_t n = ::read(out_fd_, chunk, sizeof chunk);
      if (n <= 0) throw std::runtime_error("swiftsimd closed its output");
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

  /// Sends `line` and reads until the response with `id` arrives.
  JsonValue Call(const std::string& line, const std::string& id) {
    Send(line);
    for (;;) {
      JsonValue v = swiftsim::ParseJson(ReadLine());
      const JsonValue* got = v.Find("id");
      if (got != nullptr && got->is_string() && got->AsString() == id) return v;
    }
  }

  /// Graceful stop: shutdown op, then reap. Returns the exit status.
  int Shutdown() {
    Call(R"({"op":"shutdown","id":"shutdown"})", "shutdown");
    ::close(in_fd_);
    in_fd_ = -1;
    int status = 0;
    ::waitpid(pid_, &status, 0);
    pid_ = -1;
    return WIFEXITED(status) ? WEXITSTATUS(status) : 128;
  }

 private:
  pid_t pid_ = -1;
  int in_fd_ = -1;
  int out_fd_ = -1;
  std::string buffer_;
  std::size_t scanned_ = 0;
};

struct Reply {
  bool ok = false;
  std::string error;
  swiftsim::Cycle cycles = 0;
  std::uint64_t instructions = 0;
  double wall_seconds = 0;  // daemon: submit -> response
  double queue_seconds = 0;
  double sim_seconds = 0;
  bool coalesced = false;
};

Reply DecodeReply(const JsonValue& v) {
  Reply r;
  const auto num = [&](const char* key) {
    const JsonValue* f = v.Find(key);
    return f != nullptr && f->is_number() ? f->AsDouble() : 0.0;
  };
  if (const JsonValue* f = v.Find("ok")) r.ok = f->AsBool();
  if (const JsonValue* f = v.Find("error")) r.error = f->AsString();
  if (const JsonValue* f = v.Find("cycles")) r.cycles = f->AsUint();
  if (const JsonValue* f = v.Find("instructions")) r.instructions = f->AsUint();
  if (const JsonValue* f = v.Find("coalesced")) r.coalesced = f->AsBool();
  r.wall_seconds = num("wall_seconds");
  r.queue_seconds = num("queue_seconds");
  r.sim_seconds = num("sim_seconds");
  return r;
}

/// One answered request, as the client saw it.
struct Sample {
  std::size_t job = 0;  // index into the run's job table
  double latency = 0;   // client send -> client receive
  Reply reply;
};

/// Closed loop over `next_job`: keeps `depth` requests outstanding until
/// `keep_going()` turns false, then drains. Returns one sample per request.
template <typename NextJob, typename KeepGoing>
std::vector<Sample> ClosedLoop(Daemon& d, unsigned depth,
                               const std::vector<Job>& jobs, Tracer& tracer,
                               std::uint64_t parent, NextJob&& next_job,
                               KeepGoing&& keep_going, std::uint64_t* next_id) {
  // Each outstanding request holds one of `depth` slots; a slot is its
  // track (tid) in the trace-event file, so overlapping requests never
  // share one.
  struct Outstanding {
    std::size_t job;
    Clock::time_point sent;
    bool traced;
    unsigned slot;
  };
  std::map<std::string, Outstanding> pending;
  std::vector<Sample> samples;
  const auto send = [&](unsigned slot) {
    const std::size_t j = next_job();
    const std::string id = "r" + std::to_string((*next_id)++);
    pending[id] = {j, Clock::now(), tracer.enabled(), slot};
    d.Send(EncodeRequest(id, jobs[j]));
  };
  for (unsigned i = 0; i < depth && keep_going(); ++i) send(i);
  while (!pending.empty()) {
    const JsonValue v = swiftsim::ParseJson(d.ReadLine());
    const Clock::time_point now = Clock::now();
    const JsonValue* idv = v.Find("id");
    if (idv == nullptr || !idv->is_string()) {
      throw std::runtime_error("swiftsimd response without an id");
    }
    auto it = pending.find(idv->AsString());
    if (it == pending.end()) throw std::runtime_error("unexpected response id");
    const Outstanding o = it->second;
    pending.erase(it);
    Sample s;
    s.job = o.job;
    s.latency = Seconds(o.sent, now);
    s.reply = DecodeReply(v);
    if (o.traced) {
      tracer.Record(tracer.NextId(), "service.request", parent, o.sent, now,
                    kRequestTrackBase + o.slot);
    }
    samples.push_back(std::move(s));
    if (keep_going()) send(o.slot);
  }
  return samples;
}

}  // namespace

RunResult RunService(const Options& opt, Tracer& tracer) {
  RunResult out;
  const unsigned depth = opt.threads;  // outstanding requests, <= nproc
  const std::vector<Job> popular = PopularJobs(opt.seed);
  std::vector<Job> jobs = popular;  // grows with never-seen jobs
  std::uint64_t next_id = 0;

  const auto daemon_args = [&](const std::string& dir) {
    std::filesystem::create_directories(dir + "/traces");
    return std::vector<std::string>{
        "--threads",     std::to_string(opt.threads),
        "--max-concurrent", std::to_string(depth),
        "--trace-cache", dir + "/traces",
        "--memo-file",   dir + "/memo.txt"};
  };

  // Set-up: spawn -> first pong, then one warm-up pass over the popular
  // jobs. The first daemon serves the timed loop; every kSetupEvery-th
  // segment boundary sets up and stops one more, so the median (setup_s)
  // samples the host across the whole run like every other timing.
  std::vector<double> setup;
  std::vector<Sample> warm_samples;  // checked like every other response
  const auto set_up = [&]() {
    const std::string dir =
        opt.tmp_dir + "/daemon" + std::to_string(setup.size());
    Span s(tracer, "service.setup");
    auto d = std::make_unique<Daemon>(opt.swiftsimd, daemon_args(dir));
    const JsonValue pong = d->Call(R"({"op":"ping","id":"ping"})", "ping");
    const JsonValue* status = pong.Find("status");
    if (status == nullptr || status->AsString() != "pong") {
      throw std::runtime_error("swiftsimd did not answer ping with pong");
    }
    std::size_t warm = 0;
    const std::vector<Sample> warmed = ClosedLoop(
        *d, depth, jobs, tracer, s.id(), [&] { return warm++; },
        [&] { return warm < popular.size(); }, &next_id);
    setup.push_back(s.End());
    warm_samples.insert(warm_samples.end(), warmed.begin(), warmed.end());
    return d;
  };
  tracer.set_enabled(opt.trace);
  std::unique_ptr<Daemon> daemon = set_up();
  tracer.set_enabled(false);

  // The timed closed loop, in segments; tracing alternates per segment.
  std::vector<double> weights;
  for (std::size_t k = 0; k < popular.size(); ++k) {
    weights.push_back(1.0 / std::pow(static_cast<double>(k + 1), kZipfExponent));
  }
  const double total_weight =
      std::accumulate(weights.begin(), weights.end(), 0.0);
  std::uint64_t draws = 0;
  std::uint64_t never_seen = 0;
  const auto next_job = [&]() -> std::size_t {
    const std::uint64_t n = draws++;
    if (n % kNeverSeenEvery == kNeverSeenEvery - 1) {
      jobs.push_back(NeverSeenJob(opt.seed, never_seen++));
      return jobs.size() - 1;
    }
    double u = static_cast<double>(DeriveSeed(opt.seed, 5000000 + n) >> 11) *
               0x1.0p-53 * total_weight;
    for (std::size_t k = 0; k < weights.size(); ++k) {
      if (u < weights[k]) return k;
      u -= weights[k];
    }
    return weights.size() - 1;
  };

  // Throughputs are medians over segments, like every other timing.
  std::vector<Sample> samples;
  Rounds segments;  // per-segment median latency
  std::vector<double> seg_ips, seg_rps;
  unsigned segment = 0;
  RunRounds(opt, tracer, opt.seconds, [&](bool traced) {
    if (++segment % kSetupEvery == 0) {
      if (set_up()->Shutdown() != 0) {
        out.Check(false, "a set-up swiftsimd exited with a non-zero status");
      }
    }
    Span seg(tracer, "service.segment");
    const Clock::time_point seg_start = Clock::now();
    std::vector<Sample> got = ClosedLoop(
        *daemon, depth, jobs, tracer, seg.id(), next_job,
        [&] { return Seconds(seg_start, Clock::now()) < kSegmentSeconds; },
        &next_id);
    const double wall = seg.End();
    std::vector<double> lat;
    double instrs = 0;
    for (const Sample& s : got) {
      lat.push_back(s.latency);
      instrs += static_cast<double>(s.reply.instructions);
    }
    segments.Add(Median(lat), traced);
    seg_ips.push_back(instrs / wall);
    seg_rps.push_back(static_cast<double>(got.size()) / wall);
    samples.insert(samples.end(), got.begin(), got.end());
  });

  const JsonValue stats = daemon->Call(R"({"op":"stats","id":"stats"})", "stats");
  const double daemon_rss = PeakRssMb(std::to_string(daemon->pid()));
  if (daemon->Shutdown() != 0) {
    out.Check(false, "swiftsimd exited with a non-zero status");
  }
  daemon.reset();

  // Every response against an in-process one-shot of its job, outside the
  // timed window; the references run on the same worker budget.
  tracer.set_enabled(opt.trace);
  ResetGlobalCaches();
  std::vector<swiftsim::SimResult> refs(jobs.size());
  {
    Span s(tracer, "reference.service");
    swiftsim::ThreadPool::Shared().ParallelFor(
        jobs.size(), opt.threads,
        [&](std::size_t i) { refs[i] = OneShot(jobs[i]); });
  }
  MeasureAccuracy(&out, opt.threads, tracer);
  // The catalogue's applications (the first popular jobs): the per-layer
  // build and trace figures.
  std::vector<AppSpec> specs;
  for (std::size_t k = 0; k < std::size(kApps); ++k) {
    specs.push_back({popular[k].workload, {popular[k].scale, popular[k].seed}});
  }
  std::vector<double> build_s;
  std::vector<Application> catalogue_apps;
  for (int r = 0; r < 5; ++r) catalogue_apps = BuildApps(specs, tracer, &build_s);

  std::vector<double> latency, queue, sim, transport;
  std::uint64_t coalesced = 0;
  double sim_s = 0;  // daemon simulation time, coalesced followers apart
  double sim_instrs = 0;
  const auto check = [&](const Sample& s) {
    const swiftsim::SimResult& ref = refs[s.job];
    out.Check(s.reply.ok && s.reply.cycles == ref.total_cycles &&
                  s.reply.instructions == ref.instructions,
              "service response for " + jobs[s.job].Key() +
                  (s.reply.ok ? " differs from the one-shot"
                              : " failed: " + s.reply.error));
  };
  for (const Sample& s : warm_samples) check(s);
  for (const Sample& s : samples) {
    check(s);
    latency.push_back(s.latency);
    queue.push_back(s.reply.queue_seconds);
    sim.push_back(s.reply.sim_seconds);
    transport.push_back(s.latency - s.reply.wall_seconds);
    coalesced += s.reply.coalesced;
    if (!s.reply.coalesced) {
      sim_s += s.reply.sim_seconds;
      sim_instrs += static_cast<double>(s.reply.instructions);
    }
  }

  // --- End to end ---------------------------------------------------------
  out.Set("setup_s", Median(setup), "s");
  out.Set("wall_s", Median(latency), "s");
  out.Set("sim_ips", Median(seg_ips), "instr/s");
  out.Set("peak_rss_mb", daemon_rss, "MB");

  // --- Per layer ----------------------------------------------------------
  SetAppSetLayers(&out, catalogue_apps, Median(build_s));
  // Every job is a memory-level job; the cycle-accurate levels and their
  // Fig. 5 split do not run here.
  for (const char* key : {"detailed", "basic"}) {
    out.Set(std::string("sim.") + key + "_s", 0.0, "s");
    out.Set(std::string("sim.ns_per_instr.") + key, 0.0, "ns/instr");
    out.Set(std::string("sim.") + key + "_ips", 0.0, "instr/s");
  }
  out.Set("sim.memory_s", sim_s, "s");
  out.Set("sim.ns_per_instr.memory", 1e9 * sim_s / sim_instrs, "ns/instr");
  out.Set("sim.memory_ips", sim_instrs / sim_s, "instr/s");
  out.Set("core.alu_frontend_s", 0.0, "s");
  out.Set("mem.ca_s", 0.0, "s");
  BypassLayer(&out, "analytical.");
  BypassLayer(&out, "parallel.");
  BypassLayer(&out, "dse.");

  const JsonValue* st = stats.Find("stats");
  if (st == nullptr) throw std::runtime_error("stats op returned no stats");
  const auto stat = [&](const char* key) {
    const JsonValue* f = st->Find(key);
    return f == nullptr ? 0.0 : f->AsDouble();
  };
  SetMemoLayer(&out, static_cast<std::uint64_t>(stat("memo_hits")),
               static_cast<std::uint64_t>(stat("memo_misses")),
               static_cast<std::uint64_t>(stat("memo_cycles_avoided")));
  const double app_hits = stat("app_cache_hits");
  const double app_misses = stat("app_cache_misses");
  out.Set("service.req_per_s", Median(seg_rps), "1/s");
  out.Set("service.requests", static_cast<double>(samples.size()), "count");
  out.Set("service.latency_p50_s", Median(latency), "s");
  out.Set("service.latency_p99_s", swiftsim::Quantile(latency, 0.99), "s");
  out.Set("service.queue_p50_s", Median(queue), "s");
  out.Set("service.queue_p99_s", swiftsim::Quantile(queue, 0.99), "s");
  out.Set("service.sim_p50_s", Median(sim), "s");
  out.Set("service.sim_p99_s", swiftsim::Quantile(sim, 0.99), "s");
  out.Set("service.transport_p50_s", Median(transport), "s");
  out.Set("service.coalesced", static_cast<double>(coalesced), "count");
  out.Set("service.app_cache_hit_ratio",
          app_hits + app_misses == 0 ? 0.0 : app_hits / (app_hits + app_misses),
          "ratio");
  out.Set("service.rejected", stat("rejected"), "count");
  out.Set("trace_overhead_pct", segments.OverheadPct(), "%");
  // p99 is valid only with at least ten samples beyond it.
  out.Check(samples.size() >= 1000,
            "service run answered fewer than 1000 requests; p99 is not valid");
  return out;
}

}  // namespace perfbench
