// Persistent-service bench (DESIGN.md §15): drives a real `swiftsimd`
// daemon end-to-end over its stdin/stdout NDJSON transport and measures
// what the warm process buys:
//
//   cold     first submission of each job to a fresh daemon — pays trace
//            generation, the pre-pass and full simulation
//   warm     the same jobs resubmitted to the same daemon — served from
//            the process-global MemoCache/ProfileCache/trace caches
//   burst    identical jobs submitted back-to-back under a never-seen
//            config — cold twins simulating concurrently
//   reload   a second daemon started on the first one's --memo-file —
//            warm throughput across process restarts
//
// Every daemon-reported cycle count must equal an in-process one-shot
// run of the same (workload, config, level), burst twins and post-reload
// replays included; the case exits non-zero otherwise.
//
// --smoke: shrunk shape gating CI — warm throughput must beat cold by
// >= 10x.
//
// --supervise-smoke: crash-recovery gate (DESIGN.md §16) — runs the
// daemon under `swiftsimd --supervise`, SIGKILLs the worker mid-session
// and requires a restart, bit-identical service afterwards, restarts >= 1
// in the stats op, and a clean shutdown.
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/stats.h"
#include "common/status.h"
#include "config/ini.h"
#include "swiftsim/simulator.h"
#include "swiftsim/supervisor.h"
#include "swiftsim_bench.h"

namespace swiftsim::bench {

namespace {

using Clock = std::chrono::steady_clock;

/// Gate checks: a failed one prints why and clears `ok`.
struct Checks {
  bool ok = true;
  void operator()(bool cond, const std::string& what) {
    if (!cond) std::printf("FAIL: %s\n", what.c_str());
    ok = ok && cond;
  }
};

/// The in-process one-shot cycles of `name` repeated `iterations` times
/// on the default machine with `config_ini` applied: the bit-identity
/// oracle for the daemon (same workload, config, level).
Cycle ReferenceCycles(const std::string& name, const BenchOptions& opt,
                      unsigned iterations, const std::string& config_ini = "") {
  const Application app =
      RepeatLaunches(BuildWorkload(name, {opt.scale, opt.seed}), iterations);
  const GpuConfig cfg =
      GpuConfig::FromIni(IniFile::ParseString(config_ini), GpuConfig());
  return RunSimulation(app, cfg, SimLevel::kSwiftSimMemory).total_cycles;
}

/// One response line, decoded into the run record it reports (app from
/// the "<app>#<tag>" id). Unset numeric fields stay zero.
struct Reply {
  std::string id;
  bool ok = false;
  Record record;
};

Reply DecodeReply(const std::string& line) {
  const JsonValue v = ParseJson(line);
  Reply r;
  if (const JsonValue* f = v.Find("id")) r.id = f->AsString();
  if (const JsonValue* f = v.Find("ok")) r.ok = f->AsBool();
  Record& rec = r.record;
  rec.app = r.id.substr(0, r.id.find('#'));
  if (const JsonValue* f = v.Find("status")) rec.status = f->AsString();
  if (const JsonValue* f = v.Find("error")) rec.error = f->AsString();
  if (const JsonValue* f = v.Find("cycles")) rec.cycles = f->AsUint();
  if (const JsonValue* f = v.Find("wall_seconds")) rec.wall_s = f->AsDouble();
  for (const auto& [key, counter] : {std::pair{"memo_hits", "memo.hits"},
                                     {"memo_misses", "memo.misses"}}) {
    if (const JsonValue* f = v.Find(key)) rec.Count(counter, f->AsUint());
  }
  return r;
}

/// A swiftsimd child process driven over stdin/stdout pipes.
class Daemon {
 public:
  Daemon(const std::string& binary, const std::vector<std::string>& args) {
    int to_child[2];
    int from_child[2];
    SS_CHECK(::pipe(to_child) == 0 && ::pipe(from_child) == 0,
             "pipe() failed");
    pid_ = ::fork();
    SS_CHECK(pid_ >= 0, "fork() failed");
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
      std::perror("swiftsim_bench service: execv");
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

  void Send(const std::string& line) {
    SS_CHECK(service::WriteAllFd(in_fd_, line + "\n"),
             "write to daemon failed");
  }

  /// Blocking line read; throws when the daemon closes its end early.
  std::string ReadLine() {
    std::string line;
    SS_CHECK(service::ReadLineFd(out_fd_, &buffer_, &line),
             "daemon closed its output pipe unexpectedly");
    return line;
  }

  /// Reads until `count` replies arrived, keyed by id.
  std::map<std::string, Reply> Collect(std::size_t count) {
    std::map<std::string, Reply> replies;
    while (replies.size() < count) {
      Reply r = DecodeReply(ReadLine());
      replies[r.id] = r;
    }
    return replies;
  }

  /// Sends a shutdown op, drains until the acknowledgement, reaps the
  /// child, and returns its exit status.
  int Shutdown() {
    Send(R"({"op":"shutdown","id":"__shutdown__"})");
    for (;;) {
      Reply r = DecodeReply(ReadLine());
      if (r.id == "__shutdown__") break;
    }
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
};

std::string SimulateRequest(const std::string& id, const std::string& workload,
                            double scale, unsigned iterations,
                            const std::string& config_ini = "") {
  JsonWriter w;
  w.BeginObject();
  w.Key("id").String(id);
  w.Key("workload").String(workload);
  w.Key("scale").Double(scale);
  w.Key("iterations").Uint(iterations);
  if (!config_ini.empty()) w.Key("config").String(config_ini);
  w.EndObject();
  return w.str();
}

struct Phase {
  double wall_seconds = 0;
  std::map<std::string, Reply> replies;

  double throughput() const {
    return wall_seconds > 0
               ? static_cast<double>(replies.size()) / wall_seconds
               : 0;
  }
  std::vector<double> latencies() const {
    std::vector<double> out;
    out.reserve(replies.size());
    for (const auto& [id, r] : replies) out.push_back(r.record.wall_s);
    return out;
  }
};

/// Sends every request, then collects every reply. Requests are a few
/// hundred bytes each — far below the pipe buffer — so the batched write
/// cannot deadlock against the daemon's response stream.
Phase RunPhase(Daemon& d, const std::vector<std::string>& requests) {
  Phase p;
  Clock::time_point start = Clock::now();
  for (const std::string& r : requests) d.Send(r);
  p.replies = d.Collect(requests.size());
  p.wall_seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  return p;
}

/// Supervised-daemon recovery gate (DESIGN.md §16): start `swiftsimd
/// --supervise`, serve a job, SIGKILL the worker process (pid from its
/// pid file), and require the supervisor to restart it within the backoff
/// budget, serve the same job bit-identically again, report restarts >= 1
/// in the stats op, and still shut down cleanly.
int RunSuperviseSmoke(const std::string& daemon_path,
                      const BenchOptions& opt) {
  namespace fs = std::filesystem;

  const std::string scratch =
      (fs::temp_directory_path() /
       ("swiftsim-supervise-smoke-" + std::to_string(::getpid()))).string();
  fs::create_directories(scratch);
  const std::string pid_file = scratch + "/worker.pid";

  const std::string app = "BFS";
  constexpr unsigned kIter = 4;
  const Cycle want = ReferenceCycles(app, opt, kIter);

  Daemon d(daemon_path,
           {"--supervise", "--threads", "2", "--worker-pid-file", pid_file,
            "--restart-backoff", "20", "--max-restarts", "4"});

  Checks check;

  const Reply before = [&] {
    d.Send(SimulateRequest("pre", app, opt.scale, kIter));
    return DecodeReply(d.ReadLine());
  }();
  check(before.ok, "pre-crash job failed: " + before.record.error);
  check(!before.ok || before.record.cycles == want,
        "pre-crash cycles diverge from the one-shot reference");

  // Murder the worker. The pid file exists — the first response can only
  // have come from a spawned worker.
  long wpid = -1;
  if (std::FILE* f = std::fopen(pid_file.c_str(), "r")) {
    if (std::fscanf(f, "%ld", &wpid) != 1) wpid = -1;
    std::fclose(f);
  }
  check(wpid > 0, "worker pid file missing after first response");
  if (wpid > 0) ::kill(static_cast<pid_t>(wpid), SIGKILL);
  std::printf("supervise: SIGKILLed worker pid %ld\n", wpid);

  // The next job must be answered by a restarted worker — whether it was
  // queued during the backoff window or replayed off the dead incarnation.
  d.Send(SimulateRequest("post", app, opt.scale, kIter));
  const Reply after = DecodeReply(d.ReadLine());
  check(after.ok, "post-crash job failed: " + after.record.error);
  check(!after.ok || after.record.cycles == want,
        "post-crash cycles diverge (restart must not corrupt results)");

  d.Send(R"({"op":"stats","id":"s"})");
  const std::string stats_line = d.ReadLine();
  std::uint64_t restarts = 0;
  bool supervised = false;
  try {
    const JsonValue v = ParseJson(stats_line);
    if (const JsonValue* s = v.Find("stats")) {
      if (const JsonValue* f = s->Find("restarts")) restarts = f->AsUint();
      if (const JsonValue* f = s->Find("supervised"))
        supervised = f->AsBool();
    }
  } catch (const SimError&) {
  }
  check(supervised, "stats op does not report supervised=true");
  check(restarts >= 1, "stats op reports restarts=" +
                           std::to_string(restarts) + ", expected >= 1");

  const int rc = d.Shutdown();
  check(rc == 0, "supervisor exited " + std::to_string(rc) +
                     " after shutdown, expected 0");

  fs::remove_all(scratch);
  if (!check.ok) {
    std::printf("\nsupervise smoke: FAILURES detected\n");
    return 1;
  }
  std::printf("supervise smoke: worker crash survived, %llu restart(s), "
              "bit-identical service resumed, clean shutdown\n",
              static_cast<unsigned long long>(restarts));
  return 0;
}

}  // namespace

int RunService(Bench& b) {
  if (b.SkipTimedSmoke()) return 77;
  const BenchOptions& opt = b.opt();
  const std::string daemon_path = b.String("--daemon", "tools/swiftsimd");
  const bool smoke = b.Has("--smoke");
  unsigned repeats = b.Unsigned("--repeats", 4);
  if (smoke) repeats = std::min(repeats, 3u);
  constexpr unsigned kIterations = 8;

  SS_CHECK(::access(daemon_path.c_str(), X_OK) == 0,
           "daemon binary '" + daemon_path +
               "' not executable (pass --daemon=<path to swiftsimd>)");
  if (b.Has("--supervise-smoke")) {
    return RunSuperviseSmoke(daemon_path, opt);
  }

  std::printf("daemon: %s, %zu jobs x %u repeats, %u launches/job\n",
              daemon_path.c_str(), opt.apps.size(), repeats, kIterations);

  // Scratch state for the daemon pair.
  const std::string scratch =
      (std::filesystem::temp_directory_path() /
       ("swiftsim-bench-service-" + std::to_string(::getpid()))).string();
  std::filesystem::create_directories(scratch + "/traces");
  const std::string memo_file = scratch + "/service.memo";

  std::vector<std::string> daemon_args = {
      "--memo-file", memo_file, "--trace-cache", scratch + "/traces"};
  if (opt.threads != 0) {
    daemon_args.push_back("--threads");
    daemon_args.push_back(std::to_string(opt.threads));
  }

  std::map<std::string, Cycle> reference;
  for (const std::string& name : opt.apps) {
    reference[name] = ReferenceCycles(name, opt, kIterations);
  }
  // `copies` requests per app, with ids "<app>#<tag><copy>".
  const auto requests = [&](const std::vector<std::string>& apps,
                            const std::string& tag, unsigned copies,
                            const std::string& config_ini = "") {
    std::vector<std::string> out;
    for (unsigned i = 0; i < copies; ++i) {
      for (const std::string& name : apps) {
        out.push_back(SimulateRequest(name + "#" + tag + std::to_string(i),
                                      name, opt.scale, kIterations,
                                      config_ini));
      }
    }
    return out;
  };

  Checks check;
  // Every reply must succeed with the reference's cycles; with `replay`,
  // without simulating a single launch.
  auto check_replies = [&](const Phase& p, const std::string& phase,
                           bool replay) {
    for (const auto& [id, r] : p.replies) {
      check(r.ok, phase + " reply " + id + " failed: " + r.record.error);
      if (!r.ok) continue;
      const Cycle want = reference.at(r.record.app);
      check(r.record.cycles == want,
            phase + " reply " + id + " cycles " +
                std::to_string(r.record.cycles) + " != one-shot reference " +
                std::to_string(want));
      check(!replay || r.record.Counter("memo.misses") == 0,
            phase + " reply " + id + " simulated launches (expected replay)");
    }
  };

  // --- Daemon A: cold then warm ------------------------------------------
  Daemon daemon_a(daemon_path, daemon_args);
  const Phase cold = RunPhase(daemon_a, requests(opt.apps, "cold", 1));
  check_replies(cold, "cold", false);
  const Phase warm = RunPhase(daemon_a, requests(opt.apps, "warm", repeats));
  check_replies(warm, "warm", true);

  // --- Burst: identical jobs under a never-seen config ------------------
  // The twins arrive cold together, so several simulate at once and race to
  // record the same memo entries; every reply must still match the one-shot
  // run.
  const std::string burst_app = opt.apps.front();
  const std::string burst_config = "[gpu]\nnum_sms = 35\n";
  const Cycle burst_want =
      ReferenceCycles(burst_app, opt, kIterations, burst_config);
  const Phase burst =
      RunPhase(daemon_a, requests({burst_app}, "burst", 8, burst_config));
  for (const auto& [id, r] : burst.replies) {
    check(r.ok, "burst reply " + id + " failed: " + r.record.error);
    if (!r.ok) continue;
    check(r.record.cycles == burst_want,
          "burst reply " + id + " cycles " + std::to_string(r.record.cycles) +
              " != one-shot reference " + std::to_string(burst_want));
  }

  int exit_a = daemon_a.Shutdown();
  check(exit_a == 0, "daemon A exited with status " + std::to_string(exit_a));
  check(std::filesystem::exists(memo_file),
        "daemon A did not persist " + memo_file);

  // --- Daemon B: restart on the persisted memo file ----------------------
  Daemon daemon_b(daemon_path, daemon_args);
  const Phase reload = RunPhase(daemon_b, requests(opt.apps, "reload", 1));
  check_replies(reload, "reload", true);
  int exit_b = daemon_b.Shutdown();
  check(exit_b == 0, "daemon B exited with status " + std::to_string(exit_b));

  // --- Report -------------------------------------------------------------
  const double cold_tp = cold.throughput();
  const double warm_tp = warm.throughput();
  const double speedup = cold_tp > 0 ? warm_tp / cold_tp : 0;
  std::printf("\n%-8s %8s %14s %12s %12s %12s\n", "phase", "jobs", "jobs/s",
              "p50[s]", "p95[s]", "p99[s]");
  // The summary record carries each phase's throughput and latency tail.
  Record summary;
  summary.app = burst_app;
  summary.level = "service-summary";
  summary.threads = opt.threads;
  const auto report = [&summary](const std::string& name, const Phase& p,
                                 bool tail) {
    std::printf("%-8s %8zu %14.2f", name.c_str(), p.replies.size(),
                p.throughput());
    summary.Count(name + "_jobs_per_s", p.throughput());
    for (const double q : {0.50, 0.95, 0.99}) {
      if (!tail) break;
      const double s = Quantile(p.latencies(), q);
      std::printf(" %12.4f", s);
      summary.Count(
          name + "_latency_p" + std::to_string(std::lround(q * 100)) + "_s", s);
    }
    std::printf("\n");
  };
  report("cold", cold, true);
  report("warm", warm, true);
  report("reload", reload, false);
  std::printf("warm vs cold throughput: %.1fx\n", speedup);
  summary.Count("warm_speedup_vs_cold", speedup);

  if (smoke) {
    check(speedup >= 10.0,
          "warm throughput only " + std::to_string(speedup) +
              "x cold (smoke gate requires >= 10x)");
  }

  for (const auto& [level, p] : {std::pair<std::string, const Phase*>{
                                     "service-cold", &cold},
                                 {"service-warm", &warm},
                                 {"service-burst", &burst},
                                 {"service-reload", &reload}}) {
    for (const auto& [id, reply] : p->replies) {
      if (!reply.ok) continue;
      Record r = reply.record;
      r.level = level;
      r.threads = opt.threads;
      b.Append(r);
    }
  }
  b.Append(summary);

  std::filesystem::remove_all(scratch);
  if (!check.ok) {
    std::printf("\nservice: FAILURES detected\n");
    return 1;
  }
  std::printf("\nservice: all identity checks passed\n");
  return 0;
}

}  // namespace swiftsim::bench
