// swiftsimd — the persistent simulation daemon (DESIGN.md §15).
//
// Keeps one Swift-Sim process alive so repeated jobs hit the process-global
// warm caches (MemoCache, ProfileCache, built-trace cache) instead of
// paying cold start per invocation. Speaks NDJSON — one JSON request per
// line, one JSON response per line — over either:
//
//   stdin/stdout (default):   swiftsimd --threads 8 --memo-file warm.memo
//   a unix socket:            swiftsimd --socket /tmp/swiftsim.sock
//
// Example session:
//   > {"op":"ping","id":"0"}
//   < {"id":"0","ok":true,"status":"pong"}
//   > {"id":"1","workload":"BFS","scale":0.05,"iterations":8}
//   < {"id":"1","ok":true,"status":"ok","cycles":...,"memo_hits":...}
//   > {"op":"shutdown","id":"2"}
//   < {"id":"2","ok":true,"status":"shutting_down"}
//
// Responses stream in completion order — correlate by "id". A `shutdown`
// op drains every admitted job, persists the memo file (when configured)
// and acknowledges last.
#include <atomic>
#include <cmath>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <map>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/status.h"
#include "common/strutil.h"
#include "swiftsim/service.h"
#include "swiftsim/supervisor.h"

namespace {

using swiftsim::SimError;
using swiftsim::service::ReadLineFd;
using swiftsim::service::ServeLines;
using swiftsim::service::ServeResult;
using swiftsim::service::ServeTransport;
using swiftsim::service::ServiceOptions;
using swiftsim::service::SimulationService;
using swiftsim::service::Supervisor;
using swiftsim::service::SupervisorOptions;
using swiftsim::service::WriteAllFd;

void PrintUsage() {
  std::fprintf(stderr, R"(usage: swiftsimd [options]

Persistent Swift-Sim simulation daemon. NDJSON protocol: one JSON request
per line on stdin (default) or a unix socket, one JSON response per line.

  --socket PATH         serve a unix socket instead of stdin/stdout
  --threads N           worker budget (default: hardware concurrency)
  --max-concurrent N    concurrent job lanes, capped at --threads
                        (default: --threads); each job runs serially
  --queue N             admission queue capacity (default 64)
  --memo-file PATH      load memo cache on start, save on shutdown
  --trace-cache DIR     on-disk compact trace cache directory
  --timeout-sec S       default per-request wall-clock watchdog (0 = off);
                        a request's "timeout_sec" overrides it
  --watchdog-cycles N   stall-window watchdog in simulated cycles (0 = off)
  --degrade-on-hang     analytical fallback instead of a timeout error
  --max-scale S         reject jobs with scale > S (default 2.0)
  --max-iterations N    reject jobs with iterations > N (default 1024)
  --memo-max-entries N  cap the global memo/profile caches (0 = unbounded)
  --memo-max-bytes N    cap the memo cache footprint (0 = unbounded)

Run settings come from these flags only. A request's "config" is sparse
GpuConfig INI and describes the GPU; a run-setting key in it ([sim],
[memo], [trace], [watchdog], [degrade]) is rejected with bad_config.

Crash recovery (DESIGN.md §16; stdin/stdout transport only):
  --supervise           run the service in a forked worker, restart it on
                        crash with jittered exponential backoff, replay
                        in-flight jobs; jobs whose worker died past the
                        retry budget get a typed worker_crashed error
  --max-restarts N      worker restart budget (default 5)
  --job-retries N       crash-retry budget per in-flight job (default 1)
  --restart-backoff MS  initial backoff before a restart (default 50)
  --worker-pid-file P   current worker pid, rewritten on each spawn
  --help                this text

SIGTERM/SIGINT drain the service (finish admitted jobs, persist the memo
file) before exiting; under --supervise they are forwarded to the worker.
)");
}

struct Flags {
  std::string socket_path;
  bool supervise = false;
  SupervisorOptions sup;
  ServiceOptions svc;
};

// A value flag's destination; its type picks the strict parser.
using Target = std::variant<std::string*, unsigned*, std::uint64_t*, double*>;

// Parses `v` into `target`: a negative, malformed or out-of-range value
// (one that does not fit `unsigned`, or a non-finite or negative double)
// throws SimError instead of wrapping or truncating.
void SetValue(const Target& target, const char* v, const std::string& flag) {
  if (auto* s = std::get_if<std::string*>(&target)) {
    **s = v;
  } else if (auto* u = std::get_if<unsigned*>(&target)) {
    **u = swiftsim::ParseUnsigned(v, flag);
  } else if (auto* n = std::get_if<std::uint64_t*>(&target)) {
    **n = swiftsim::ParseUint(v, flag);
  } else {
    const double d = swiftsim::ParseDouble(v, flag);
    if (!std::isfinite(d) || d < 0) {
      throw SimError(flag + " must be a finite value >= 0");
    }
    *std::get<double*>(target) = d;
  }
}

bool ParseFlags(int argc, char** argv, Flags* out) {
  ServiceOptions& svc = out->svc;
  SupervisorOptions& sup = out->sup;
  const std::map<std::string, Target> value_flags = {
      {"--socket", &out->socket_path},
      {"--threads", &svc.threads},
      {"--max-concurrent", &svc.max_concurrent},
      {"--queue", &svc.queue_capacity},
      {"--memo-file", &svc.memo_file},
      {"--trace-cache", &svc.trace_cache_dir},
      {"--timeout-sec", &svc.default_timeout_sec},
      {"--watchdog-cycles", &svc.watchdog_cycles},
      {"--max-scale", &svc.limits.max_scale},
      {"--max-iterations", &svc.limits.max_iterations},
      {"--memo-max-entries", &svc.memo_max_entries},
      {"--memo-max-bytes", &svc.memo_max_bytes},
      {"--max-restarts", &sup.max_restarts},
      {"--job-retries", &sup.max_job_retries},
      {"--restart-backoff", &sup.backoff_initial_ms},
      {"--worker-pid-file", &sup.worker_pid_file},
  };
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--help" || flag == "-h") {
      PrintUsage();
      std::exit(0);
    } else if (flag == "--degrade-on-hang") {
      svc.degrade_on_hang = true;
      continue;
    } else if (flag == "--supervise") {
      out->supervise = true;
      continue;
    }
    const auto it = value_flags.find(flag);
    if (it == value_flags.end()) {
      std::fprintf(stderr, "swiftsimd: unknown flag '%s'\n", flag.c_str());
      PrintUsage();
      return false;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "swiftsimd: %s requires a value\n", flag.c_str());
      return false;
    }
    try {
      SetValue(it->second, argv[++i], flag);
    } catch (const SimError& e) {
      std::fprintf(stderr, "swiftsimd: bad value for %s: %s\n", flag.c_str(),
                   e.what());
      return false;
    }
  }
  return true;
}

// --- SIGTERM/SIGINT drain (DESIGN.md §16) -------------------------------
//
// A handler may only touch async-signal-safe state, so it writes one byte
// to a self-pipe; a watcher thread runs the full Stop() — drain admitted
// jobs, persist the memo file — off the handler and exits the process.
int g_signal_pipe[2] = {-1, -1};

void OnShutdownSignal(int) {
  const char byte = 1;
  [[maybe_unused]] const ssize_t n = ::write(g_signal_pipe[1], &byte, 1);
}

// Under --supervise the parent owns the signals and forwards them to the
// current worker, whose own drain handler persists state and exits
// cleanly; the supervisor then sees a clean exit and follows.
void OnForwardSignal(int sig) {
  const long pid = swiftsim::service::SupervisedWorkerPid();
  if (pid > 0) ::kill(static_cast<pid_t>(pid), sig);
}

void InstallDrainHandlers(SimulationService* svc) {
  if (::pipe(g_signal_pipe) != 0) {
    std::perror("swiftsimd: signal pipe");
    return;  // serve without signal draining rather than not at all
  }
  std::thread([svc] {
    char byte = 0;
    ssize_t n;
    do {
      n = ::read(g_signal_pipe[0], &byte, 1);
    } while (n < 0 && errno == EINTR);
    if (n <= 0) return;
    std::fprintf(stderr, "swiftsimd: signal received, draining\n");
    svc->Stop();  // finish admitted jobs + persist the memo file
    ::_Exit(0);
  }).detach();
  std::signal(SIGTERM, OnShutdownSignal);
  std::signal(SIGINT, OnShutdownSignal);
}

int ServeSocket(const std::string& path, SimulationService& svc) {
  int listen_fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd < 0) {
    std::perror("swiftsimd: socket");
    return 1;
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof addr.sun_path) {
    std::fprintf(stderr, "swiftsimd: socket path too long: %s\n", path.c_str());
    return 1;
  }
  std::strncpy(addr.sun_path, path.c_str(), sizeof addr.sun_path - 1);
  ::unlink(path.c_str());
  if (::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    std::perror("swiftsimd: bind");
    return 1;
  }
  if (::listen(listen_fd, 16) != 0) {
    std::perror("swiftsimd: listen");
    return 1;
  }
  std::fprintf(stderr, "swiftsimd: serving %s\n", path.c_str());

  std::vector<std::thread> connections;
  std::atomic<bool> shutting_down{false};
  for (;;) {
    int conn = ::accept(listen_fd, nullptr, nullptr);
    if (conn < 0) break;  // listener shut down (or fatal error)
    connections.emplace_back([conn, &svc, listen_fd, &shutting_down] {
      std::string buffer;
      auto read_line = [conn, &buffer](std::string* line) {
        return ReadLineFd(conn, &buffer, line);
      };
      auto write_line = [conn](const std::string& line) {
        // The client may have gone away; responses are best-effort.
        WriteAllFd(conn, line + "\n");
      };
      // The service is shared by every connection; Stop() on shutdown is
      // handled here so we can also unblock accept().
      ServeResult res =
          ServeTransport(read_line, write_line, svc, /*stop_on_shutdown=*/false);
      if (res.shutdown) {
        shutting_down = true;
        svc.Stop();
        ::shutdown(listen_fd, SHUT_RDWR);
      }
      ::close(conn);
    });
  }
  for (std::thread& t : connections) t.join();
  ::close(listen_fd);
  ::unlink(path.c_str());
  if (!shutting_down) svc.Stop();
  return 0;
}

/// The supervised worker: builds the real service on the supervisor's
/// pipe ends and serves until EOF/shutdown. Runs in the forked child.
int WorkerMain(int in_fd, int out_fd, const ServiceOptions& opt) {
  SimulationService svc(opt);
  InstallDrainHandlers(&svc);  // supervisor forwards SIGTERM/SIGINT here
  std::string buffer;
  auto read_line = [in_fd, &buffer](std::string* line) {
    return ReadLineFd(in_fd, &buffer, line);
  };
  auto write_line = [out_fd](const std::string& line) {
    // The supervisor may have gone away; then nobody is left to answer.
    WriteAllFd(out_fd, line + "\n");
  };
  const ServeResult res = ServeTransport(read_line, write_line, svc);
  if (!res.shutdown) svc.Stop();  // EOF: drain and persist anyway
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::signal(SIGPIPE, SIG_IGN);  // a vanished client must not kill the daemon

  Flags flags;
  if (!ParseFlags(argc, argv, &flags)) return 2;

  try {
    if (flags.supervise) {
      if (!flags.socket_path.empty()) {
        std::fprintf(stderr,
                     "swiftsimd: --supervise supports the stdin/stdout "
                     "transport only\n");
        return 2;
      }
      // The parent must stay free of simulation state (ThreadPool,
      // SimulationService) so the worker can fork at any moment; it only
      // pumps lines and forwards signals.
      std::signal(SIGTERM, OnForwardSignal);
      std::signal(SIGINT, OnForwardSignal);
      flags.sup.worker = flags.svc;
      Supervisor sup(flags.sup, WorkerMain);
      auto read_line = [](std::string* line) {
        return static_cast<bool>(std::getline(std::cin, *line));
      };
      auto write_line = [](const std::string& line) {
        std::cout << line << '\n' << std::flush;
      };
      return sup.Serve(read_line, write_line);
    }

    SimulationService svc(flags.svc);
    InstallDrainHandlers(&svc);  // SIGTERM/SIGINT: drain + persist + exit
    if (!flags.socket_path.empty()) {
      return ServeSocket(flags.socket_path, svc);
    }
    ServeResult res = ServeLines(std::cin, std::cout, svc);
    if (!res.shutdown) svc.Stop();  // EOF: drain and persist anyway
    return 0;
  } catch (const SimError& e) {
    std::fprintf(stderr, "swiftsimd: %s\n", e.what());
    return 1;
  }
}
