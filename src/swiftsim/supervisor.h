// Daemon supervision (DESIGN.md §16): keeps `swiftsimd` serving across
// worker-process death.
//
// The supervisor owns the client transport (one NDJSON line in, one line
// out) and runs the actual SimulationService in a forked worker process
// connected by two pipes. Every client line is kept in memory as a
// pending entry until its response comes back; when the worker dies —
// SIGKILL, OOM, a crash bug — the supervisor:
//
//   1. restarts it under a bounded restart budget with jittered
//      exponential backoff (deterministically seeded, so tests can pin
//      the schedule);
//   2. replays every pending line to the fresh worker: lines that were
//      never sent resend free, lines that were in flight on the dead
//      incarnation consume one unit of their per-job crash-retry budget
//      (a job that keeps killing workers is the likely murder weapon);
//   3. answers jobs whose budget is exhausted with the typed
//      `worker_crashed` error instead of silence.
//
// Nothing outlives the supervisor process: when it dies, its clients see
// their transport close, and no job of theirs is replayed.
//
// State machine per incarnation:  spawn → replay pending → pump
// (client lines forwarded as they arrive, worker responses matched to
// pending by id and forwarded) → worker exit. A clean exit (status 0 —
// shutdown op or client EOF drain) ends the session; anything else is a
// crash and loops back to spawn until the restart budget runs out, at
// which point every pending job is answered `worker_crashed` and the
// supervisor exits non-zero.
//
// Fork safety: the parent never constructs a SimulationService, a
// ThreadPool or any simulation state — workers must be able to fork at
// any moment, and inherited pool threads do not survive fork. All
// simulation happens in `worker_main` inside the child.
#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "swiftsim/service.h"

namespace swiftsim::service {

struct SupervisorOptions {
  /// Worker restarts allowed per supervisor lifetime; exceeding it fails
  /// all pending jobs and exits non-zero.
  unsigned max_restarts = 5;
  /// Crash-retry budget per job: how many worker deaths one in-flight
  /// job may survive before it is answered `worker_crashed`.
  unsigned max_job_retries = 1;
  /// Jittered exponential backoff between restarts:
  /// min(initial * 2^k, max) * uniform[0.5, 1.0), from a fixed seed.
  double backoff_initial_ms = 50;
  double backoff_max_ms = 2000;
  /// Current worker pid, rewritten on every spawn ("" = none). Chaos
  /// tests and the supervise smoke read it to aim their SIGKILL.
  std::string worker_pid_file;
  /// Copied into the worker's ServiceOptions snapshot fields at spawn.
  ServiceOptions worker;
};

struct SupervisorStats {
  std::uint64_t restarts = 0;       // worker respawns after a crash
  std::uint64_t jobs_replayed = 0;  // pending lines resent to a new worker
  std::uint64_t retries = 0;        // replays that consumed crash budget
  std::uint64_t crashed_jobs = 0;   // answered with `worker_crashed`
};

class Supervisor {
 public:
  /// Runs in the forked child with the request/response pipe ends and the
  /// worker ServiceOptions (supervision snapshot fields already filled).
  /// Its return value is the worker exit status; it must not return
  /// control to supervisor code paths (the implementation _Exit()s).
  using WorkerMain = std::function<int(int in_fd, int out_fd,
                                       const ServiceOptions& opt)>;

  Supervisor(SupervisorOptions opt, WorkerMain worker_main);

  /// Serves one client session over a line transport until clean worker
  /// exit or restart-budget exhaustion. Returns the process exit code.
  /// `read_line` is consumed from an internal thread that lives until the
  /// client closes its end of the transport.
  int Serve(const std::function<bool(std::string*)>& read_line,
            const std::function<void(const std::string&)>& write_line);

  SupervisorStats stats() const;

 private:
  struct Pending {
    std::string id;          // as the worker will echo it
    std::string line;        // raw client line, replayed verbatim
    unsigned crash_retries = 0;
    /// Incarnation the line was last written to; 0 = never sent.
    std::uint64_t sent_incarnation = 0;
  };

  void OnClientLine(const std::string& line);
  bool SendToWorkerLocked(Pending* p);
  void SpawnWorker();
  /// Crash disposition for every line in flight on the dead incarnation:
  /// retry (stays pending, budget--) or `worker_crashed` to the client.
  void HandleCrash(const std::function<void(const std::string&)>& write_line);
  void FailPending(const std::function<void(const std::string&)>& write_line,
                   const std::string& why);

  SupervisorOptions opt_;
  WorkerMain worker_main_;

  mutable std::mutex mu_;
  std::vector<Pending> pending_;
  std::uint64_t incarnation_ = 0;
  bool client_eof_ = false;
  int worker_in_fd_ = -1;   // supervisor → worker requests
  int worker_out_fd_ = -1;  // worker → supervisor responses
  long worker_pid_ = -1;
  SupervisorStats stats_;
};

/// Extracts the `id` a response/request line will correlate by: the
/// request's id field as the service itself would parse it ("" when the
/// line is malformed beyond an id). Exposed for tests.
std::string RequestLineId(const std::string& line, const Limits& limits);

/// Pid of the currently running supervised worker, -1 between
/// incarnations. Async-signal-safe to read — the daemon's SIGTERM/SIGINT
/// forwarder uses it from a signal handler.
long SupervisedWorkerPid();

/// The daemon's fd line transport, shared by the supervisor pipes, the
/// worker's pipe ends and the socket connections. Both retry on EINTR.
/// ReadLineFd returns the next line without its '\n' (a final
/// unterminated line included) and false at EOF; `buffer` carries the
/// bytes read past it. WriteAllFd writes all of `data` and returns false
/// when the peer is gone.
bool ReadLineFd(int fd, std::string* buffer, std::string* line);
bool WriteAllFd(int fd, const std::string& data);

}  // namespace swiftsim::service
