#include "swiftsim/supervisor.h"

#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <thread>

#include "common/json.h"
#include "common/log.h"
#include "common/rng.h"
#include "common/status.h"

namespace swiftsim::service {
namespace {

// Current supervised worker pid for the daemon's signal forwarder (a
// handler may only touch async-signal-safe state).
std::atomic<long> g_worker_pid{-1};

// Seeds the backoff jitter, so a test can pin the restart schedule.
constexpr std::uint64_t kBackoffSeed = 0x5eed;

/// Responses come from EncodeResponse and are always well-formed JSON; a
/// parse failure just means "no usable id".
std::string ResponseLineId(const std::string& line) {
  try {
    const JsonValue v = ParseJson(line);
    const JsonValue* id = v.Find("id");
    if (id != nullptr && id->is_string()) return id->AsString();
  } catch (const SimError&) {
  }
  return "";
}

}  // namespace

std::string RequestLineId(const std::string& line, const Limits& limits) {
  Request req;
  ErrorCode err = ErrorCode::kBadRequest;
  std::string msg;
  std::string id;
  if (ParseRequestLine(line, limits, &req, &err, &msg, &id)) {
    return req.op == Op::kSimulate ? req.job.id : req.id;
  }
  return id;  // whatever id the malformed line carried — the worker echoes it
}

long SupervisedWorkerPid() { return g_worker_pid.load(); }

bool ReadLineFd(int fd, std::string* buffer, std::string* line) {
  for (;;) {
    const std::size_t nl = buffer->find('\n');
    if (nl != std::string::npos) {
      line->assign(*buffer, 0, nl);
      buffer->erase(0, nl + 1);
      return true;
    }
    char chunk[4096];
    const ssize_t n = ::read(fd, chunk, sizeof chunk);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      if (buffer->empty()) return false;
      line->swap(*buffer);  // final unterminated line
      buffer->clear();
      return true;
    }
    buffer->append(chunk, static_cast<std::size_t>(n));
  }
}

bool WriteAllFd(int fd, const std::string& data) {
  const char* p = data.data();
  std::size_t left = data.size();
  while (left > 0) {
    const ssize_t n = ::write(fd, p, left);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;  // the peer is gone
    }
    p += n;
    left -= static_cast<std::size_t>(n);
  }
  return true;
}

Supervisor::Supervisor(SupervisorOptions opt, WorkerMain worker_main)
    : opt_(std::move(opt)), worker_main_(std::move(worker_main)) {}

void Supervisor::OnClientLine(const std::string& line) {
  std::lock_guard<std::mutex> lock(mu_);
  Pending p;
  p.id = RequestLineId(line, opt_.worker.limits);
  p.line = line;
  pending_.push_back(std::move(p));
  SendToWorkerLocked(&pending_.back());
}

bool Supervisor::SendToWorkerLocked(Pending* p) {
  if (worker_in_fd_ < 0) return false;  // between incarnations
  // A dead pipe leaves the entry pending for replay.
  if (!WriteAllFd(worker_in_fd_, p->line + "\n")) return false;
  p->sent_incarnation = incarnation_;
  return true;
}

void Supervisor::SpawnWorker() {
  int req[2];
  int resp[2];
  SS_CHECK(::pipe(req) == 0 && ::pipe(resp) == 0, "supervisor: pipe failed");
  ServiceOptions wopt;
  {
    std::lock_guard<std::mutex> lock(mu_);
    wopt = opt_.worker;
    wopt.supervised = true;
    wopt.sup_restarts = stats_.restarts;
    wopt.sup_jobs_replayed = stats_.jobs_replayed;
    wopt.sup_retries = stats_.retries;
  }
  const pid_t pid = ::fork();
  SS_CHECK(pid >= 0, "supervisor: fork failed");
  if (pid == 0) {
    ::close(req[1]);
    ::close(resp[0]);
    int rc = 1;
    try {
      rc = worker_main_(req[0], resp[1], wopt);
    } catch (...) {
      rc = 1;
    }
    ::_Exit(rc);  // never unwind into supervisor state from the child
  }
  ::close(req[0]);
  ::close(resp[1]);
  if (!opt_.worker_pid_file.empty()) {
    std::FILE* f = std::fopen(opt_.worker_pid_file.c_str(), "w");
    if (f != nullptr) {
      std::fprintf(f, "%ld\n", static_cast<long>(pid));
      std::fclose(f);
    }
  }
  g_worker_pid.store(static_cast<long>(pid));

  std::lock_guard<std::mutex> lock(mu_);
  ++incarnation_;
  worker_pid_ = static_cast<long>(pid);
  worker_in_fd_ = req[1];
  worker_out_fd_ = resp[0];
  // Replay in arrival order. Lines a dead incarnation had in flight count
  // as replays (their crash budget was charged in HandleCrash); lines that
  // never reached a worker resend free.
  for (Pending& p : pending_) {
    const bool was_sent = p.sent_incarnation != 0;
    if (SendToWorkerLocked(&p) && was_sent) ++stats_.jobs_replayed;
  }
  if (client_eof_ && worker_in_fd_ >= 0) {
    ::close(worker_in_fd_);  // propagate the EOF so the worker drains
    worker_in_fd_ = -1;
  }
}

void Supervisor::HandleCrash(
    const std::function<void(const std::string&)>& write_line) {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Pending> keep;
  keep.reserve(pending_.size());
  for (Pending& p : pending_) {
    if (p.sent_incarnation != incarnation_) {
      keep.push_back(std::move(p));  // never reached the dead worker
      continue;
    }
    ++p.crash_retries;
    if (p.crash_retries > opt_.max_job_retries) {
      Response r;
      r.id = p.id;
      r.ok = false;
      r.error = ErrorCode::kWorkerCrashed;
      r.error_message =
          "worker process died while this job was in flight (" +
          std::to_string(p.crash_retries) + " attempts); retry budget " +
          std::to_string(opt_.max_job_retries) + " exhausted";
      r.status = "worker_crashed";
      write_line(EncodeResponse(r));
      ++stats_.crashed_jobs;
    } else {
      ++stats_.retries;
      keep.push_back(std::move(p));
    }
  }
  pending_ = std::move(keep);
}

void Supervisor::FailPending(
    const std::function<void(const std::string&)>& write_line,
    const std::string& why) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const Pending& p : pending_) {
    Response r;
    r.id = p.id;
    r.ok = false;
    r.error = ErrorCode::kWorkerCrashed;
    r.error_message = why;
    r.status = "worker_crashed";
    write_line(EncodeResponse(r));
    ++stats_.crashed_jobs;
  }
  pending_.clear();
}

int Supervisor::Serve(
    const std::function<bool(std::string*)>& read_line,
    const std::function<void(const std::string&)>& write_line) {
  std::signal(SIGPIPE, SIG_IGN);  // worker death mid-write must not kill us

  // The reader lives until the client closes its end of the transport;
  // lines arriving between incarnations park in pending_ for replay.
  std::thread reader([this, &read_line] {
    std::string line;
    while (read_line(&line)) OnClientLine(line);
    std::lock_guard<std::mutex> lock(mu_);
    client_eof_ = true;
    if (worker_in_fd_ >= 0) {
      ::close(worker_in_fd_);
      worker_in_fd_ = -1;
    }
  });

  int exit_code = 0;
  Rng rng(kBackoffSeed);
  for (;;) {
    SpawnWorker();
    int out_fd = -1;
    {
      std::lock_guard<std::mutex> lock(mu_);
      out_fd = worker_out_fd_;
    }
    // Pump worker responses until its pipe closes (clean exit or crash).
    std::string buffer;
    std::string line;
    while (ReadLineFd(out_fd, &buffer, &line)) {
      const std::string id = ResponseLineId(line);
      {
        std::lock_guard<std::mutex> lock(mu_);
        for (auto it = pending_.begin(); it != pending_.end(); ++it) {
          if (it->sent_incarnation == incarnation_ && it->id == id) {
            pending_.erase(it);
            break;
          }
        }
      }
      write_line(line);
    }

    long pid = -1;
    {
      std::lock_guard<std::mutex> lock(mu_);
      pid = worker_pid_;
      worker_pid_ = -1;
      ::close(worker_out_fd_);
      worker_out_fd_ = -1;
      if (worker_in_fd_ >= 0) {
        ::close(worker_in_fd_);
        worker_in_fd_ = -1;
      }
    }
    g_worker_pid.store(-1);
    int status = 0;
    ::waitpid(static_cast<pid_t>(pid), &status, 0);
    if (WIFEXITED(status) && WEXITSTATUS(status) == 0) {
      // Shutdown op or client-EOF drain: the worker answered everything it
      // admitted before exiting; anything still pending can never be.
      FailPending(write_line, "worker exited while the job was pending");
      break;
    }
    std::size_t in_flight = 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      in_flight = pending_.size();
    }
    SS_LOG(kWarning) << "supervisor: worker pid " << pid << " died ("
                     << (WIFSIGNALED(status)
                             ? "signal " + std::to_string(WTERMSIG(status))
                             : "exit " +
                                   std::to_string(WIFEXITED(status)
                                                      ? WEXITSTATUS(status)
                                                      : -1))
                     << "), pending=" << in_flight;
    HandleCrash(write_line);
    std::uint64_t restarts = 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      restarts = ++stats_.restarts;
    }
    if (restarts > opt_.max_restarts) {
      FailPending(write_line, "supervisor restart budget (" +
                                  std::to_string(opt_.max_restarts) +
                                  ") exhausted");
      exit_code = 1;
      break;
    }
    // Jittered exponential backoff: full-jitter halves thundering-herd
    // alignment while the deterministic seed keeps tests repeatable.
    const double base =
        std::min(opt_.backoff_max_ms,
                 opt_.backoff_initial_ms *
                     std::pow(2.0, static_cast<double>(restarts - 1)));
    const double ms = base * (0.5 + 0.5 * rng.NextDouble());
    std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(ms));
  }
  // The reader returns when the client closes the transport — for the
  // stdin daemon that is the session's natural end.
  reader.join();
  return exit_code;
}

SupervisorStats Supervisor::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace swiftsim::service
