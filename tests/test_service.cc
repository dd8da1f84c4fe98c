// Persistent-service gates (DESIGN.md §15): protocol round-trips, the
// bit-identity guarantee (daemon results == one-shot runs, including
// coalesced fan-outs and memo-file reloads), admission control, per-
// request isolation, and the concurrency surface — many client threads
// hammering one service, and the process-global MemoCache/ProfileCache/
// built-trace caches hammered directly from racing workers. The whole
// binary carries the `tsan` ctest label so -DSWIFTSIM_TSAN=ON builds
// race-check every path a daemon worker lane touches.
#include <gtest/gtest.h>
#include <pthread.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <mutex>
#include <regex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/json.h"
#include "common/status.h"
#include "swiftsim/memo_cache.h"
#include "swiftsim/service.h"
#include "swiftsim/supervisor.h"
#include "swiftsim/simulator.h"
#include "workloads/workload.h"

namespace swiftsim {
namespace {

using service::ErrorCode;
using service::JobRequest;
using service::Limits;
using service::Op;
using service::Request;
using service::Response;
using service::ServeLines;
using service::ServeResult;
using service::ServiceOptions;
using service::ServiceStats;
using service::SimulationService;

constexpr double kScale = 0.05;

class ServiceTest : public ::testing::Test {
 protected:
  // The global caches are shared across every test in the process; each
  // test starts cold so memo_hits/memo_misses assertions are meaningful.
  void SetUp() override {
    MemoCache::Global().Clear();
    ProfileCache::Global().Clear();
  }

  static JobRequest Job(const std::string& id, const std::string& workload,
                        unsigned iterations = 2,
                        std::uint64_t seed = 0x5eed5eedULL) {
    JobRequest j;
    j.id = id;
    j.workload = workload;
    j.scale = kScale;
    j.seed = seed;
    j.iterations = iterations;
    return j;
  }

  static Cycle Reference(const JobRequest& j) {
    Application app = RepeatLaunches(
        BuildWorkload(j.workload, {j.scale, j.seed}), j.iterations);
    GpuConfig cfg;
    return RunSimulation(app, cfg, SimLevel::kSwiftSimMemory).total_cycles;
  }
};

// ---------------------------------------------------------------------------
// Protocol round-trips.

TEST_F(ServiceTest, ParseSimulateRequestRoundTrips) {
  Request req;
  ErrorCode code;
  std::string msg, id;
  const std::string line =
      R"({"op":"simulate","id":"j1","workload":"BFS","scale":0.1,)"
      R"("seed":12345,"iterations":4,"level":"memory",)"
      R"("config":"[gpu]\nnum_sms = 35\n","timeout_sec":2.5})";
  ASSERT_TRUE(service::ParseRequestLine(line, Limits{}, &req, &code, &msg, &id))
      << msg;
  EXPECT_EQ(req.op, Op::kSimulate);
  EXPECT_EQ(req.job.id, "j1");
  EXPECT_EQ(req.job.workload, "BFS");
  EXPECT_DOUBLE_EQ(req.job.scale, 0.1);
  EXPECT_EQ(req.job.seed, 12345u);
  EXPECT_EQ(req.job.iterations, 4u);
  EXPECT_EQ(req.job.level, SimLevel::kSwiftSimMemory);
  EXPECT_NE(req.job.config_ini.find("num_sms"), std::string::npos);
  EXPECT_DOUBLE_EQ(req.job.timeout_sec, 2.5);
}

TEST_F(ServiceTest, SeedRoundTripsAllSixtyFourBits) {
  Request req;
  ErrorCode code;
  std::string msg, id;
  const std::string line =
      R"({"workload":"NW","seed":18446744073709551615,"id":"s"})";
  ASSERT_TRUE(
      service::ParseRequestLine(line, Limits{}, &req, &code, &msg, &id));
  EXPECT_EQ(req.job.seed, 18446744073709551615ull);
}

TEST_F(ServiceTest, EncodeResponseEmitsTypedErrors) {
  Response r;
  r.id = "x";
  r.ok = false;
  r.error = ErrorCode::kQueueFull;
  r.error_message = "queue full (capacity 4)";
  JsonValue v = ParseJson(service::EncodeResponse(r));
  EXPECT_EQ(v.Find("id")->AsString(), "x");
  EXPECT_FALSE(v.Find("ok")->AsBool());
  EXPECT_EQ(v.Find("error")->AsString(), "queue_full");
}

// ---------------------------------------------------------------------------
// Bit-identity: the header's core guarantee.

TEST_F(ServiceTest, ResultsBitIdenticalToOneShotRuns) {
  SimulationService svc(ServiceOptions{});
  for (const char* name : {"NW", "BFS"}) {
    JobRequest j = Job(std::string("id-") + name, name, /*iterations=*/3);
    Cycle want = Reference(j);
    Response r = svc.SubmitAndWait(j);
    ASSERT_TRUE(r.ok) << r.error_message;
    EXPECT_EQ(r.cycles, want) << name;
    // Second submission of the same job replays entirely from the warm
    // MemoCache — still bit-identical.
    Response warm = svc.SubmitAndWait(j);
    ASSERT_TRUE(warm.ok);
    EXPECT_EQ(warm.cycles, want) << name << " (warm)";
    EXPECT_EQ(warm.memo_misses, 0u) << name << " warm run simulated";
  }
}

TEST_F(ServiceTest, MemoFileReloadStaysBitIdentical) {
  const std::string memo_file =
      (std::filesystem::temp_directory_path() /
       ("svc-test-memo-" + std::to_string(::getpid()))).string();
  JobRequest j = Job("persist", "NW", /*iterations=*/4);
  Cycle want = Reference(j);

  ServiceOptions opt;
  opt.memo_file = memo_file;
  {
    SimulationService svc(opt);
    Response r = svc.SubmitAndWait(j);
    ASSERT_TRUE(r.ok) << r.error_message;
    EXPECT_EQ(r.cycles, want);
    svc.Stop();  // persists via atomic temp-file rename
  }
  ASSERT_TRUE(std::filesystem::exists(memo_file));

  // Fresh caches + a fresh service: every launch must replay from disk.
  MemoCache::Global().Clear();
  ProfileCache::Global().Clear();
  {
    SimulationService svc(opt);
    Response r = svc.SubmitAndWait(j);
    ASSERT_TRUE(r.ok) << r.error_message;
    EXPECT_EQ(r.cycles, want);
    EXPECT_EQ(r.memo_misses, 0u) << "reload simulated instead of replaying";
    EXPECT_GT(r.memo_hits, 0u);
  }
  std::filesystem::remove(memo_file);
}

// ---------------------------------------------------------------------------
// Coalescing.

TEST_F(ServiceTest, IdenticalInFlightJobsCoalesce) {
  ServiceOptions opt;
  opt.threads = 1;
  opt.max_concurrent = 1;  // one lane: followers must pile onto the leader
  SimulationService svc(opt);

  constexpr int kClients = 6;
  JobRequest j = Job("burst", "NW", /*iterations=*/2);
  Cycle want = Reference(j);

  // The lane delivers the blocker's response on its own thread, so a
  // callback that waits holds the lane. The leader then stays queued,
  // and in flight, until every twin has been submitted; a warm leader
  // cannot finish before a late twin arrives.
  std::mutex mu;
  std::condition_variable cv;
  bool all_submitted = false;
  std::atomic<bool> blocker_done{false};
  Response blocked;
  JobRequest blocker = Job("blocker", "BFS", /*iterations=*/1,
                           /*seed=*/0xb10c);
  Response rejection;
  ASSERT_TRUE(svc.Submit(
      blocker,
      [&](const Response& r) {
        std::unique_lock<std::mutex> lk(mu);
        cv.wait(lk, [&] { return all_submitted; });
        blocked = r;
        blocker_done.store(true);
      },
      &rejection))
      << rejection.error_message;

  std::vector<Response> got;
  std::atomic<int> pending{kClients};
  for (int i = 0; i < kClients; ++i) {
    JobRequest each = j;
    each.id = "burst-" + std::to_string(i);
    bool accepted = svc.Submit(
        each,
        [&](const Response& r) {
          std::lock_guard<std::mutex> lk(mu);
          got.push_back(r);
          pending.fetch_sub(1);
        },
        &rejection);
    if (!accepted) {
      // Release the lane before failing, or Stop() would wait forever.
      {
        std::lock_guard<std::mutex> lk(mu);
        all_submitted = true;
      }
      cv.notify_all();
      FAIL() << rejection.error_message;
    }
  }
  {
    std::lock_guard<std::mutex> lk(mu);
    all_submitted = true;
  }
  cv.notify_all();
  while (pending.load() > 0 || !blocker_done.load()) {
    std::this_thread::yield();
  }

  ASSERT_TRUE(blocked.ok) << blocked.error_message;
  EXPECT_FALSE(blocked.coalesced);
  ASSERT_EQ(got.size(), static_cast<std::size_t>(kClients));
  std::size_t coalesced = 0;
  for (const Response& r : got) {
    ASSERT_TRUE(r.ok) << r.id << ": " << r.error_message;
    EXPECT_EQ(r.cycles, want) << r.id << " fan-out diverged";
    if (r.coalesced) ++coalesced;
  }
  // The leader was admitted first; every later twin attached to it.
  EXPECT_EQ(coalesced, static_cast<std::size_t>(kClients - 1));
  EXPECT_EQ(svc.stats().coalesced, static_cast<std::uint64_t>(kClients - 1));
}

TEST_F(ServiceTest, DifferentConfigsDoNotCoalesce) {
  ServiceOptions opt;
  opt.threads = 1;
  opt.max_concurrent = 1;
  SimulationService svc(opt);
  JobRequest a = Job("cfg-a", "NW");
  JobRequest b = a;
  b.id = "cfg-b";
  b.config_ini = "[gpu]\nnum_sms = 1\n";
  Response ra = svc.SubmitAndWait(a);
  Response rb = svc.SubmitAndWait(b);
  ASSERT_TRUE(ra.ok && rb.ok);
  EXPECT_NE(ra.cycles, rb.cycles)
      << "1-SM config produced the default cycle count";
  EXPECT_EQ(svc.stats().coalesced, 0u);
}

TEST_F(ServiceTest, TwinsWithDifferentWallBudgetsDoNotCoalesce) {
  // The budgets differ below the precision the config INI prints, so
  // only an exact budget in the coalescing key tells them apart.
  ServiceOptions opt;
  opt.threads = 1;
  opt.max_concurrent = 1;  // one lane: the blocker keeps both twins queued
  SimulationService svc(opt);
  JobRequest blocker = Job("blocker", "BFS", /*iterations=*/1,
                           /*seed=*/0xb10c);
  JobRequest a = Job("budget-a", "NW");
  a.timeout_sec = 100.0000001;
  JobRequest b = a;
  b.id = "budget-b";
  b.timeout_sec = 100.0000002;

  std::mutex mu;
  std::vector<Response> got;
  std::atomic<int> pending{3};
  for (const JobRequest& j : {blocker, a, b}) {
    Response rejection;
    ASSERT_TRUE(svc.Submit(
        j,
        [&](const Response& r) {
          std::lock_guard<std::mutex> lk(mu);
          got.push_back(r);
          pending.fetch_sub(1);
        },
        &rejection))
        << rejection.error_message;
  }
  while (pending.load() > 0) std::this_thread::yield();
  for (const Response& r : got) {
    ASSERT_TRUE(r.ok) << r.id << ": " << r.error_message;
    EXPECT_FALSE(r.coalesced) << r.id << " inherited a twin's budget";
  }
  EXPECT_EQ(svc.stats().coalesced, 0u);
}

TEST_F(ServiceTest, RequestTimeoutSharesTheMemo) {
  // A wall budget drives the run; it does not change what is simulated,
  // so a timed request replays every launch an untimed one recorded.
  SimulationService svc(ServiceOptions{});
  const JobRequest plain = Job("plain", "BFS", /*iterations=*/4);
  const Response first = svc.SubmitAndWait(plain);
  ASSERT_TRUE(first.ok) << first.error_message;
  JobRequest timed = plain;
  timed.id = "timed";
  timed.timeout_sec = 100;
  const Response again = svc.SubmitAndWait(timed);
  ASSERT_TRUE(again.ok) << again.error_message;
  EXPECT_EQ(again.cycles, first.cycles);
  EXPECT_EQ(again.memo_hits, 8u);
  EXPECT_EQ(again.memo_misses, 0u);
}

TEST_F(ServiceTest, DaemonCacheCapsHoldAcrossJobs) {
  // The caps belong to the daemon: no job may lift them.
  struct Uncap {
    ~Uncap() {
      MemoCache::Global().SetLimits(0, 0);
      ProfileCache::Global().SetMaxEntries(0);
    }
  } uncap;
  ServiceOptions opt;
  opt.threads = 1;
  opt.memo_max_entries = 2;
  SimulationService svc(opt);
  for (const char* workload : {"BFS", "NW", "GEMM"}) {
    const Response r = svc.SubmitAndWait(Job(workload, workload));
    ASSERT_TRUE(r.ok) << workload << ": " << r.error_message;
  }
  EXPECT_LE(MemoCache::Global().size(), 2u);
  EXPECT_LE(ProfileCache::Global().size(), 2u);
}

// ---------------------------------------------------------------------------
// Admission control and per-request isolation.

TEST_F(ServiceTest, BoundedQueueRejectsOverloadWithTypedError) {
  ServiceOptions opt;
  opt.threads = 1;
  opt.max_concurrent = 1;
  opt.queue_capacity = 1;
  SimulationService svc(opt);

  std::atomic<int> done{0};
  std::size_t accepted = 0, queue_full = 0;
  // Distinct seeds defeat coalescing, so each job needs its own queue
  // slot; with one lane and one slot most of the burst must bounce.
  for (int i = 0; i < 8; ++i) {
    JobRequest j = Job("load-" + std::to_string(i), "NW", /*iterations=*/1,
                       /*seed=*/0x1000 + i);
    Response rejection;
    if (svc.Submit(j, [&](const Response&) { done.fetch_add(1); },
                   &rejection)) {
      ++accepted;
    } else {
      EXPECT_EQ(rejection.error, ErrorCode::kQueueFull);
      EXPECT_NE(rejection.error_message.find("queue full"), std::string::npos);
      ++queue_full;
    }
  }
  EXPECT_GE(queue_full, 1u) << "burst of 8 into capacity 1 never bounced";
  while (done.load() < static_cast<int>(accepted)) std::this_thread::yield();
  EXPECT_EQ(svc.stats().rejected, queue_full);
  EXPECT_EQ(svc.stats().completed, accepted);
}

TEST_F(ServiceTest, OversizedAndUnknownJobsRejectedBeforeAdmission) {
  SimulationService svc(ServiceOptions{});
  Response rejection;
  JobRequest big = Job("big", "NW");
  big.scale = 100.0;
  EXPECT_FALSE(svc.Submit(big, [](const Response&) {}, &rejection));
  EXPECT_EQ(rejection.error, ErrorCode::kOversized);

  JobRequest ghost = Job("ghost", "NO_SUCH_WORKLOAD");
  EXPECT_FALSE(svc.Submit(ghost, [](const Response&) {}, &rejection));
  EXPECT_EQ(rejection.error, ErrorCode::kUnknownWorkload);

  JobRequest bad_cfg = Job("bad-cfg", "NW");
  bad_cfg.config_ini = "[gpu]\nno_such_knob = 1\n";
  EXPECT_FALSE(svc.Submit(bad_cfg, [](const Response&) {}, &rejection));
  EXPECT_EQ(rejection.error, ErrorCode::kBadConfig);
  EXPECT_NE(rejection.error_message.find("no_such_knob"), std::string::npos);
}

TEST_F(ServiceTest, InvalidConfigValueNamesTheFieldNotTheSource) {
  // A value that parses but fails validation is the client's mistake: the
  // rejection names the field and carries no source file location.
  SimulationService svc(ServiceOptions{});
  Response rejection;
  JobRequest zero_sms = Job("zero-sms", "NW");
  zero_sms.config_ini = "[gpu]\nnum_sms = 0\n";
  EXPECT_FALSE(svc.Submit(zero_sms, [](const Response&) {}, &rejection));
  EXPECT_EQ(rejection.error, ErrorCode::kBadConfig);
  EXPECT_NE(rejection.error_message.find("num_sms"), std::string::npos)
      << rejection.error_message;
  EXPECT_FALSE(std::regex_search(rejection.error_message,
                                 std::regex(R"(\.(cc|h):[0-9]+)")))
      << rejection.error_message;
}

TEST_F(ServiceTest, WatchdogTimeoutIsIsolatedAndServiceKeepsServing) {
  SimulationService svc(ServiceOptions{});
  // A fresh seed forces real simulation; a sub-microsecond wall budget
  // trips the §11 watchdog inside the first kernel.
  JobRequest doomed = Job("doomed", "BFS", /*iterations=*/1,
                          /*seed=*/0xdead0001);
  doomed.timeout_sec = 1e-6;
  Response r = svc.SubmitAndWait(doomed);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.error, ErrorCode::kSimTimeout);
  EXPECT_EQ(r.status, "timeout");
  EXPECT_EQ(svc.stats().timeouts, 1u);

  // The daemon stays up: the next (healthy) job completes bit-identically.
  JobRequest fine = Job("fine", "NW");
  Cycle want = Reference(fine);
  Response ok = svc.SubmitAndWait(fine);
  ASSERT_TRUE(ok.ok) << ok.error_message;
  EXPECT_EQ(ok.cycles, want);
}

TEST_F(ServiceTest, WallBudgetBeyondTheClockNeverExpires) {
  SimulationService svc(ServiceOptions{});
  JobRequest far = Job("far", "BFS", /*iterations=*/1, /*seed=*/0xfa4);
  far.timeout_sec = 1e300;
  const Response r = svc.SubmitAndWait(far);
  EXPECT_TRUE(r.ok) << r.error_message;
  EXPECT_EQ(r.cycles, Reference(far));
}

// ---------------------------------------------------------------------------
// Transport loop.

TEST_F(ServiceTest, ServeLinesHandlesMixedOpsAndShutsDown) {
  SimulationService svc(ServiceOptions{});
  Cycle want = Reference(Job("", "NW", /*iterations=*/2));
  std::istringstream in(
      R"({"op":"ping","id":"p"})"
      "\n"
      R"({"op":"simulate","id":"s1","workload":"NW","scale":0.05,)"
      R"("iterations":2})"
      "\n"
      R"({"op":"stats","id":"st"})"
      "\n"
      R"({"op":"shutdown","id":"bye"})"
      "\n");
  std::ostringstream out;
  ServeResult res = ServeLines(in, out, svc);
  EXPECT_TRUE(res.shutdown);
  EXPECT_EQ(res.handled, 4u);

  std::istringstream lines(out.str());
  std::string line;
  bool saw_pong = false, saw_sim = false, saw_stats = false, saw_bye = false;
  while (std::getline(lines, line)) {
    JsonValue v = ParseJson(line);
    const std::string id = v.Find("id")->AsString();
    if (id == "p") saw_pong = v.Find("status")->AsString() == "pong";
    if (id == "s1") {
      saw_sim = v.Find("ok")->AsBool();
      EXPECT_EQ(v.Find("cycles")->AsUint(), want);
    }
    if (id == "st") saw_stats = v.Find("stats") != nullptr;
    if (id == "bye") saw_bye = v.Find("status")->AsString() == "shutting_down";
  }
  EXPECT_TRUE(saw_pong && saw_sim && saw_stats && saw_bye);
}

// ---------------------------------------------------------------------------
// Concurrency hammers (the tsan targets).

TEST_F(ServiceTest, ConcurrentClientsShareWarmStateRaceFree) {
  ServiceOptions opt;
  opt.threads = 2;
  opt.max_concurrent = 2;
  SimulationService svc(opt);
  const Cycle want_nw = Reference(Job("", "NW", /*iterations=*/1));
  const Cycle want_bfs = Reference(Job("", "BFS", /*iterations=*/1));

  constexpr int kThreads = 4;
  constexpr int kPerThread = 3;
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  clients.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        // Half the clients hit the same two hot jobs (coalescing + warm
        // replay), half scatter across seeds (cold simulation) — both
        // sides race on the same global caches.
        const bool hot = (t + i) % 2 == 0;
        JobRequest j = Job("c" + std::to_string(t) + "-" + std::to_string(i),
                           hot ? ((t % 2) ? "BFS" : "NW") : "NW",
                           /*iterations=*/1,
                           hot ? 0x5eed5eedULL : 0x9000 + t * 16 + i);
        Response r = svc.SubmitAndWait(j);
        if (!r.ok) {
          failures.fetch_add(1);
          continue;
        }
        if (hot && r.cycles != ((t % 2) ? want_bfs : want_nw)) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& c : clients) c.join();
  EXPECT_EQ(failures.load(), 0);
  ServiceStats s = svc.stats();
  EXPECT_EQ(s.completed + s.coalesced, kThreads * kPerThread);
}

TEST_F(ServiceTest, GlobalCachesSurviveDirectConcurrentHammer) {
  // Raw cache races a service deployment creates: lanes replaying and
  // recording launches, the stats reporter sizing the caches, and a
  // shutdown path saving to disk — all at once.
  Application app = BuildWorkload("NW", {kScale, 0x5eed5eedULL});
  GpuConfig cfg;
  const std::string dump =
      (std::filesystem::temp_directory_path() /
       ("svc-test-hammer-" + std::to_string(::getpid()))).string();

  constexpr int kThreads = 4;
  std::atomic<bool> stop{false};
  std::atomic<int> errors{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      try {
        for (int i = 0; i < 3; ++i) {
          switch (t % 3) {
            case 0:  // replay/record through the full memoized path
              (void)RunSimulation(app, cfg, SimLevel::kSwiftSimMemory);
              break;
            case 1:  // reader side: sizes and persistence
              while (!stop.load()) {
                (void)MemoCache::Global().size();
                (void)MemoCache::Global().bytes();
                (void)ProfileCache::Global().size();
                MemoCache::Global().SaveToFile(dump);
                std::this_thread::yield();
              }
              return;
            default:  // cache-churn side: caps force concurrent eviction
              MemoCache::Global().SetLimits(/*max_entries=*/64,
                                            /*max_bytes=*/0);
              (void)RunSimulation(app, cfg, SimLevel::kSwiftSimMemory);
              break;
          }
        }
      } catch (const std::exception&) {
        errors.fetch_add(1);
      }
    });
  }
  // Let the simulating threads finish, then release the reader loop.
  for (std::size_t t = 0; t < workers.size(); ++t) {
    if (t % 3 != 1) workers[t].join();
  }
  stop.store(true);
  for (std::size_t t = 0; t < workers.size(); ++t) {
    if (t % 3 == 1) workers[t].join();
  }
  EXPECT_EQ(errors.load(), 0);
  MemoCache::Global().SetLimits(0, 0);
  std::filesystem::remove(dump);

  // The persisted snapshot is loadable (atomic rename: never truncated).
  MemoCache::Global().Clear();
}

TEST_F(ServiceTest, BuiltTraceCacheSharedAcrossRacingLanes) {
  // Many lanes requesting the same fingerprint must build the trace at
  // most a handful of times (the LRU in front of BuildWorkloadCached) and
  // serve everyone the same immutable Application.
  ServiceOptions opt;
  opt.threads = 2;
  opt.max_concurrent = 2;
  opt.app_cache_entries = 2;
  SimulationService svc(opt);

  std::vector<std::thread> clients;
  std::atomic<int> failures{0};
  for (int t = 0; t < 4; ++t) {
    clients.emplace_back([&, t] {
      for (int i = 0; i < 2; ++i) {
        // Three distinct fingerprints churning a 2-slot LRU from 4 threads.
        JobRequest j = Job("lru-" + std::to_string(t) + "-" +
                               std::to_string(i),
                           "NW", /*iterations=*/1, 0x7000 + (t + i) % 3);
        Response r = svc.SubmitAndWait(j);
        if (!r.ok) failures.fetch_add(1);
      }
    });
  }
  for (std::thread& c : clients) c.join();
  EXPECT_EQ(failures.load(), 0);
  ServiceStats s = svc.stats();
  EXPECT_EQ(s.app_cache_hits + s.app_cache_misses + svc.stats().coalesced,
            8u);
  EXPECT_GE(s.app_cache_misses, 3u);  // three fingerprints, each built
}

// ---------------------------------------------------------------------------
// Supervisor crash matrix (DESIGN.md §16). The fake workers below run in
// a real forked child, exactly like the production WorkerMain — a "crash"
// is a genuine process death the supervisor has to reap and recover from.

bool ChildReadLine(int fd, std::string* out) {
  out->clear();
  char c;
  for (;;) {
    const ssize_t n = ::read(fd, &c, 1);
    if (n == 0) return !out->empty();
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (c == '\n') return true;
    out->push_back(c);
  }
}

void ChildWriteLine(int fd, const std::string& s) {
  const std::string line = s + "\n";
  std::size_t off = 0;
  while (off < line.size()) {
    const ssize_t n = ::write(fd, line.data() + off, line.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return;
    }
    off += static_cast<std::size_t>(n);
  }
}

/// Answers every request line with {"id":...,"ok":true} until client EOF.
int EchoWorker(int in_fd, int out_fd) {
  std::string line;
  while (ChildReadLine(in_fd, &line)) {
    ChildWriteLine(out_fd,
                   "{\"id\":\"" + service::RequestLineId(line, Limits{}) +
                       "\",\"ok\":true}");
  }
  return 0;
}

struct SessionResult {
  int exit_code = -1;
  std::vector<std::string> replies;
  service::SupervisorStats stats;
};

/// Feeds `lines` through Serve's client transport and collects the
/// responses. The reader thread inside Serve pulls them one by one, so
/// this exercises the real pending/forwarding path.
SessionResult RunSession(service::SupervisorOptions opt,
                         service::Supervisor::WorkerMain worker,
                         const std::vector<std::string>& lines) {
  opt.backoff_initial_ms = 1;  // keep crash loops fast under test
  opt.backoff_max_ms = 5;
  service::Supervisor sup(std::move(opt), std::move(worker));
  std::mutex mu;
  SessionResult r;
  std::size_t next = 0;
  r.exit_code = sup.Serve(
      [&](std::string* out) {
        if (next >= lines.size()) return false;
        *out = lines[next++];
        return true;
      },
      [&](const std::string& line) {
        std::lock_guard<std::mutex> lock(mu);
        r.replies.push_back(line);
      });
  r.stats = sup.stats();
  return r;
}

bool ReplyOk(const std::string& line) {
  const JsonValue v = ParseJson(line);
  const JsonValue* ok = v.Find("ok");
  return ok != nullptr && ok->AsBool();
}

std::string ReplyError(const std::string& line) {
  const JsonValue v = ParseJson(line);
  const JsonValue* err = v.Find("error");
  return err != nullptr && err->is_string() ? err->AsString() : "";
}

TEST(Supervisor, RequestLineIdCorrelatesLikeTheService) {
  EXPECT_EQ(service::RequestLineId(R"({"op":"ping","id":"p1"})", Limits{}),
            "p1");
  EXPECT_EQ(service::RequestLineId(
                R"({"op":"simulate","id":"j9","workload":"BFS"})", Limits{}),
            "j9");
  // Malformed beyond an id: correlate by nothing, like the worker would.
  EXPECT_EQ(service::RequestLineId("not json at all", Limits{}), "");
  // Malformed but carrying an id: the worker echoes it, so must we.
  EXPECT_EQ(service::RequestLineId(R"({"op":"simulate","id":"bad"})",
                                   Limits{}),
            "bad");
}

// The daemon's one line transport (supervisor pipes, worker pipe ends and
// socket connections): a signal that interrupts a blocked read is retried,
// not taken for EOF, and a final unterminated line still arrives.
TEST(Supervisor, LineTransportRetriesInterruptedReads) {
  struct sigaction sa {};
  sa.sa_handler = [](int) {};
  sa.sa_flags = 0;  // no SA_RESTART: a blocked read() fails with EINTR
  struct sigaction old {};
  ASSERT_EQ(::sigaction(SIGUSR2, &sa, &old), 0);
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  std::vector<std::string> lines;
  std::thread reader([&] {
    std::string buffer;
    std::string line;
    while (service::ReadLineFd(fds[0], &buffer, &line)) lines.push_back(line);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  ::pthread_kill(reader.native_handle(), SIGUSR2);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_TRUE(service::WriteAllFd(fds[1], "one\ntwo"));
  ::close(fds[1]);
  reader.join();
  ::close(fds[0]);
  ::sigaction(SIGUSR2, &old, nullptr);
  EXPECT_EQ(lines, (std::vector<std::string>{"one", "two"}));
}

TEST(Supervisor, CleanSessionServesAndExitsZero) {
  service::SupervisorOptions opt;
  const auto r = RunSession(
      opt, [](int in, int out, const ServiceOptions&) {
        return EchoWorker(in, out);
      },
      {R"({"op":"ping","id":"a"})", R"({"op":"ping","id":"b"})",
       R"({"op":"ping","id":"c"})"});
  EXPECT_EQ(r.exit_code, 0);
  ASSERT_EQ(r.replies.size(), 3u);
  for (const std::string& line : r.replies) EXPECT_TRUE(ReplyOk(line));
  EXPECT_EQ(r.stats.restarts, 0u);
  EXPECT_EQ(r.stats.crashed_jobs, 0u);
}

TEST(Supervisor, CrashMidJobRestartsReplaysAndAnswers) {
  // First incarnation reads one request and dies by signal; the snapshot
  // sup_restarts field tells the replacement to behave.
  service::SupervisorOptions opt;
  opt.max_restarts = 3;
  opt.max_job_retries = 1;
  const auto r = RunSession(
      opt,
      [](int in, int out, const ServiceOptions& sopt) {
        // gtest macros don't report across fork — fail by exit code.
        if (!sopt.supervised) ::_Exit(42);
        if (sopt.sup_restarts == 0) {
          std::string line;
          ChildReadLine(in, &line);
          ::raise(SIGKILL);
        }
        return EchoWorker(in, out);
      },
      {R"({"op":"ping","id":"k1"})", R"({"op":"ping","id":"k2"})"});
  EXPECT_EQ(r.exit_code, 0);
  ASSERT_EQ(r.replies.size(), 2u);
  for (const std::string& line : r.replies) EXPECT_TRUE(ReplyOk(line));
  EXPECT_EQ(r.stats.restarts, 1u);
  EXPECT_GE(r.stats.jobs_replayed, 1u);
  EXPECT_GE(r.stats.retries, 1u);
  EXPECT_EQ(r.stats.crashed_jobs, 0u);
}

TEST(Supervisor, JobThatKeepsKillingWorkersGetsWorkerCrashed) {
  // Every incarnation dies on the poison job. After max_job_retries the
  // client gets the typed worker_crashed answer instead of another replay,
  // and the session still ends cleanly.
  service::SupervisorOptions opt;
  opt.max_restarts = 10;
  opt.max_job_retries = 1;
  const auto r = RunSession(
      opt,
      [](int in, int out, const ServiceOptions&) {
        std::string line;
        if (ChildReadLine(in, &line)) ::raise(SIGKILL);
        return EchoWorker(in, out);
      },
      {R"({"op":"ping","id":"poison"})"});
  EXPECT_EQ(r.exit_code, 0);
  ASSERT_EQ(r.replies.size(), 1u);
  EXPECT_FALSE(ReplyOk(r.replies[0]));
  EXPECT_EQ(ReplyError(r.replies[0]), "worker_crashed");
  EXPECT_EQ(r.stats.crashed_jobs, 1u);
  EXPECT_EQ(r.stats.restarts, 2u);  // crash, retry-crash, then give up
}

TEST(Supervisor, RestartBudgetExhaustionFailsPendingAndExitsNonZero) {
  // The worker accepts the job then dies every time; with a huge per-job
  // budget it is the restart budget that runs out.
  service::SupervisorOptions opt;
  opt.max_restarts = 1;
  opt.max_job_retries = 100;
  const auto r = RunSession(
      opt,
      [](int in, int, const ServiceOptions&) {
        std::string line;
        ChildReadLine(in, &line);
        ::_Exit(7);
        return 7;
      },
      {R"({"op":"ping","id":"doomed"})"});
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_EQ(r.stats.restarts, 2u);  // the 2nd crash breached the budget
  ASSERT_EQ(r.replies.size(), 1u);
  EXPECT_EQ(ReplyError(r.replies[0]), "worker_crashed");
}

}  // namespace
}  // namespace swiftsim
