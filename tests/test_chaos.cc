// Chaos suite for the resilient runtime (DESIGN.md §11): deterministic
// fault plans driven through the cycle-accurate driver, directly and
// through the parallel batch runner's app lanes. Under every survivable
// plan the simulation must complete with its conservation invariants
// intact (same instructions as the clean run, identical results across
// direct/batch runs and across repeats); the deliberate
// livelock fixtures must trip the watchdog or wedge detector with a
// typed SimHangError and a diagnostic dump that names the stalled
// SM/warp — never hang, never crash. With injection and the watchdog
// disabled (or armed but never tripping) every SimLevel stays
// bit-identical to the seed behaviour.
#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include "common/status.h"
#include "config/ini.h"
#include "config/presets.h"
#include "swiftsim/fault_inject.h"
#include "swiftsim/parallel.h"
#include "swiftsim/service.h"
#include "swiftsim/simulator.h"
#include "workloads/patterns.h"
#include "workloads/workload.h"

namespace swiftsim {
namespace {

GpuConfig SmallGpu() {
  GpuConfig cfg = Rtx2080TiConfig();
  cfg.num_sms = 4;
  cfg.num_mem_partitions = 2;
  return cfg;
}

RunOptions Backstops() {
  // Backstops so a resilience bug fails the test instead of hanging CI;
  // both are far above anything a survivable plan can trigger.
  RunOptions options;
  options.model.watchdog.stall_cycles = 500000;
  options.model.watchdog.wall_seconds = 120;
  return options;
}

Application SmallApp(const std::string& name, double scale = 0.02) {
  WorkloadScale s;
  s.scale = scale;
  return BuildWorkload(name, s);
}

std::string ReadAll(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// A kernel no SM can host: the launch feasibility check throws SimError
/// at BeginKernel on every level, including the analytical fallback.
Application Poisoned(Application app) {
  auto& first = app.kernels.front();
  KernelInfo info = first->info();
  info.smem_bytes_per_cta = 1u << 30;
  std::vector<CtaTrace> variants;
  variants.reserve(first->num_variants());
  for (std::size_t v = 0; v < first->num_variants(); ++v) {
    variants.push_back(first->variant(v));
  }
  first = std::make_shared<KernelTrace>(info, std::move(variants));
  app.name += "_poisoned";
  return app;
}

void ExpectSameRun(const SimResult& a, const SimResult& b,
                   const std::string& what) {
  EXPECT_EQ(a.total_cycles, b.total_cycles) << what;
  EXPECT_EQ(a.instructions, b.instructions) << what;
  ASSERT_EQ(a.kernels.size(), b.kernels.size()) << what;
  for (std::size_t k = 0; k < a.kernels.size(); ++k) {
    EXPECT_EQ(a.kernels[k].cycles, b.kernels[k].cycles)
        << what << " kernel " << a.kernels[k].name;
    EXPECT_EQ(a.kernels[k].instructions, b.kernels[k].instructions)
        << what << " kernel " << a.kernels[k].name;
  }
}

// gtest spells an unprintable parameter into each case's listed name as
// its leading raw bytes, so the flags lead: a pointer first would put a
// load address into the name and change it from build to build.
struct PlanCase {
  bool expect_delays = false;
  bool expect_drops = false;
  const char* label;
  FaultPlan plan;
};

std::vector<PlanCase> SurvivablePlans() {
  std::vector<PlanCase> cases;
  {
    PlanCase c;
    c.label = "none";
    c.plan.name = "none";
    cases.push_back(c);
  }
  {
    PlanCase c;
    c.label = "delay_light";
    c.plan.name = "delay_light";
    c.plan.resp_delay_p = 0.2;
    c.plan.resp_delay_cycles = 7;
    c.expect_delays = true;
    cases.push_back(c);
  }
  {
    PlanCase c;
    c.label = "delay_heavy";
    c.plan.name = "delay_heavy";
    c.plan.resp_delay_p = 1.0;
    c.plan.resp_delay_cycles = 50;
    c.expect_delays = true;
    cases.push_back(c);
  }
  {
    PlanCase c;
    c.label = "drop_retry";
    c.plan.name = "drop_retry";
    c.plan.resp_drop_p = 0.1;
    c.plan.resp_retry_cycles = 30;
    c.plan.resp_max_drops = 3;
    c.expect_drops = true;
    cases.push_back(c);
  }
  {
    PlanCase c;
    c.label = "drop_heavy";
    c.plan.name = "drop_heavy";
    c.plan.resp_drop_p = 0.5;
    c.plan.resp_retry_cycles = 100;
    c.plan.resp_max_drops = 5;
    c.expect_drops = true;
    cases.push_back(c);
  }
  {
    PlanCase c;
    c.label = "issue_freeze";
    c.plan.name = "issue_freeze";
    c.plan.issue_stall_p = 0.3;
    c.plan.issue_stall_cycles = 20;
    cases.push_back(c);
  }
  {
    PlanCase c;
    c.label = "storm";
    c.plan.name = "storm";
    c.plan.storm_p = 0.5;
    c.plan.storm_cycles = 16;
    cases.push_back(c);
  }
  {
    PlanCase c;
    c.label = "combo";
    c.plan.name = "combo";
    c.plan.resp_delay_p = 0.3;
    c.plan.resp_delay_cycles = 9;
    c.plan.resp_drop_p = 0.2;
    c.plan.resp_retry_cycles = 40;
    c.plan.resp_max_drops = 2;
    c.plan.issue_stall_p = 0.1;
    c.plan.issue_stall_cycles = 12;
    c.plan.storm_p = 0.2;
    c.plan.storm_cycles = 8;
    c.expect_delays = true;
    c.expect_drops = true;
    cases.push_back(c);
  }
  return cases;
}

class ChaosSuite : public ::testing::TestWithParam<PlanCase> {};

TEST_P(ChaosSuite, CompletesWithInvariantsSeriallyAndParallel) {
  const PlanCase& c = GetParam();
  const GpuConfig cfg = SmallGpu();
  const ModelSettings backstops = Backstops().model;
  for (const char* workload : {"BFS", "SM"}) {
    const Application app = SmallApp(workload);

    GpuModel clean(cfg, SelectionFor(SimLevel::kDetailed), nullptr,
                   backstops);
    const SimResult baseline = clean.RunApplication(app);

    FaultInjector serial_inj(c.plan, cfg.num_sms);
    GpuModel model(cfg, SelectionFor(SimLevel::kDetailed), nullptr,
                   backstops);
    model.ArmFaults(&serial_inj);
    const SimResult faulted = model.RunApplication(app);

    // Conservation: every traced instruction still retires; faults move
    // work in time, they never lose it.
    EXPECT_EQ(faulted.instructions, baseline.instructions)
        << c.label << "/" << workload;
    EXPECT_GT(faulted.total_cycles, 0u) << c.label << "/" << workload;
    if (c.expect_delays) {
      EXPECT_GT(serial_inj.delayed(), 0u) << c.label;
    }
    if (c.expect_drops) {
      // Every custody chain ends in a redelivery (drops are bounded) and
      // the completed run holds nothing back. `redelivered` counts all
      // releases — delayed as well as dropped responses.
      EXPECT_GT(serial_inj.dropped(), 0u) << c.label;
      EXPECT_GE(serial_inj.delayed() + serial_inj.dropped(),
                serial_inj.redelivered())
          << c.label;
      EXPECT_FALSE(serial_inj.AnyHeld()) << c.label;
    }
    if (!c.plan.AnyRuntime()) {
      // Armed-but-empty plan: the hook seam itself must be invisible.
      ExpectSameRun(baseline, faulted, std::string(c.label) + " neutrality");
    }

    // Determinism: the same plan replays the same faults.
    FaultInjector repeat_inj(c.plan, cfg.num_sms);
    GpuModel repeat(cfg, SelectionFor(SimLevel::kDetailed), nullptr,
                    backstops);
    repeat.ArmFaults(&repeat_inj);
    ExpectSameRun(faulted, repeat.RunApplication(app),
                  std::string(c.label) + "/" + workload + " repeat");

    // Stateless decisions: two concurrent batch lanes arming the same
    // plan each replay the identical fault schedule.
    RunOptions options = Backstops();
    options.fault_plan = &c.plan;
    const ParallelBatchResult batch =
        RunAppsParallel({app, app}, cfg, SimLevel::kDetailed, 2, options);
    for (const SimResult& par : batch.results) {
      ExpectSameRun(faulted, par,
                    std::string(c.label) + "/" + workload + " parallel");
    }
  }
}

INSTANTIATE_TEST_SUITE_P(All, ChaosSuite,
                         ::testing::ValuesIn(SurvivablePlans()),
                         [](const ::testing::TestParamInfo<PlanCase>& info) {
                           return std::string(info.param.label);
                         });

TEST(Chaos, FreezeForeverTripsCycleWatchdog) {
  // issue_stall_p = 1 freezes every SM in every window: the clock spins
  // with zero forward progress until the cycle watchdog trips.
  FaultPlan plan;
  plan.name = "freeze_forever";
  plan.issue_stall_p = 1.0;
  plan.issue_stall_cycles = 64;
  GpuConfig cfg = SmallGpu();
  ModelSettings settings = Backstops().model;
  settings.watchdog.stall_cycles = 5000;
  settings.watchdog.dump_dir = testing::TempDir() + "chaos_dumps";
  const Application app = SmallApp("SM");
  FaultInjector inj(plan, cfg.num_sms);
  GpuModel model(cfg, SelectionFor(SimLevel::kDetailed), nullptr, settings);
  model.ArmFaults(&inj);
  try {
    model.RunApplication(app);
    FAIL() << "expected SimHangError";
  } catch (const SimHangError& e) {
    EXPECT_EQ(e.kind(), SimHangError::Kind::kNoProgress);
    const std::string what = e.what();
    EXPECT_NE(what.find("no forward progress"), std::string::npos) << what;
    EXPECT_NE(what.find(app.kernels.front()->info().name),
              std::string::npos)
        << what;
    // Trips within a small multiple of the configured window.
    EXPECT_LT(model.now(), Cycle{3} * settings.watchdog.stall_cycles);
    ASSERT_FALSE(e.dump_path().empty());
    const std::string dump = ReadAll(e.dump_path());
    EXPECT_NE(dump.find("\"stalled\""), std::string::npos) << dump;
    EXPECT_NE(dump.find("\"sm\""), std::string::npos) << dump;
    EXPECT_NE(dump.find("\"warp\""), std::string::npos) << dump;
    EXPECT_NE(dump.find("\"resource\""), std::string::npos) << dump;
  }
}

TEST(Chaos, DropForeverWedgesInsteadOfHanging) {
  // Every response swallowed with no redelivery: once the queues drain
  // there is no future event, and the driver must detect the wedge
  // rather than skip to the end of time or spin forever.
  FaultPlan plan;
  plan.name = "drop_forever";
  plan.resp_drop_p = 1.0;
  plan.resp_max_drops = 0;  // never redeliver
  GpuConfig cfg = SmallGpu();
  ModelSettings settings = Backstops().model;
  settings.cycle_skip = true;
  settings.watchdog.dump_dir = testing::TempDir() + "chaos_dumps";
  const Application app = SmallApp("BFS");
  FaultInjector inj(plan, cfg.num_sms);
  GpuModel model(cfg, SelectionFor(SimLevel::kDetailed), nullptr, settings);
  model.ArmFaults(&inj);
  try {
    model.RunApplication(app);
    FAIL() << "expected SimHangError";
  } catch (const SimHangError& e) {
    EXPECT_NE(e.kind(), SimHangError::Kind::kWallClock) << e.what();
    ASSERT_FALSE(e.dump_path().empty());
    const std::string dump = ReadAll(e.dump_path());
    EXPECT_NE(dump.find("\"stalled\""), std::string::npos) << dump;
    EXPECT_NE(dump.find("\"faults_held\""), std::string::npos) << dump;
  }
  EXPECT_GT(inj.dropped(), 0u);
}

TEST(Chaos, DegradeOnHangFallsBackAnalytically) {
  FaultPlan plan;
  plan.name = "drop_forever";
  plan.resp_drop_p = 1.0;
  plan.resp_max_drops = 0;
  GpuConfig cfg = SmallGpu();
  RunOptions options = Backstops();
  options.model.cycle_skip = true;
  options.degrade_on_hang = true;
  options.model.watchdog.dump_dir = testing::TempDir() + "chaos_dumps";
  options.fault_plan = &plan;
  const Application app = SmallApp("BFS");
  const SimResult r = RunSimulation(app, cfg, SimLevel::kDetailed, options);
  ASSERT_EQ(r.kernels.size(), app.kernels.size());
  ASSERT_GE(r.degrades.size(), 1u);
  for (const auto& ev : r.degrades) {
    EXPECT_FALSE(ev.kernel.empty());
    EXPECT_FALSE(ev.reason.empty());
  }
  EXPECT_GT(r.instructions, 0u);
  EXPECT_GT(r.total_cycles, 0u);
  const auto it = r.metrics.find("driver.degrade_events");
  ASSERT_NE(it, r.metrics.end());
  EXPECT_EQ(it->second, r.degrades.size());
}

/// An 8-CTA kernel of integer ALU work only: it issues no memory request.
std::shared_ptr<KernelTrace> AluOnlyKernel() {
  WarpTrace warp;
  WarpEmitter e(&warp);
  e.IntBlock(0x100, 64, {10, 11, 12, 13});
  e.Exit(0x100 + 8 * 64);
  KernelInfo info;
  info.name = "alu_only";
  info.id = 1;
  info.num_ctas = 8;
  CtaTrace cta;
  cta.warps = {warp};
  return std::make_shared<KernelTrace>(info, std::vector<CtaTrace>{cta});
}

TEST(Chaos, DegradeResumesWithEmptyFaultCustody) {
  // A degrade discards the hung model and resumes on a fresh one armed
  // with the same injector. The responses dropped forever for the old
  // model must not follow: the ALU-only kernel after it has nothing in
  // flight, so inherited custody could only wedge it.
  FaultPlan plan;
  plan.name = "drop_forever";
  plan.resp_drop_p = 1.0;
  plan.resp_max_drops = 0;
  RunOptions options = Backstops();
  options.memo = false;
  options.degrade_on_hang = true;
  options.fault_plan = &plan;
  Application app = SmallApp("BFS");
  app.kernels.resize(1);
  ASSERT_EQ(app.kernels[0]->info().name, "bfs_level0");
  app.kernels.push_back(AluOnlyKernel());
  const SimResult r =
      RunSimulation(app, SmallGpu(), SimLevel::kDetailed, options);
  ASSERT_EQ(r.kernels.size(), 2u);
  ASSERT_EQ(r.degrades.size(), 1u);
  EXPECT_EQ(r.degrades[0].kernel, "bfs_level0");
  EXPECT_EQ(r.kernels[1].instructions, app.kernels[1]->TotalInstrs());
  // The drops counted on the discarded model are still reported.
  EXPECT_GT(r.metrics.at("fault.responses_dropped"), 0u);
}

TEST(Chaos, RetryExhaustionRethrowsWhenDegradeOff) {
  FaultPlan plan;
  plan.name = "drop_forever";
  plan.resp_drop_p = 1.0;
  plan.resp_max_drops = 0;
  GpuConfig cfg = SmallGpu();
  RunOptions options = Backstops();
  options.model.cycle_skip = true;
  options.degrade_on_hang = false;
  options.fault_plan = &plan;
  const Application app = SmallApp("SM");
  EXPECT_THROW(RunSimulation(app, cfg, SimLevel::kDetailed, options),
               SimHangError);
}

TEST(Chaos, BatchIsolationCompletesAroundPoisonedApp) {
  const GpuConfig cfg = SmallGpu();
  const std::vector<Application> apps = {SmallApp("BFS"),
                                         Poisoned(SmallApp("SM")),
                                         SmallApp("PAGERANK")};
  const RunOptions options = Backstops();
  const ParallelBatchResult batch =
      RunAppsParallel(apps, cfg, SimLevel::kSwiftSimMemory, 2, options);
  ASSERT_EQ(batch.results.size(), 3u);
  ASSERT_EQ(batch.statuses.size(), 3u);
  EXPECT_EQ(batch.statuses[0].status, AppStatus::kOk);
  EXPECT_EQ(batch.statuses[2].status, AppStatus::kOk);
  EXPECT_EQ(batch.statuses[1].status, AppStatus::kFailed);
  EXPECT_FALSE(batch.statuses[1].error.empty());
  // The healthy apps' results match their standalone runs.
  const SimResult solo = RunSimulation(apps[0], cfg, SimLevel::kSwiftSimMemory);
  EXPECT_EQ(batch.results[0].total_cycles, solo.total_cycles);
  EXPECT_GT(batch.results[2].total_cycles, 0u);
  EXPECT_STREQ(ToString(AppStatus::kFailed), "failed");
}

TEST(Chaos, OneClassifierAcrossSurfaces) {
  // The run pipeline classifies each failure once; the isolated batch and
  // the daemon each keep their own spelling of that classification.
  struct Case {
    const char* label;
    const char* config_ini;
    double timeout_sec;  // per-app wall budget; 0 = none
    bool degrade;        // degrade_on_hang
    AppStatus status;    // pipeline and batch
    const char* wire;    // daemon response status
  };
  // A 1 ns budget expires at the watchdog's first wall-clock check; 32
  // registers per SM cannot host a single CTA.
  const Case cases[] = {
      {"healthy", "", 0, false, AppStatus::kOk, "ok"},
      {"degraded", "", 1e-9, true, AppStatus::kDegraded, "degraded"},
      {"wall_budget", "", 1e-9, false, AppStatus::kTimedOut, "timeout"},
      {"poisoned", "[gpu]\nregisters_per_sm = 32\n", 0, false,
       AppStatus::kFailed, "failed"},
  };
  service::JobRequest job;
  job.workload = "GEMM";
  job.level = SimLevel::kDetailed;
  const Application app = BuildWorkload(job.workload, {job.scale, job.seed});
  for (const Case& c : cases) {
    const GpuConfig cfg =
        GpuConfig::FromIni(IniFile::ParseString(c.config_ini), GpuConfig());
    RunOptions options;
    options.model.watchdog.wall_seconds = c.timeout_sec;
    options.degrade_on_hang = c.degrade;
    const RunOutcome run = swiftsim::Run({app, cfg, job.level, options});
    EXPECT_EQ(run.outcome.status, c.status) << c.label;
    EXPECT_EQ(run.error == nullptr, c.status == AppStatus::kOk ||
                                        c.status == AppStatus::kDegraded)
        << c.label;

    const ParallelBatchResult batch =
        RunAppsParallel({app}, cfg, job.level, 1, options);
    EXPECT_EQ(batch.statuses.at(0).status, c.status) << c.label;

    service::ServiceOptions opts;
    opts.threads = 1;
    opts.degrade_on_hang = c.degrade;
    service::SimulationService svc(opts);
    job.id = c.label;
    job.config_ini = c.config_ini;
    job.timeout_sec = c.timeout_sec;
    const service::Response r = svc.SubmitAndWait(job);
    EXPECT_EQ(r.status, c.wire) << c.label << ": " << r.error_message;
  }
}

TEST(Chaos, LegacyBatchOverloadStillFailsFast) {
  const GpuConfig cfg = SmallGpu();
  const std::vector<Application> apps = {SmallApp("BFS"),
                                         Poisoned(SmallApp("SM"))};
  EXPECT_THROW(RunAppsParallel(apps, cfg, SimLevel::kSwiftSimMemory, 2),
               SimError);
}

TEST(Chaos, TraceTruncationStaysValidAndCompletes) {
  FaultPlan plan;
  plan.name = "truncate";
  plan.trace_truncate_p = 1.0;
  const Application app = SmallApp("SM");
  const Application faulted = InjectTraceFaults(app, plan);
  ASSERT_EQ(faulted.kernels.size(), app.kernels.size());
  EXPECT_LT(faulted.TotalInstrs(), app.TotalInstrs());
  EXPECT_GT(faulted.TotalInstrs(), 0u);
  const GpuConfig cfg = SmallGpu();
  const SimResult r =
      RunSimulation(faulted, cfg, SimLevel::kDetailed, Backstops());
  EXPECT_EQ(r.instructions, faulted.TotalInstrs());
}

TEST(Chaos, TraceCorruptionRejectedAtIngestion) {
  FaultPlan plan;
  plan.name = "corrupt";
  plan.trace_corrupt_p = 1.0;
  const Application app = SmallApp("SM");
  try {
    InjectTraceFaults(app, plan);
    FAIL() << "expected SimError";
  } catch (const SimError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("rejected at ingestion"), std::string::npos) << what;
    EXPECT_NE(what.find(app.kernels.front()->info().name),
              std::string::npos)
        << what;
  }
}

TEST(Chaos, ArmedObserversStayBitIdentical) {
  // Watchdog enabled (but never tripping) and degrade enabled (but never
  // needed) must not perturb a healthy run at any level.
  const Application app = SmallApp("BFS");
  for (SimLevel level : {SimLevel::kDetailed, SimLevel::kSwiftSimBasic,
                         SimLevel::kSwiftSimMemory}) {
    GpuConfig cfg = Rtx2080TiConfig();
    cfg.num_sms = 4;
    cfg.num_mem_partitions = 2;
    RunOptions on;
    on.model.watchdog.stall_cycles = 100000000;
    on.model.watchdog.wall_seconds = 3600;
    on.degrade_on_hang = true;
    ExpectSameRun(RunSimulation(app, cfg, level),
                  RunSimulation(app, cfg, level, on), ToString(level));
  }
}

TEST(Chaos, FaultPlanIniRoundTrip) {
  const IniFile ini = IniFile::ParseString(
      "[fault]\n"
      "name = stormy\n"
      "seed = 7\n"
      "resp_drop_p = 0.5\n"
      "resp_retry_cycles = 10\n"
      "resp_max_drops = 2\n"
      "storm_p = 0.25\n"
      "storm_cycles = 16\n");
  const FaultPlan plan = FaultPlan::FromIni(ini);
  EXPECT_EQ(plan.name, "stormy");
  EXPECT_EQ(plan.seed, 7u);
  EXPECT_DOUBLE_EQ(plan.resp_drop_p, 0.5);
  EXPECT_EQ(plan.resp_retry_cycles, 10u);
  EXPECT_EQ(plan.resp_max_drops, 2u);
  EXPECT_DOUBLE_EQ(plan.storm_p, 0.25);
  EXPECT_EQ(plan.storm_cycles, 16u);
  EXPECT_TRUE(plan.AnyRuntime());
  EXPECT_FALSE(plan.AnyTrace());
}

/// Runs `fn`, which must throw a SimError naming `field` and no source
/// location: plan errors reach users through plan files and bench flags.
template <typename Fn>
void ExpectPlanRejected(Fn fn, const std::string& field) {
  try {
    fn();
    ADD_FAILURE() << "expected SimError naming " << field;
  } catch (const SimError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(field), std::string::npos) << what;
    EXPECT_FALSE(std::regex_search(what, std::regex(R"(\.(cc|h):[0-9]+)")))
        << what;
  }
}

TEST(Chaos, FaultPlanValidateRejectsBadPlans) {
  FaultPlan out_of_range;
  out_of_range.resp_delay_p = 1.5;
  out_of_range.resp_delay_cycles = 4;
  ExpectPlanRejected([&] { out_of_range.Validate(); }, "resp_delay_p");

  FaultPlan missing_span;
  missing_span.resp_delay_p = 0.5;  // no resp_delay_cycles
  ExpectPlanRejected([&] { missing_span.Validate(); }, "resp_delay_cycles");

  // A count past UINT_MAX is refused, not wrapped (to 2 drops here).
  ExpectPlanRejected(
      [] {
        FaultPlan::FromIni(
            IniFile::ParseString("[fault]\nresp_max_drops = 4294967298\n"));
      },
      "fault.resp_max_drops");

  ExpectPlanRejected(
      [] { FaultPlan::FromFile("/nonexistent/fault_plan.ini"); },
      "/nonexistent/fault_plan.ini");
}

}  // namespace
}  // namespace swiftsim
