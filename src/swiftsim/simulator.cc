#include "swiftsim/simulator.h"

#include <chrono>
#include <optional>
#include <string>
#include <utility>

#include "analytical/cache_prepass.h"
#include "common/status.h"
#include "swiftsim/memo_cache.h"

namespace swiftsim {

const char* ToString(AppStatus status) {
  switch (status) {
    case AppStatus::kOk: return "ok";
    case AppStatus::kDegraded: return "degraded";
    case AppStatus::kTimedOut: return "timeout";
    case AppStatus::kFailed: return "failed";
  }
  return "unknown";
}

SimResult RunOutcome::TakeOrThrow() {
  if (error) std::rethrow_exception(error);
  return std::move(result);
}

namespace {

/// Replay telemetry, reported under "memo.*".
struct MemoStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t replayed_cycles = 0;
  std::uint64_t replayed_instrs = 0;
};

/// The one per-kernel loop. Each kernel is replayed from the MemoCache or
/// simulated; a simulated kernel that throws is retried on a fresh model
/// (degrade.max_retries) and then, with degrade.on_hang, finished at the
/// analytical-memory level (DESIGN.md §11). Metrics fold across every
/// model the run used. With memo the model is built at the first launch
/// that misses, so a run whose every launch replays builds none and
/// reports the cached fresh-model skeleton plus the replayed deltas
/// (DESIGN.md §10). `profile` as in GpuModel's constructor.
SimResult RunKernels(const Application& app, const GpuConfig& cfg,
                     SimLevel level, const MemProfile* profile,
                     const RunOptions& opt) {
  const ModelSelection sel = SelectionFor(level);
  const FaultPlan* plan = opt.fault_plan;
  const bool armed = plan != nullptr && plan->AnyRuntime();
  const bool resilient =
      armed || opt.degrade.on_hang || opt.degrade.max_retries > 0;
  // Replay is exact only at the analytical-memory level, and a replayed
  // launch would dodge injection, retry and degrade.
  MemoCache* memo =
      opt.memo && !resilient && sel.mem == MemModelKind::kAnalytical
          ? &MemoCache::Global()
          : nullptr;

  std::optional<FaultInjector> injector;
  if (armed) injector.emplace(*plan, cfg.num_sms);
  const auto make_model = [&] {
    auto m = std::make_unique<GpuModel>(cfg, sel, profile, opt.model);
    if (injector) m->ArmFaults(&*injector);
    return m;
  };
  // The first fold takes the snapshot as is, so a single-model run pays
  // for exactly one Snapshot.
  MetricMap metrics;
  const auto fold_metrics = [&](const GpuModel& m) {
    if (metrics.empty()) {
      metrics = m.metrics().Snapshot();
      return;
    }
    AddMetrics(m.metrics().Snapshot(), &metrics);
  };

  SimResult result;
  result.app = app.name;
  result.simulator = ToString(level);
  result.kernels.reserve(app.kernels.size());
  std::unique_ptr<GpuModel> model;
  if (memo == nullptr) model = make_model();

  MemoStats stats;
  MemoKey key;
  std::uint64_t evictions_before = 0;
  MetricMap replayed_deltas;
  if (memo != nullptr) {
    evictions_before = memo->evictions();
    key.cfg_hash = cfg.CanonicalHash();
    key.context = FingerprintApplication(app).Fold();
    key.level = static_cast<std::uint8_t>(level);
  }

  const auto t0 = std::chrono::steady_clock::now();
  // Model construction inside the loop, left out of wall_seconds like the
  // up-front build.
  std::chrono::steady_clock::duration build_time{};
  Cycle clock = 0;  // model clock at the last completed-kernel boundary
  for (const auto& kernel : app.kernels) {
    const std::string& name = kernel->info().name;
    MetricMap before;
    if (memo != nullptr) {
      key.kernel_fp = FingerprintKernel(*kernel);
      if (auto rec = memo->TryReplay(key, &replayed_deltas)) {
        clock += rec->cycles;
        result.kernels.push_back({name, rec->cycles, rec->instructions});
        ++stats.hits;
        stats.replayed_cycles += rec->cycles;
        stats.replayed_instrs += rec->instructions;
        continue;
      }
      ++stats.misses;
      const bool fresh = model == nullptr;
      if (fresh) {
        const auto b0 = std::chrono::steady_clock::now();
        model = make_model();
        build_time += std::chrono::steady_clock::now() - b0;
      }
      model->SyncClock(clock);
      before = model->metrics().Snapshot();
      if (fresh && memo->Skeleton(key) == nullptr) {
        memo->StoreSkeleton(key, before);
      }
    }
    for (unsigned attempts = 0;; ++attempts) {
      const std::uint64_t instrs_before = model->TotalIssuedInstrs();
      try {
        const Cycle cycles = model->RunKernel(*kernel);
        result.kernels.push_back(
            {name, cycles, model->TotalIssuedInstrs() - instrs_before});
        clock = model->now();
        break;
      } catch (const SimError& e) {
        if (!resilient) throw;
        fold_metrics(*model);
        if (attempts < opt.degrade.max_retries) {
          // Bounded retry on a fresh model resumed at the kernel boundary;
          // deterministic faults will recur, transient model-state damage
          // will not.
          model = make_model();
          model->SyncClock(clock);
          continue;
        }
        if (!opt.degrade.on_hang) throw;
        // Graceful degradation: finish this kernel analytically (clean
        // model, no injection — the point is a usable estimate), record
        // the event, and resume on a fresh model after it.
        Application one;
        one.name = app.name;
        one.kernels.push_back(kernel);
        const MemProfile fallback_profile =
            BuildMemProfile(one, cfg, opt.memo);
        GpuModel ana(cfg, SelectionFor(SimLevel::kSwiftSimMemory),
                     &fallback_profile, opt.model);
        ana.SyncClock(clock);
        const Cycle cycles = ana.RunKernel(*kernel);
        result.kernels.push_back({name, cycles, ana.TotalIssuedInstrs()});
        clock = ana.now();
        fold_metrics(ana);
        const auto* hang = dynamic_cast<const SimHangError*>(&e);
        result.degrades.push_back(
            {name, e.what(), hang != nullptr ? hang->dump_path() : ""});
        model = make_model();
        model->SyncClock(clock);
        break;
      }
    }
    if (memo != nullptr) {
      const KernelResult& kr = result.kernels.back();
      LaunchRecord rec;
      rec.cycles = kr.cycles;
      rec.instructions = kr.instructions;
      for (const auto& [metric, value] : model->metrics().Snapshot()) {
        const auto it = before.find(metric);
        const std::uint64_t delta =
            value - (it != before.end() ? it->second : 0);
        if (delta != 0) rec.metric_deltas.emplace_back(metric, delta);
      }
      memo->RecordLaunch(key, std::move(rec));
    }
  }
  const auto t1 = std::chrono::steady_clock::now();

  result.total_cycles = clock;
  for (const KernelResult& kr : result.kernels) {
    result.instructions += kr.instructions;
  }
  result.wall_seconds =
      std::chrono::duration<double>(t1 - t0 - build_time).count();
  if (model != nullptr) {
    fold_metrics(*model);
  } else if (auto skeleton = memo->Skeleton(key)) {
    metrics = *skeleton;
  } else {
    // Every launch replayed, but no model for this config has been built
    // in this process yet (e.g. the entries came from a memo file).
    metrics = make_model()->metrics().Snapshot();
    memo->StoreSkeleton(key, metrics);
  }
  if (memo != nullptr) {
    AddMetrics(replayed_deltas, &metrics);
    metrics["memo.hits"] = stats.hits;
    metrics["memo.misses"] = stats.misses;
    metrics["memo.replayed_cycles"] = stats.replayed_cycles;
    metrics["memo.replayed_instrs"] = stats.replayed_instrs;
    // Eviction telemetry as a per-run delta: the cache is process-global,
    // so absolute counts would leak earlier runs into this result.
    metrics["memo.evictions"] = memo->evictions() - evictions_before;
  }
  if (resilient) {
    metrics["driver.degrade_events"] = result.degrades.size();
  }
  if (injector) {
    metrics["fault.responses_delayed"] = injector->delayed();
    metrics["fault.responses_dropped"] = injector->dropped();
    metrics["fault.responses_redelivered"] = injector->redelivered();
    metrics["fault.issue_freezes"] = injector->freezes();
  }
  result.metrics = std::move(metrics);
  return result;
}

/// The pre-pass profile of the analytical-memory level (null at the other
/// levels) and the seconds it took into `*seconds`. With memo,
/// cache-geometry-equal configs and repeated runs share one profile from
/// the ProfileCache; the fetch time, hit or build, is the run's pre-pass
/// cost.
std::shared_ptr<const MemProfile> FetchProfile(const Application& app,
                                               const GpuConfig& cfg,
                                               SimLevel level, bool memo,
                                               double* seconds) {
  *seconds = 0;
  if (SelectionFor(level).mem != MemModelKind::kAnalytical) return nullptr;
  if (memo) {
    ProfileCache::Fetch fetch = ProfileCache::Global().GetOrBuild(app, cfg);
    *seconds = fetch.seconds;
    return std::move(fetch.profile);
  }
  const auto t0 = std::chrono::steady_clock::now();
  auto profile = std::make_shared<const MemProfile>(
      BuildMemProfile(app, cfg, /*memoize=*/false));
  const auto t1 = std::chrono::steady_clock::now();
  *seconds = std::chrono::duration<double>(t1 - t0).count();
  return profile;
}

/// Sorts a failure into `outcome`; returns false when a retry is
/// pointless (a spent wall budget).
bool Classify(const std::exception& e, AppOutcome* outcome) {
  outcome->status = AppStatus::kFailed;
  outcome->error = e.what();
  const auto* hang = dynamic_cast<const SimHangError*>(&e);
  if (hang == nullptr) return true;
  outcome->hang = true;
  outcome->dump_path = hang->dump_path();
  if (hang->kind() != SimHangError::Kind::kWallClock) return true;
  outcome->status = AppStatus::kTimedOut;
  return false;
}

}  // namespace

Simulator::Simulator(const Application& app, const GpuConfig& cfg,
                     SimLevel level, const RunOptions& options)
    : app_(app), cfg_(cfg), level_(level), options_(options) {
  profile_ = FetchProfile(app, cfg_, level, options_.memo, &prepass_seconds_);
}

SimResult Simulator::Run() {
  SimResult result = RunKernels(app_, cfg_, level_, profile_.get(), options_);
  result.wall_seconds += prepass_seconds_;
  return result;
}

RunOutcome Run(const RunSpec& spec) {
  const FaultPlan* plan = spec.options.fault_plan;
  RunOutcome out;
  for (unsigned attempt = 0;; ++attempt) {
    out.outcome = AppOutcome{};
    out.outcome.attempts = attempt + 1;
    try {
      // Trace-ingestion faults apply per attempt, inside the
      // classification boundary: a corrupt trace fails here, typed.
      const Application* app = &spec.app;
      Application faulted;
      if (plan != nullptr && plan->AnyTrace()) {
        faulted = InjectTraceFaults(spec.app, *plan);
        app = &faulted;
      }
      const std::shared_ptr<const MemProfile> profile = FetchProfile(
          *app, spec.cfg, spec.level, spec.options.memo, &out.prepass_s);
      out.result = RunKernels(*app, spec.cfg, spec.level, profile.get(),
                              spec.options);
      // The pre-pass is part of Swift-Sim-Memory's cost; charge it to the run.
      out.result.wall_seconds += out.prepass_s;
      out.outcome.status = out.result.degrades.empty() ? AppStatus::kOk
                                                       : AppStatus::kDegraded;
      out.error = nullptr;
      return out;
    } catch (const std::exception& e) {
      out.error = std::current_exception();
      if (!Classify(e, &out.outcome) || attempt >= spec.options.retries) {
        break;
      }
    }
  }
  // Name the failed result so reports can attribute it.
  out.result = SimResult{};
  out.result.app = spec.app.name;
  out.result.simulator = ToString(spec.level);
  return out;
}

SimResult RunSimulation(const Application& app, const GpuConfig& cfg,
                        SimLevel level, const RunOptions& options) {
  return Run({app, cfg, level, options}).TakeOrThrow();
}

}  // namespace swiftsim
