// Top-level entry points: run an application through any of the four
// simulator configurations (paper §IV-A3 plus the silicon oracle).
//
//   kSilicon         — detailed model + second-order effects; stands in
//                      for real-hardware cycles (DESIGN.md §2)
//   kDetailed        — the Accel-Sim-class cycle-accurate baseline
//   kSwiftSimBasic   — hybrid ALU model, simplified front-end
//   kSwiftSimMemory  — Basic + analytical memory model (runs the cache
//                      pre-pass automatically; its cost is included in the
//                      reported wall time)
//
// Every driver — one-shot runs, batches, benches, the DSE engine and the
// daemon — goes through Run(RunSpec) (DESIGN.md §7, "Run pipeline").
#pragma once

#include <exception>
#include <memory>
#include <string>

#include "config/gpu_config.h"
#include "sim/gpu_model.h"
#include "sim/model_select.h"
#include "sim/model_settings.h"
#include "swiftsim/fault_inject.h"
#include "trace/kernel.h"

namespace swiftsim {

/// Per-application outcome classification (DESIGN.md §11).
enum class AppStatus {
  kOk,        // completed on the requested level
  kDegraded,  // completed, but one or more kernels fell back analytically
  kTimedOut,  // wall-clock watchdog budget expired
  kFailed,    // any other failure after exhausting retries
};

const char* ToString(AppStatus status);

struct AppOutcome {
  AppStatus status = AppStatus::kOk;
  bool hang = false;      // a SimHangError (watchdog or wedge) ended the run
  std::string error;      // what() of the final failure, "" when completed
  std::string dump_path;  // hang diagnostic dump, "" when none
  unsigned attempts = 1;  // 1 = first try succeeded
};

/// Per-kernel recovery (DESIGN.md §11).
struct DegradeSettings {
  /// Re-run a kernel that hung or failed at the analytical-memory level
  /// on a fresh model, record a DegradeEvent, and continue the app.
  bool on_hang = false;
  /// Fresh-model retries at the original level before degrading (or
  /// failing, when on_hang is false).
  unsigned max_retries = 0;
};

/// How a run is driven. The GpuConfig says what is simulated; nothing here
/// changes the cycles of a run that completes, so none of it keys a cache.
struct RunOptions {
  /// Chaos scenario: trace axes are applied to the app on every attempt,
  /// runtime axes are armed on the model. Must outlive the call.
  const FaultPlan* fault_plan = nullptr;
  /// Re-runs of the whole app after a failure. A spent wall budget is
  /// never retried.
  unsigned retries = 0;
  /// Cross-launch memoization (DESIGN.md §10): launch replay at the
  /// analytical-memory level and the pre-pass profile caches, all exact.
  /// Their caps belong to the caches' owner (MemoCache::SetLimits).
  bool memo = true;
  /// Cycle skipping and the watchdog, handed to every model.
  ModelSettings model;
  DegradeSettings degrade;
};

struct RunSpec {
  const Application& app;
  const GpuConfig& cfg;
  SimLevel level;
  RunOptions options = {};
};

struct RunOutcome {
  /// The run's result. A failed run keeps only its app and simulator names.
  SimResult result;
  AppOutcome outcome;
  double prepass_s = 0;  // pre-pass or profile-cache fetch, last attempt
  /// The final failure as thrown; null when the run completed.
  std::exception_ptr error;

  /// Moves the result out, or rethrows the original failure.
  SimResult TakeOrThrow();
};

/// Runs one application: trace faults, pre-pass, the per-kernel loop and
/// whole-app retry, with every failure classified into `outcome`. Throws
/// nothing derived from std::exception.
RunOutcome Run(const RunSpec& spec);

/// One-shot simulation of an application; rethrows a failure as thrown.
/// Deterministic for fixed inputs.
SimResult RunSimulation(const Application& app, const GpuConfig& cfg,
                        SimLevel level, const RunOptions& options = {});

/// Reusable simulator handle: the constructor runs the pre-pass once, and
/// each Run() simulates on fresh models. With options.memo the profile
/// comes from the global ProfileCache and launches are replayed from the
/// global MemoCache (DESIGN.md §10). Only the fault plan's runtime axes
/// apply here; Run(RunSpec) applies its trace axes and `retries`.
class Simulator {
 public:
  Simulator(const Application& app, const GpuConfig& cfg, SimLevel level,
            const RunOptions& options = {});

  /// Runs the per-kernel loop over the application; rethrows failures.
  SimResult Run();

  SimLevel level() const { return level_; }
  const MemProfile* profile() const { return profile_.get(); }
  double prepass_seconds() const { return prepass_seconds_; }

 private:
  const Application& app_;
  GpuConfig cfg_;
  SimLevel level_;
  RunOptions options_;
  // Analytical memory mode only; shared when the ProfileCache served it.
  std::shared_ptr<const MemProfile> profile_;
  double prepass_seconds_ = 0;
};

}  // namespace swiftsim
