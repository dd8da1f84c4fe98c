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
  kFailed,    // any other failure
};

const char* ToString(AppStatus status);

struct AppOutcome {
  AppStatus status = AppStatus::kOk;
  bool hang = false;      // a SimHangError (watchdog or wedge) ended the run
  std::string error;      // what() of the final failure, "" when completed
  std::string dump_path;  // hang diagnostic dump, "" when none
};

/// How a run is driven. The GpuConfig says what is simulated; nothing here
/// changes the cycles of a run that completes, so none of it keys a cache.
/// A run is deterministic, so a failure is final: nothing is retried.
struct RunOptions {
  /// Chaos scenario: trace axes are applied to the app, runtime axes are
  /// armed on the model. Must outlive the call.
  const FaultPlan* fault_plan = nullptr;
  /// Cross-launch memoization (DESIGN.md §10): launch replay at the
  /// analytical-memory level and the pre-pass profile caches, all exact.
  /// Their caps belong to the caches' owner (MemoCache::SetLimits).
  bool memo = true;
  /// Cycle skipping and the watchdog, handed to every model.
  ModelSettings model;
  /// Per-kernel recovery (DESIGN.md §11): a kernel that hangs or fails is
  /// finished at the analytical-memory level on a clean model, recorded
  /// as a DegradeEvent, and the app continues.
  bool degrade_on_hang = false;
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
  double prepass_s = 0;  // pre-pass or profile-cache fetch
  /// The final failure as thrown; null when the run completed.
  std::exception_ptr error;

  /// Moves the result out, or rethrows the original failure.
  SimResult TakeOrThrow();
};

/// Runs one application: trace faults, pre-pass and the per-kernel loop,
/// with a failure classified into `outcome`. Throws nothing derived from
/// std::exception.
RunOutcome Run(const RunSpec& spec);

/// One-shot simulation of an application; rethrows a failure as thrown.
/// Deterministic for fixed inputs.
SimResult RunSimulation(const Application& app, const GpuConfig& cfg,
                        SimLevel level, const RunOptions& options = {});

/// Simulator handle: the constructor fetches the pre-pass profile as
/// Run(RunSpec) does, and each Run() runs the per-kernel loop on it,
/// rethrowing failures. Only the fault plan's runtime axes apply here. Its
/// one caller is perfbench's oneshot workload, which times the pre-pass
/// apart from the run; everything else goes through Run(RunSpec).
class Simulator {
 public:
  Simulator(const Application& app, const GpuConfig& cfg, SimLevel level,
            const RunOptions& options = {});

  SimResult Run();

 private:
  const Application& app_;
  GpuConfig cfg_;
  SimLevel level_;
  RunOptions options_;
  std::shared_ptr<const MemProfile> profile_;  // analytical memory level only
  double prepass_seconds_ = 0;
};

}  // namespace swiftsim
