// Parallel simulation (paper §III-B2 / §IV-B2): the modular design makes
// two levels of parallelism available:
//
//  * application-level — independent GpuModels for different applications
//    run on a thread pool (any simulator level);
//  * SM-level — in Swift-Sim-Memory the analytical memory path removes all
//    shared mutable state between SMs, so one application's SMs can be
//    simulated concurrently. CTAs are pre-assigned round-robin (a
//    documented approximation of the greedy dispatcher; see DESIGN.md).
#pragma once

#include <string>
#include <vector>

#include "config/gpu_config.h"
#include "sim/gpu_model.h"
#include "sim/model_select.h"
#include "swiftsim/fault_inject.h"
#include "trace/kernel.h"

namespace swiftsim {

/// Per-application outcome classification for batch isolation
/// (DESIGN.md §11).
enum class AppStatus {
  kOk,        // completed on the requested level
  kDegraded,  // completed, but one or more kernels fell back analytically
  kTimedOut,  // wall-clock watchdog budget expired
  kFailed,    // SimError after exhausting retries (error holds what())
};

const char* ToString(AppStatus status);

struct AppOutcome {
  AppStatus status = AppStatus::kOk;
  std::string error;      // what() of the final failure, "" when ok
  std::string dump_path;  // hang diagnostic dump, "" when none
  unsigned attempts = 1;  // 1 = first try succeeded
};

struct ParallelBatchResult {
  std::vector<SimResult> results;   // same order as the input apps
  std::vector<AppOutcome> statuses; // same order; empty = legacy callers
  double wall_seconds = 0;          // whole-batch wall time
};

/// Batch options for RunAppsParallel. Defaults reproduce the historical
/// fail-fast behaviour (first failing app rethrows from the batch call).
struct BatchOptions {
  /// Convert per-app failures into AppOutcome entries instead of
  /// rethrowing; the rest of the batch always completes. A failed app's
  /// SimResult keeps whatever partial data was gathered (zeroed on a
  /// first-kernel failure).
  bool isolate_failures = false;
  /// Re-run a failed app from scratch up to this many extra times before
  /// declaring it failed (deterministic faults recur; state damage from a
  /// prior app on the pool does not).
  unsigned max_retries = 0;
  /// Chaos scenario armed on every app's simulator; must outlive the call.
  const FaultPlan* fault_plan = nullptr;
};

/// Runs each application through its own serial simulator, at most
/// `num_threads` applications at a time. Results are bit-identical to
/// RunSimulation for any thread count.
ParallelBatchResult RunAppsParallel(const std::vector<Application>& apps,
                                    const GpuConfig& cfg, SimLevel level,
                                    unsigned num_threads);

/// Batch isolation overload: per-app statuses, bounded retry and optional
/// fault injection.
ParallelBatchResult RunAppsParallel(const std::vector<Application>& apps,
                                    const GpuConfig& cfg, SimLevel level,
                                    unsigned num_threads,
                                    const BatchOptions& options);

/// SM-parallel Swift-Sim-Memory run of one application. Deterministic for
/// any thread count (SMs are independent). Kernel boundaries are global
/// barriers; a kernel's cycle count is the slowest SM's local clock.
SimResult RunSmParallelMemory(const Application& app, const GpuConfig& cfg,
                              unsigned num_threads);

}  // namespace swiftsim
