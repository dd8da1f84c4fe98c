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
#include "swiftsim/simulator.h"
#include "trace/kernel.h"

namespace swiftsim {

struct ParallelBatchResult {
  std::vector<SimResult> results;   // same order as the input apps
  std::vector<AppOutcome> statuses; // same order; empty = fail-fast overload
  double wall_seconds = 0;          // whole-batch wall time
};

/// Runs each application through its own serial run pipeline, at most
/// `num_threads` applications at a time. Results are bit-identical to
/// RunSimulation for any thread count. Fails fast: the first failing
/// app's error is rethrown from the call.
ParallelBatchResult RunAppsParallel(const std::vector<Application>& apps,
                                    const GpuConfig& cfg, SimLevel level,
                                    unsigned num_threads);

/// Batch isolation overload: every app runs under `options` and its
/// failure becomes its AppOutcome entry; the rest of the batch always
/// completes. A failed app's SimResult carries only its names.
ParallelBatchResult RunAppsParallel(const std::vector<Application>& apps,
                                    const GpuConfig& cfg, SimLevel level,
                                    unsigned num_threads,
                                    const RunOptions& options);

/// SM-parallel Swift-Sim-Memory run of one application. Deterministic for
/// any thread count (SMs are independent). Kernel boundaries are global
/// barriers; a kernel's cycle count is the slowest SM's local clock.
SimResult RunSmParallelMemory(const Application& app, const GpuConfig& cfg,
                              unsigned num_threads);

}  // namespace swiftsim
