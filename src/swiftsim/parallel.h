// Application-level parallel simulation (paper §III-B2 / §IV-B2): the
// modular design gives every application its own GpuModel, so independent
// applications run side by side on a thread pool at any simulator level.
// Each application still runs through the one serial run pipeline, so the
// results match a serial run exactly.
#pragma once

#include <vector>

#include "config/gpu_config.h"
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

}  // namespace swiftsim
