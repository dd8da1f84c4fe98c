// Sampling-based simulation (paper §II-B's third category — TUPOINT/PKA-
// style CTA sampling). The paper notes sampling is orthogonal to hybrid
// modeling: "they still rely on cycle-accurate simulation or analytical
// models for the sampled application". This module composes the two: any
// simulator level can run on a sampled prefix of each grid, with the
// cycle count extrapolated by the sampled-CTA ratio.
//
// The sample always covers at least one full chip wave so that the
// steady-state contention the full grid would exhibit is represented.
#pragma once

#include "config/gpu_config.h"
#include "sim/model_select.h"
#include "swiftsim/simulator.h"
#include "trace/kernel.h"

namespace swiftsim {

struct SampledResult {
  Cycle estimated_cycles = 0;   // extrapolated full-grid estimate
  Cycle simulated_cycles = 0;   // cycles actually simulated
  std::uint64_t total_ctas = 0;
  std::uint64_t sampled_ctas = 0;
  double wall_seconds = 0;

  double sample_fraction() const {
    return total_ctas ? static_cast<double>(sampled_ctas) / total_ctas
                      : 0.0;
  }
};

/// Runs `level` on a sampled prefix of each kernel's grid (at least one
/// full chip wave, at least ceil(cta_fraction * grid) CTAs) and
/// extrapolates per kernel. cta_fraction in (0, 1]. The sampled run goes
/// through RunSimulation under `options`.
SampledResult RunSampledSimulation(const Application& app,
                                   const GpuConfig& cfg, SimLevel level,
                                   double cta_fraction,
                                   const RunOptions& options = {});

}  // namespace swiftsim
