#include "swiftsim/sampling.h"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "common/bitutil.h"
#include "common/status.h"
#include "core/cta_allocator.h"

namespace swiftsim {

namespace {

/// Builds the sampled kernel: the same variants, a truncated grid.
std::shared_ptr<KernelTrace> SamplePrefix(const KernelTrace& kernel,
                                          std::uint32_t sampled_ctas) {
  KernelInfo info = kernel.info();
  info.num_ctas = sampled_ctas;
  std::vector<CtaTrace> variants;
  variants.reserve(kernel.num_variants());
  for (std::size_t v = 0; v < kernel.num_variants(); ++v) {
    variants.push_back(kernel.variant(v));
  }
  return std::make_shared<KernelTrace>(std::move(info),
                                       std::move(variants));
}

}  // namespace

SampledResult RunSampledSimulation(const Application& app,
                                   const GpuConfig& cfg, SimLevel level,
                                   double cta_fraction,
                                   const RunOptions& options) {
  SS_CHECK(cta_fraction > 0.0 && cta_fraction <= 1.0,
           "cta_fraction must be in (0, 1]");
  const auto t0 = std::chrono::steady_clock::now();

  // Build the sampled application first (the pre-pass for analytical
  // memory mode must profile exactly what will be simulated).
  Application sampled;
  sampled.name = app.name + "+sampled";
  SampledResult result;
  std::vector<double> scale_factors;
  const CtaAllocator occupancy_probe(cfg);
  for (const auto& kernel : app.kernels) {
    const KernelInfo& info = kernel->info();
    const unsigned per_sm =
        std::max(1u, occupancy_probe.MaxConcurrent(info));
    const std::uint32_t wave =
        std::min<std::uint32_t>(info.num_ctas, per_sm * cfg.num_sms);
    const auto want = static_cast<std::uint32_t>(
        std::ceil(cta_fraction * info.num_ctas));
    const std::uint32_t take =
        std::min<std::uint32_t>(info.num_ctas, std::max(wave, want));
    sampled.kernels.push_back(SamplePrefix(*kernel, take));
    scale_factors.push_back(static_cast<double>(info.num_ctas) / take);
    result.total_ctas += info.num_ctas;
    result.sampled_ctas += take;
  }

  // The sampled prefix is itself a stable application: sweeps that
  // re-sample the same workload reuse its pre-pass profile.
  const SimResult run = RunSimulation(sampled, cfg, level, options);
  Cycle estimated = 0;
  for (std::size_t k = 0; k < run.kernels.size(); ++k) {
    estimated += static_cast<Cycle>(std::llround(
        static_cast<double>(run.kernels[k].cycles) * scale_factors[k]));
  }
  result.simulated_cycles = run.total_cycles;
  result.estimated_cycles = estimated;
  const auto t1 = std::chrono::steady_clock::now();
  result.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  return result;
}

}  // namespace swiftsim
