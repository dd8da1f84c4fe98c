// Internal boilerplate shared by the suite generator .cc files.
#pragma once

#include <functional>
#include <memory>
#include <string>

#include "common/rng.h"
#include "trace/kernel.h"
#include "workloads/patterns.h"
#include "workloads/workload.h"

namespace swiftsim::workloads {

/// Static shape of one synthesized kernel.
struct KernelShape {
  std::string name;
  KernelId id = 0;
  std::uint32_t ctas = 64;
  std::uint32_t warps_per_cta = 8;
  std::uint32_t smem_bytes = 0;
  std::uint32_t regs_per_thread = 32;
  std::uint32_t variants = 4;  // distinct CTA traces (shared mod variants)
};

/// Builds a kernel by invoking `fill(cta, variant_index, rng)` once per
/// variant; the Rng is seeded deterministically from (seed, kernel id,
/// variant). Variants are filled in parallel on the shared ThreadPool. The
/// resulting trace is validated before return.
std::shared_ptr<KernelTrace> MakeKernel(
    const KernelShape& shape, std::uint64_t seed,
    const std::function<void(CtaTrace*, std::size_t, Rng&)>& fill);

/// Disjoint 64MB global-memory regions for a kernel's arrays.
inline Addr Region(unsigned idx) {
  return 0x1000'0000ull + static_cast<Addr>(idx) * 0x0400'0000ull;
}

/// Per-variant slice inside a region so different CTA variants stream
/// disjoint data (controls aggregate footprint vs. L2 capacity).
inline Addr VariantSlice(unsigned region, std::size_t variant,
                         std::uint64_t slice_bytes) {
  return Region(region) + static_cast<Addr>(variant) * slice_bytes;
}

}  // namespace swiftsim::workloads
