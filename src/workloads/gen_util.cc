#include "workloads/gen_util.h"

#include "common/bitutil.h"
#include "common/thread_pool.h"

namespace swiftsim::workloads {

std::shared_ptr<KernelTrace> MakeKernel(
    const KernelShape& shape, std::uint64_t seed,
    const std::function<void(CtaTrace*, std::size_t, Rng&)>& fill) {
  KernelInfo info;
  info.name = shape.name;
  info.id = shape.id;
  info.num_ctas = shape.ctas;
  info.warps_per_cta = shape.warps_per_cta;
  info.threads_per_cta = shape.warps_per_cta * kWarpSize;
  info.smem_bytes_per_cta = shape.smem_bytes;
  info.regs_per_thread = shape.regs_per_thread;

  const std::size_t num_variants =
      std::min<std::size_t>(shape.variants, shape.ctas);
  std::vector<CtaTrace> variants(num_variants);
  // Each variant has its own deterministic Rng seeded from (seed, kernel
  // id, variant) and writes only its own CtaTrace, so variants can be
  // filled in parallel on the shared pool with identical results to the
  // serial loop (the columnar encoders touch only per-warp state).
  const auto fill_variant = [&](std::size_t v) {
    Rng rng(HashMix(seed ^ (static_cast<std::uint64_t>(shape.id) << 32) ^
                    (v * 0x9e3779b97f4a7c15ull)));
    variants[v].warps.resize(shape.warps_per_cta);
    fill(&variants[v], v, rng);
  };
  ThreadPool::Shared().ParallelFor(num_variants, 0, fill_variant);
  auto trace =
      std::make_shared<KernelTrace>(std::move(info), std::move(variants));
  trace->ValidateTrace();
  return trace;
}

}  // namespace swiftsim::workloads
