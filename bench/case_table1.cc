// Table I: comparison of the three modeled NVIDIA GPUs. Prints the table
// from the preset configurations and cross-checks the derived quantities.
#include <cstdio>

#include "common/status.h"
#include "config/presets.h"
#include "swiftsim_bench.h"

namespace swiftsim::bench {

int RunTable1(Bench&) {
  const GpuConfig gpus[] = {Rtx2080TiConfig(), Rtx3060Config(),
                            Rtx3090Config()};
  const char* arch[] = {"Turing", "Ampere", "Ampere"};
  const char* chip[] = {"TU102", "GA106", "GA102"};

  std::printf("%-20s", "NVIDIA GPUs");
  for (const auto& g : gpus) std::printf(" %12s", g.name.c_str());
  std::printf("\n%-20s", "Architecture");
  for (const char* a : arch) std::printf(" %12s", a);
  std::printf("\n%-20s", "Graphics Processor");
  for (const char* c : chip) std::printf(" %12s", c);
  std::printf("\n%-20s", "SMs");
  for (const auto& g : gpus) std::printf(" %12u", g.num_sms);
  std::printf("\n%-20s", "CUDA Cores");
  for (const auto& g : gpus) std::printf(" %12u", g.cuda_cores());
  std::printf("\n%-20s", "L2 Cache (KiB)");
  for (const auto& g : gpus) {
    std::printf(" %12llu",
                static_cast<unsigned long long>(g.total_l2_bytes() / 1024));
  }
  std::printf("\n");

  // Paper values: 68/28/82 SMs; 4352/3584/10496 cores; 5.5/3/6 MB L2.
  SS_CHECK(gpus[0].num_sms == 68 && gpus[1].num_sms == 28 &&
               gpus[2].num_sms == 82,
           "SM counts must match Table I");
  SS_CHECK(gpus[0].cuda_cores() == 4352 && gpus[1].cuda_cores() == 3584 &&
               gpus[2].cuda_cores() == 10496,
           "CUDA core counts must match Table I");
  SS_CHECK(gpus[0].total_l2_bytes() == 5632ull * 1024 &&
               gpus[1].total_l2_bytes() == 3072ull * 1024 &&
               gpus[2].total_l2_bytes() == 6144ull * 1024,
           "L2 capacities must match Table I");
  std::printf("all Table I values verified against the paper\n");
  return 0;
}

}  // namespace swiftsim::bench
