// The classic analytical memory model of paper §III-D2 (after GPUMech):
//
//   L_inst = L_L1 * R_L1  +  L_L2 * R_L2  +  L_DRAM * R_DRAM      (Eq. 1)
//
// gives the expected contention-free latency of each static Load, with
// per-PC hit rates from the cache pre-pass. Contention is added on top by
// MemContentionModel — a per-SM bandwidth pipe tracked cycle-accurately,
// mirroring the paper's hybrid treatment ("we add the additional latency
// due to resource contention to L_inst").
#pragma once

#include <cstdint>

#include "analytical/cache_prepass.h"
#include "common/types.h"
#include "config/gpu_config.h"

namespace swiftsim {

class AnalyticalMemModel {
 public:
  AnalyticalMemModel(const GpuConfig& cfg, const MemProfile* profile);

  /// Expected latency of the load at (kernel, pc) per Eq. 1, rounded to
  /// whole cycles.
  Cycle LoadLatency(KernelId kernel, Pc pc) const;

  /// Fraction of this PC's sectors that reach DRAM (feeds the bandwidth
  /// contention pipe).
  double DramFraction(KernelId kernel, Pc pc) const;

  /// Fraction of this PC's sectors that miss the L1 and cross the NoC.
  double L1MissFraction(KernelId kernel, Pc pc) const;

  /// Store cost at the issue point (fire-and-forget path occupancy).
  Cycle StoreLatency() const { return store_latency_; }

  Cycle l1_latency() const { return l1_lat_; }
  Cycle l2_latency() const { return l2_lat_; }
  Cycle dram_latency() const { return dram_lat_; }

 private:
  const MemProfile* profile_;
  Cycle l1_lat_;
  Cycle l2_lat_;
  Cycle dram_lat_;
  Cycle store_latency_;
};

/// Per-SM serialization pipes for the analytical memory path. Three finite
/// resources are tracked cycle-accurately:
///
///  * the SM's L1 banks — every coalesced line access probes one bank;
///  * the SM's private NoC injection port — every L1-missing sector
///    crosses it;
///  * the SM's 1/num_sms share of aggregate L2 bank throughput — every
///    L1-missing line access probes an L2 bank;
///  * the SM's 1/num_sms share of aggregate (derated) DRAM bandwidth —
///    only DRAM-bound sectors occupy it.
///
/// Later loads queue behind earlier ones; the instruction's queueing delay
/// is the worst of the pipes. Keeping all pipes per-SM means one SM's
/// loads never queue behind another SM's.
class MemContentionModel {
 public:
  MemContentionModel(const GpuConfig& cfg);

  /// Accounts one memory instruction at `now` performing `line_accesses`
  /// coalesced accesses totalling `sectors` sectors, of which
  /// `l1_miss_fraction` leave the SM and `dram_fraction` reach DRAM.
  /// Returns the queueing delay to add on top of L_inst.
  Cycle Issue(unsigned line_accesses, unsigned sectors,
              double l1_miss_fraction, double dram_fraction, Cycle now);

  std::uint64_t total_queue_cycles() const { return queue_cycles_; }

  /// Informs the pipes how many SMs actually share the chip-level
  /// resources for the current kernel (a grid smaller than the chip leaves
  /// SMs idle). A per-kernel constant, so SM independence is preserved.
  void SetActiveSms(unsigned active);

 private:
  double chip_dram_bw_;      // bytes/cycle, whole chip, peak
  double chip_l2_rate_;      // L2 bank accesses/cycle, whole chip, peak
  double noc_port_bw_;       // bytes/cycle of the SM's NoC port
  double l1_banks_;          // line accesses serviced per cycle
  unsigned sector_bytes_;
  unsigned active_sms_;
  double dram_busy_until_ = 0;
  double noc_busy_until_ = 0;
  double l1_busy_until_ = 0;  // fractional: one access = 1/banks cycles
  double l2_busy_until_ = 0;  // fractional pipe, like the L1 one
  std::uint64_t queue_cycles_ = 0;
};

}  // namespace swiftsim
