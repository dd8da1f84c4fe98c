// Hardware configuration model (paper §III-A, Tables I & II).
//
// A GpuConfig fully describes the simulated GPU: SM/sub-core organization,
// execution-unit throughput and latency, the two cache levels, interconnect
// and DRAM. Configurations are loadable from INI files (Accel-Sim-flavored
// key names) and three real-GPU presets are provided (presets.h).
//
// It describes the machine only. How a run is driven (cycle skipping,
// memoization, watchdog, degradation) is the driver's business: those
// settings live in RunOptions (swiftsim/simulator.h) and never enter the
// config hash.
#pragma once

#include <cstdint>
#include <set>
#include <string>

#include "common/types.h"

namespace swiftsim {

class IniFile;

/// Warp scheduler policy (cycle-accurate module; paper's DSE example).
enum class SchedPolicy {
  kGto,       // greedy-then-oldest (default on modeled parts)
  kLrr,       // loose round-robin
  kTwoLevel,  // two-level active/pending warp scheduler
};

std::string ToString(SchedPolicy p);
SchedPolicy SchedPolicyFromString(const std::string& s);

/// Cache replacement policy. The DSE flexibility argument of §II-B: unlike
/// reuse-distance analytical models, the cycle-accurate cache can model
/// non-LRU policies.
enum class ReplacementPolicy { kLru, kFifo, kRandom };

std::string ToString(ReplacementPolicy p);
ReplacementPolicy ReplacementPolicyFromString(const std::string& s);

/// Write policy for a cache level.
enum class WritePolicy {
  kWriteThrough,  // L1 on modeled NVIDIA parts (streaming)
  kWriteBack,     // L2
};

std::string ToString(WritePolicy p);
WritePolicy WritePolicyFromString(const std::string& s);

/// One execution-unit class inside a sub-core (INT/SP/DP/SFU).
struct ExecUnitConfig {
  // Number of lanes per sub-core; a warp (32 threads) occupies the unit for
  // ceil(32 / lanes) issue cycles. Fractional provisioning (DP "0.5x" in
  // Table II) is expressed via lanes < 1 being disallowed — use lanes=1 and
  // a longer explicit issue interval instead, or set lanes and the interval
  // is derived. `issue_interval_override` (0 = derive) covers the 0.5x case.
  unsigned lanes = 16;
  unsigned latency = 4;                  // result latency in cycles
  unsigned issue_interval_override = 0;  // 0: derive ceil(32/lanes)

  unsigned issue_interval() const {
    if (issue_interval_override != 0) return issue_interval_override;
    return (kWarpSize + lanes - 1) / lanes;
  }
};

/// Parameters for one cache level (sectored, banked, MSHR-backed).
struct CacheParams {
  std::uint64_t size_bytes = 64 * 1024;
  unsigned assoc = 4;
  unsigned line_bytes = 128;
  unsigned sector_bytes = 32;
  unsigned banks = 4;
  unsigned mshr_entries = 256;
  unsigned mshr_max_merge = 8;
  ReplacementPolicy replacement = ReplacementPolicy::kLru;
  WritePolicy write_policy = WritePolicy::kWriteThrough;
  unsigned latency = 32;  // hit latency in cycles
  // Streaming cache (Table II: the L1 is "sectored, streaming"): misses do
  // not reserve a way — the line is allocated when the fill returns, so
  // misses never fail on reservation and arbitrarily many can be in
  // flight (bounded only by the MSHRs).
  bool streaming = true;

  unsigned num_sets() const {
    return static_cast<unsigned>(size_bytes / (line_bytes * assoc));
  }
  unsigned sectors_per_line() const { return line_bytes / sector_bytes; }
};

/// On-chip interconnect between SMs and L2 partitions.
struct NocConfig {
  unsigned latency = 8;              // traversal latency, cycles
  unsigned bytes_per_cycle = 32;     // per-port injection/ejection bandwidth
  unsigned input_queue_depth = 8;    // per-SM injection queue (packets)
  unsigned output_queue_depth = 8;   // per-partition ejection queue
};

/// DRAM channel behind each memory partition.
struct DramConfig {
  unsigned latency = 227;          // closed-row access latency, cycles
  unsigned row_hit_latency = 115;  // row-buffer hit latency, cycles
  unsigned row_bytes = 2048;       // row-buffer size
  unsigned bytes_per_cycle = 32;   // sustained bandwidth per partition
  unsigned queue_depth = 32;       // controller request queue
};

/// Second-order effects only the "silicon" oracle models (DESIGN.md §2):
/// real hardware differs from any simulator by effects like these, so the
/// oracle enables them to act as a deterministic stand-in for real-GPU
/// cycle counts collected with Nsight Compute in the paper. Whether they
/// apply is the run's ModelSelection::silicon_effects; these fields only
/// size them.
struct SiliconEffects {
  double icache_miss_rate = 0.06;        // fetch stall probability per instr
  unsigned icache_miss_penalty = 20;     // cycles
  double regbank_conflict_rate = 0.20;   // extra operand-read cycle prob.
  unsigned writeback_bus_width = 2;      // results retired per cycle/subcore
  unsigned dram_refresh_interval = 2200; // cycles between refreshes
  unsigned dram_refresh_penalty = 160;   // cycles the channel is blocked
  unsigned kernel_launch_overhead = 400; // fixed cycles per kernel launch
  // Real-hardware effective memory latencies exceed the nominal
  // (microbenchmarked) figures under TLB/ECC/clock-crossing effects.
  unsigned l2_latency_extra = 18;        // cycles added to each L2 slice
  unsigned dram_latency_extra = 45;      // cycles added to each channel
};

/// Complete GPU description.
struct GpuConfig {
  GpuConfig();  // sets L2-appropriate defaults on the l2 member

  std::string name = "generic-gpu";

  // --- SM organization -----------------------------------------------------
  unsigned num_sms = 68;
  unsigned sub_cores_per_sm = 4;
  unsigned max_warps_per_sm = 32;
  unsigned max_ctas_per_sm = 16;
  unsigned max_threads_per_sm = 1024;
  std::uint64_t registers_per_sm = 65536;
  std::uint64_t shared_mem_per_sm = 64 * 1024;

  // --- Sub-core resources (Table II "Resources/Sub-core") ------------------
  SchedPolicy sched_policy = SchedPolicy::kGto;
  unsigned schedulers_per_sub_core = 1;
  ExecUnitConfig int_unit{16, 4, 0};
  ExecUnitConfig sp_unit{16, 4, 0};
  ExecUnitConfig dp_unit{1, 8, 64};   // "DP:0.5x" -> 64-cycle issue interval
  ExecUnitConfig sfu_unit{4, 21, 0};
  ExecUnitConfig tensor_unit{8, 16, 0};
  unsigned ldst_units_per_sub_core = 4;  // memory-instr issue rate 32/4 = 8cy
  unsigned ldst_queue_depth = 8;         // in-flight memory instrs/sub-core

  // --- Memory hierarchy -----------------------------------------------------
  CacheParams l1;   // per-SM, shared by sub-cores
  CacheParams l2;   // per-partition slice
  unsigned shared_mem_latency = 24;
  unsigned shared_mem_banks = 32;
  unsigned num_mem_partitions = 22;
  NocConfig noc;
  DramConfig dram;

  /// L2 request-drain budget: how many NoC-ejected requests each L2 slice
  /// attempts to accept per cycle. 0 (default) derives the budget from
  /// l2.banks, the slice's natural per-cycle throughput.
  unsigned l2_drain_attempts = 0;

  // --- Oracle-only second-order effects -------------------------------------
  SiliconEffects effects;

  // Derived -------------------------------------------------------------
  unsigned warps_per_sub_core() const {
    return max_warps_per_sm / sub_cores_per_sm;
  }
  std::uint64_t total_l2_bytes() const {
    return static_cast<std::uint64_t>(l2.size_bytes) * num_mem_partitions;
  }
  unsigned cuda_cores() const {
    return num_sms * sub_cores_per_sm * sp_unit.lanes;
  }

  /// Throws SimError describing the first inconsistency found.
  void Validate() const;

  /// Loads from an INI file; unspecified keys keep the values of `base`
  /// (so users can write sparse override files on top of a preset). Keys
  /// outside IniKeys() are ignored.
  static GpuConfig FromIni(const IniFile& ini, GpuConfig base);
  static GpuConfig FromIni(const IniFile& ini);

  /// Every "section.key" ToIniString writes and FromIni reads. Callers
  /// that must not ignore a key (daemon requests, sweep axes) check
  /// against it.
  static const std::set<std::string>& IniKeys();

  /// Serializes every field to INI text that FromIni round-trips.
  std::string ToIniString() const;

  /// Stable hash of the canonical INI serialization — the config lane of
  /// the memoization cache key. Equal configurations hash equal; any field
  /// change changes the hash, since FromIni, ToIniString and IniKeys walk
  /// one field list (gpu_config.cc).
  std::uint64_t CanonicalHash() const;
};

}  // namespace swiftsim
