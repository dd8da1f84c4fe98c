// The assembled GPU performance model: SMs + interconnect + L2 partitions
// + DRAM channels + block scheduler, with per-module modeling approaches
// chosen by ModelSelection (paper Fig. 2, "Modular and Hybrid GPU
// Modeling").
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "analytical/mem_model.h"
#include "common/types.h"
#include "config/gpu_config.h"
#include "mem/addrmap.h"
#include "mem/cache.h"
#include "mem/dram.h"
#include "mem/noc.h"
#include "sim/block_scheduler.h"
#include "sim/fault_hooks.h"
#include "sim/metrics.h"
#include "sim/model_select.h"
#include "sim/model_settings.h"
#include "sim/sm.h"
#include "trace/kernel.h"

namespace swiftsim {

struct KernelResult {
  std::string name;
  Cycle cycles = 0;           // this kernel's contribution
  std::uint64_t instructions = 0;
};

/// One graceful-degradation fallback (DESIGN.md §11): a kernel that hung or
/// failed under the detailed model and was re-run analytically.
struct DegradeEvent {
  std::string kernel;
  std::string reason;     // what() of the error that triggered the fallback
  std::string dump_path;  // diagnostic dump, "" when none was written
};

struct SimResult {
  std::string app;
  std::string simulator;
  Cycle total_cycles = 0;
  std::uint64_t instructions = 0;
  double wall_seconds = 0;
  std::vector<KernelResult> kernels;
  std::vector<DegradeEvent> degrades;
  std::map<std::string, std::uint64_t> metrics;

  /// metrics[name], or 0 when the run never registered it.
  std::uint64_t Metric(const std::string& name) const {
    const auto it = metrics.find(name);
    return it != metrics.end() ? it->second : 0;
  }
};

class GpuModel {
 public:
  /// `profile` must be non-null iff selection.mem == kAnalytical; it must
  /// outlive the model. `settings` choose how the model is driven (cycle
  /// skipping, watchdog), never what it simulates.
  GpuModel(const GpuConfig& cfg, const ModelSelection& selection,
           const MemProfile* profile = nullptr,
           const ModelSettings& settings = {});

  /// Runs one kernel to completion (including memory drain); returns the
  /// cycles it consumed. State (caches, clock) persists across kernels.
  Cycle RunKernel(const KernelTrace& kernel);

  /// Runs all kernels of an application in launch order.
  SimResult RunApplication(const Application& app);

  Cycle now() const { return now_; }
  const MetricsGatherer& metrics() const { return gatherer_; }
  const std::vector<std::unique_ptr<SmCore>>& sms() const { return sms_; }

  /// Aggregated convenience stats (summed over components).
  std::uint64_t TotalIssuedInstrs() const;
  std::uint64_t TotalReservationFails() const;

  // --- Stepping interface -------------------------------------------------
  // RunKernel is built on these primitives, one cycle at a time: CTA
  // dispatch, the SM ticks, then the shared memory system. Tests (the
  // hot-path allocation gate) step a model through them directly.

  /// Feasibility check, launch overhead, per-SM kernel-start hooks and
  /// block-scheduler arming — everything RunKernel does before its loop.
  void BeginKernel(const KernelTrace& kernel);

  /// True once the grid completed and every component drained.
  bool KernelDone() const {
    return scheduler_.Done() && AllQuiescent();
  }

  /// Greedy CTA dispatch over all SMs.
  unsigned AssignPendingCtas() {
    return scheduler_.AssignPending(sms_, &active_sms_);
  }

  /// Advances the active SMs in [first, last) by one cycle: delivers
  /// pending NoC responses and ticks each one. Returns true if any SM
  /// progressed.
  bool TickSmRange(unsigned first, unsigned last, Cycle now);

  /// Ticks the shared memory system one cycle: injects each non-empty L1
  /// miss queue into the request network (SM order, stopping per SM at the
  /// first rejection), then ticks the NoC and every memory partition (L2
  /// slice + DRAM channel) that has work this cycle.
  void TickSharedMemory(Cycle now);

  /// NoC + L2 + DRAM + all SM L1 miss queues drained.
  bool MemQuiescent() const;

  /// Earliest future wake cycle over all active SMs; kNever when none.
  Cycle MinNextWake() const;

  /// The shared memory system's side of the wake calendar: the earliest
  /// cycle > `now` at which the NoC, any L2 slice, any DRAM channel, or a
  /// queued L1 miss can change state. kNever when drained (or in
  /// analytical-memory mode, which has no shared memory system).
  Cycle MemNextEventAfter(Cycle now) const;

  /// Fast-forwards over `skipped` cycles the calendar proved are no-op
  /// ticks: replays per-call rotors (NoC arbitration, block-scheduler
  /// starting SM), catches up per-SM stall accounting, and records skip
  /// statistics.
  void FastForward(Cycle skipped);

  /// Drivers that own the clock between kernels (memo replay, retry and
  /// degradation) resync the model so state that persists across kernels
  /// (launch overhead, totals) agrees.
  void SyncClock(Cycle now) { now_ = now; }

  // --- Resilience (DESIGN.md §11) -----------------------------------------

  /// Arms fault injection at the module hand-off seams (response delivery,
  /// issue, shared-memory drain). `hooks` must outlive the model; nullptr
  /// disarms. Unarmed runs take exactly one null test per guarded site.
  void ArmFaults(FaultHooks* hooks) { fault_ = hooks; }

  /// One watchdog observation at simulated cycle `now`. Call after the
  /// cycle's ticks so a jump landing's progress is already visible. Throws
  /// SimHangError (after writing a diagnostic dump) when the progress
  /// signature froze for a full window or the wall budget expired. Pure
  /// observation otherwise — never perturbs simulated state.
  void WatchdogPoll(Cycle now);

  /// Raises the typed wedge error (no progress and no future calendar
  /// events) with a diagnostic dump; replaces the old bare SS_CHECK so
  /// hung drivers fail with actionable state.
  [[noreturn]] void ThrowWedged(Cycle now);

  /// Writes the JSON diagnostic dump (per-SM warp/scoreboard/LD-ST state,
  /// memory occupancies, wake calendar) to the watchdog's dump_dir. Returns
  /// the file path, or "" when no dump directory is configured or the
  /// write failed.
  std::string WriteDiagnosticDump(const std::string& reason, Cycle now) const;

  /// Monotone counter folding issued instructions and memory-system
  /// traffic; frozen signature across a watchdog window means livelock.
  std::uint64_t ProgressSignature() const;

 private:
  /// Skip statistics (registered under "driver.*"). span_hist[k] counts
  /// jumps whose span lies in [2^k, 2^(k+1)) cycles; the last bucket is
  /// open-ended.
  struct SkipStats {
    static constexpr unsigned kHistBuckets = 8;
    std::uint64_t cycles_skipped = 0;  // driver cycles elided by jumps
    std::uint64_t jumps = 0;           // wake events dispatched via jumps
    std::uint64_t sm_ticks_saved = 0;  // active-SM ticks elided by jumps
    std::uint64_t span_hist[kHistBuckets] = {};
  };

  bool AllQuiescent() const;
  void RegisterMetrics();

  GpuConfig cfg_;
  ModelSelection sel_;
  ModelSettings settings_;
  std::unique_ptr<AnalyticalMemModel> mem_model_;

  std::vector<std::unique_ptr<SmCore>> sms_;
  std::unique_ptr<Interconnect> noc_;
  std::vector<std::unique_ptr<SectorCache>> l2_;
  std::vector<std::unique_ptr<DramChannel>> dram_;
  std::unique_ptr<AddrMap> addrmap_;
  BlockScheduler scheduler_;
  // Activity indexes (DESIGN.md §8): the per-cycle loops walk only these
  // members, in index order. Each is updated at the exact events that
  // change it.
  IndexSet active_sms_;    // SMs that may be Active(): received a CTA and
                           // not yet found drained
  IndexSet l1_miss_sms_;   // SMs whose L1 miss queue is non-empty
  std::vector<Cycle> partition_next_;  // per partition: next own event
  MetricsGatherer gatherer_;
  SkipStats skip_;
  unsigned l2_drain_attempts_ = 0;  // resolved from cfg (0 = l2.banks)

  // Resilience state (DESIGN.md §11). All driver-thread-only.
  FaultHooks* fault_ = nullptr;              // non-owning; nullptr = off
  const KernelTrace* current_kernel_ = nullptr;
  bool wd_enabled_ = false;
  Cycle wd_next_check_ = 0;
  std::uint64_t wd_last_sig_ = 0;
  unsigned wd_poll_count_ = 0;               // amortizes wall-clock reads
  bool wall_armed_ = false;
  std::chrono::steady_clock::time_point wall_deadline_{};

  Cycle now_ = 0;
};

}  // namespace swiftsim
