// One streaming multiprocessor assembled from the core-substrate modules
// (paper Fig. 1 / §III-B): sub-cores with warp schedulers, execution units
// (cycle-accurate or hybrid-analytical), LD/ST units (cycle-accurate L1
// path or Eq. 1 analytical path), barrier manager and CTA allocator. The
// modeling approach of each module is a constructor-time choice
// (ModelSelection) behind fixed interfaces — the framework's core idea.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <optional>
#include <queue>
#include <vector>

#include "analytical/mem_model.h"
#include "common/bitutil.h"
#include "common/types.h"
#include "config/gpu_config.h"
#include "core/barrier.h"
#include "core/cta_allocator.h"
#include "core/exec_unit.h"
#include "core/ldst_unit.h"
#include "core/operand_collector.h"
#include "core/scheduler.h"
#include "core/scoreboard.h"
#include "core/warp.h"
#include "mem/cache.h"
#include "mem/coalescer.h"
#include "sim/model_select.h"
#include "sim/model_settings.h"

namespace swiftsim {

inline constexpr Cycle kNever = ~Cycle{0};

struct SmStats {
  std::uint64_t issued_instrs = 0;
  std::uint64_t issued_alu = 0;
  std::uint64_t issued_mem = 0;
  std::uint64_t issued_control = 0;
  std::uint64_t active_cycles = 0;     // cycles with >=1 issue
  std::uint64_t stall_cycles = 0;      // resident warps but nothing issued
  std::uint64_t completed_ctas = 0;
  std::uint64_t icache_stall_cycles = 0;
  std::uint64_t regbank_conflicts = 0;
  std::uint64_t barrier_waits = 0;
};

class SmCore {
 public:
  using CtaCompleteFn = std::function<void(SmId)>;

  /// `mem_model` must be non-null iff selection.mem == kAnalytical and must
  /// outlive the SM. Of `settings`, only cycle_skip is read here.
  SmCore(const GpuConfig& cfg, const ModelSelection& selection, SmId id,
         const AnalyticalMemModel* mem_model, CtaCompleteFn on_cta_complete,
         const ModelSettings& settings = {});

  // --- Block-scheduler interface -----------------------------------------
  bool CanTakeCta(const KernelInfo& info) const;
  void LaunchCta(const KernelTrace& kernel, CtaId cta_id);

  /// Called once per kernel launch: how many SMs will share chip-level
  /// bandwidth (analytical contention pipes only; no-op otherwise).
  void OnKernelStart(unsigned active_sms);

  // --- Clock interface -----------------------------------------------------
  /// Advances one cycle; returns true if any instruction issued or any
  /// completion retired (progress).
  bool Tick(Cycle now);

  /// Earliest future cycle at which this SM can make progress again
  /// (completion events, structural-hazard releases, latency-pipe
  /// deliveries); kNever when nothing is scheduled. Updated by Tick; the
  /// GPU model may skip ticking this SM until the returned cycle — the
  /// event-driven fast path that gives the hybrid simulators their speed.
  Cycle NextWake() const { return next_wake_; }

  /// Invalidates the cached wake time (new CTA, a fill that can matter
  /// this cycle, …).
  void ForceWake() { next_wake_ = 0; }

  /// True when a fill delivered on cycle `now` left this SM asleep
  /// (DeliverResponse). The tick a fill used to force would have counted
  /// one stall cycle; drivers that do not account skipped cycles (the
  /// hybrid-ALU levels) charge it through AccountSkippedCycles(1), once
  /// per cycle however many fills arrived.
  bool SleptThroughFill(Cycle now) const { return slept_fill_ == now; }

  /// Stats catch-up for cycles the driver proved would be no-op ticks and
  /// elided (cycle skipping, DESIGN.md §9). The per-cycle reference loop
  /// would have counted each of them as a stall cycle whenever warps are
  /// resident, and capacity-blocked LD/ST units would have re-attempted
  /// (and re-failed) their head access, so skip-mode runs report identical
  /// stall and rejection metrics.
  void AccountSkippedCycles(Cycle n) {
    if (resident_warps_ > 0) stats_.stall_cycles += n;
    for (SubCore& sc : subcores_) {
      if (sc.ldst) sc.ldst->AccountElidedRetries(n);
    }
  }

  /// True when a capacity-blocked LD/ST unit could make progress this
  /// cycle even though the cached wake lies in the future: the L1 miss
  /// queue it was blocked on has drained below capacity. MSHR blocks wake
  /// through DeliverResponse (the freeing fill) instead. The driver checks
  /// this each ticked cycle before eliding a sleeping SM.
  bool CapacityWakeDue() const {
    if (l1_ == nullptr || l1_->miss_queue_full()) return false;
    for (const SubCore& sc : subcores_) {
      if (sc.ldst->BlockedOnMissQueue()) return true;
    }
    return false;
  }

  /// True when the SM holds no resident CTAs and all machinery drained.
  bool Idle() const;

  /// Anything resident or in flight (cheap check for the GPU model's
  /// active-SM filter). A drained SM stays drained until the next
  /// LaunchCta — nothing else can make it active — so the full Quiescent
  /// walk runs once per drain instead of once per cycle.
  bool Active() const {
    if (resident_warps_ > 0) return true;
    if (idle_cached_) return false;
    if (!Quiescent()) return true;
    idle_cached_ = true;
    return false;
  }

  /// All LD/ST units, the L1 (bar its miss queue) and the event queue
  /// drained.
  bool Quiescent() const;

  // --- Memory-side interface (cycle-accurate memory mode only) ------------
  SectorCache* l1() { return l1_.get(); }
  /// Fills the L1 from the NoC. Wakes the SM this cycle only if the fill
  /// can matter to it now (DESIGN.md §9); otherwise its wake moves no
  /// later than the fill's first waiter response.
  void DeliverResponse(const MemResponse& resp, Cycle now);

  const SmStats& stats() const { return stats_; }
  const CacheStats* l1_stats() const {
    return l1_ ? &l1_->stats() : nullptr;
  }
  const CtaAllocator& allocator() const { return allocator_; }
  SmId id() const { return id_; }

  // --- Diagnostics (DESIGN.md §11) ----------------------------------------
  /// Why this SM is not retiring work, as a (warp, resource) pair for the
  /// hang diagnostic dump. Capacity-blocked LD/ST units take precedence
  /// (they gate the whole memory pipe); otherwise the first live warp's
  /// blocker is named: barrier wait, scoreboard hazard (typically an
  /// outstanding memory response), or plain issue contention.
  struct StallInfo {
    int warp = -1;                  // stalled warp slot, -1 when idle
    const char* resource = "none";  // blocking-resource heuristic
  };
  StallInfo DescribeStall() const;

  /// Writes this SM's state as one JSON object: per-warp positions and
  /// hazards, LD/ST occupancy and block reasons, L1 MSHR/queue occupancy,
  /// and the wake-calendar entry.
  void DumpState(std::ostream& os) const;

  /// Read-only views of the issue-scan state, for invariant tests.
  const WarpContext& warp(unsigned slot) const { return warps_[slot]; }
  bool scoreboard_blocked(unsigned slot) const {
    return sb_blocked_[slot] != 0;
  }
  const IndexSet& candidates(unsigned sub_core) const {
    return subcores_[sub_core].live;
  }

 private:
  struct ResidentCta {
    bool valid = false;
    const KernelTrace* kernel = nullptr;
    KernelId kernel_id = 0;
    CtaId cta_id = 0;
    unsigned live_warps = 0;
  };

  struct Event {
    Cycle cycle;
    unsigned slot;
    std::uint8_t dst;
    std::uint8_t subcore;
    bool is_mem;
    bool operator>(const Event& o) const { return cycle > o.cycle; }
  };

  struct SubCore {
    std::unique_ptr<WarpScheduler> scheduler;
    std::vector<ExecPipeline> pipelines;        // cycle-accurate ALU mode
    std::unique_ptr<OperandCollector> collector;  // cycle-accurate ALU mode
    std::unique_ptr<HybridAluModel> hybrid_alu; // hybrid ALU mode
    std::unique_ptr<LdstUnit> ldst;             // cycle-accurate mem mode
    // Analytical memory mode state (paper §III-D2).
    Cycle ana_ldst_next_issue = 0;
    unsigned ana_ldst_inflight = 0;
    unsigned fetch_rr = 0;  // detailed-frontend fetch rotor
    // Candidate set: local slots (slot / sub-core count) whose warp could
    // pass WarpReady. Its warp is valid, unfinished, not at a barrier and
    // not exhausted; at the detailed front end its i-buffer is not empty;
    // except at silicon it is not scoreboard-blocked. See RefreshLive.
    IndexSet live;
  };

  void Writeback(unsigned slot, std::uint8_t dst);
  /// Re-derives `slot`'s membership in its sub-core's candidate set.
  /// Called at every event that can add or drop it: launch, issue, barrier
  /// release, a fetch into an empty i-buffer, and a writeback that clears
  /// a scoreboard block. WarpReady drops the slots it finds blocked
  /// (BlockOnScoreboard).
  void RefreshLive(unsigned slot);
  bool WarpReady(unsigned slot, Cycle now);
  /// Caches `slot`'s scoreboard block and, except at silicon, takes it out
  /// of the candidate set until the writeback that clears the block.
  void BlockOnScoreboard(unsigned slot);
  void IssueInstr(unsigned slot, Cycle now);
  void IssueControl(unsigned slot, const CompactInstr& ins);
  void IssueAlu(unsigned slot, const CompactInstr& ins, Cycle now);
  void IssueMem(unsigned slot, const CompactInstr& ins, Cycle now);
  // Scratch for per-issue columnar address decode (allocation-free).
  LaneAddrs mem_addrs_;
  void FinishCta(unsigned cta_slot);
  void WakeCtaWarps(unsigned cta_slot);
  void FrontendTick(SubCore& sc, unsigned sc_idx, Cycle now);
  Cycle FrontendNextWake(Cycle now) const;
  ExecPipeline& PipelineFor(SubCore& sc, UnitClass cls);
  void NoteWake(Cycle when);

  GpuConfig cfg_;
  ModelSelection sel_;
  bool cycle_skip_;
  SmId id_;
  const AnalyticalMemModel* mem_model_;
  CtaCompleteFn on_cta_complete_;

  std::vector<WarpContext> warps_;
  std::vector<std::uint8_t> conflict_paid_;  // silicon regbank effect
  // Scan-avoidance caches, maintained incrementally and invalidated at
  // the exact events that can change the cached answer:
  mutable bool idle_cached_ = false;    // cleared by LaunchCta
  unsigned fetchable_ = 0;              // warps with i-buffer room (detailed)
  std::vector<std::uint8_t> sb_blocked_;  // cleared per slot by Writeback
  std::vector<ResidentCta> ctas_;
  unsigned resident_warps_ = 0;
  std::uint64_t launch_seq_ = 0;

  Scoreboard scoreboard_;
  BarrierManager barriers_;
  CtaAllocator allocator_;
  SmemConflictCounter smem_conflicts_;  // analytical-path bank conflicts
  std::vector<SubCore> subcores_;
  std::unique_ptr<SectorCache> l1_;  // cycle-accurate memory mode only
  std::unique_ptr<MemContentionModel> contention_;  // analytical mode

  std::priority_queue<Event, std::vector<Event>, std::greater<Event>>
      events_;
  Cycle next_struct_wake_ = kNever;
  Cycle next_wake_ = 0;
  Cycle slept_fill_ = kNever;  // last cycle a fill left the SM asleep

  SmStats stats_;
};

}  // namespace swiftsim
