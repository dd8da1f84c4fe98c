// Config-driven fault-injection harness (DESIGN.md §11).
//
// A FaultPlan describes a deterministic chaos scenario: response delays,
// drop-then-retry (or drop-forever, the livelock fixture), warp-issue
// freezes, backpressure storms at the shared-memory drains, and trace-record
// truncation/corruption at ingestion. FaultInjector implements the
// FaultHooks seam the cycle-accurate driver consults; every decision is a
// stateless hash of (seed, site, position), so the same plan produces the
// same faults regardless of thread count, tick order or wall clock.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"
#include "config/ini.h"
#include "mem/request.h"
#include "sim/fault_hooks.h"
#include "trace/kernel.h"

namespace swiftsim {

/// One chaos scenario. All probabilities in [0, 1]; a field left at its
/// default disables that fault axis.
struct FaultPlan {
  std::string name = "none";
  std::uint64_t seed = 1;

  // Memory-response delay: hold a delivered response for `resp_delay_cycles`.
  double resp_delay_p = 0;
  Cycle resp_delay_cycles = 0;

  // Drop-then-retry: swallow a response, redeliver after `resp_retry_cycles`,
  // re-rolling the drop up to `resp_max_drops` times. max_drops == 0 with
  // drop_p > 0 means drop forever — the deliberate-livelock fixture the
  // watchdog must catch.
  double resp_drop_p = 0;
  Cycle resp_retry_cycles = 0;
  unsigned resp_max_drops = 0;

  // Warp-issue freeze: whole windows of `issue_stall_cycles` during which an
  // SM is not ticked (responses still deliver).
  double issue_stall_p = 0;
  Cycle issue_stall_cycles = 0;

  // Backpressure storm: whole windows of `storm_cycles` during which the
  // L1-miss-queue and L2 drains are blocked (queue-full upward).
  double storm_p = 0;
  Cycle storm_cycles = 0;

  // Trace-ingestion faults (InjectTraceFaults): per-kernel probability of
  // dropping non-barrier body instructions (stays valid, completes) or of
  // structurally corrupting the trace (must fail loudly at validation).
  double trace_truncate_p = 0;
  double trace_corrupt_p = 0;

  /// Any driver-side axis armed? (Trace faults act at ingestion instead.)
  bool AnyRuntime() const {
    return resp_delay_p > 0 || resp_drop_p > 0 || issue_stall_p > 0 ||
           storm_p > 0;
  }
  bool AnyTrace() const { return trace_truncate_p > 0 || trace_corrupt_p > 0; }
  bool Any() const { return AnyRuntime() || AnyTrace(); }

  /// Throws SimError on out-of-range probabilities or missing cycle spans.
  void Validate() const;

  /// Keys are read from the [fault] section (fault.seed, fault.resp_drop_p,
  /// ...); absent keys keep their defaults.
  static FaultPlan FromIni(const IniFile& ini);
  static FaultPlan FromFile(const std::string& path);
};

/// FaultHooks implementation over a FaultPlan. Per-SM custody lists are
/// owned by the shard that ticks the SM; the cross-thread surface is one
/// atomic count (AnyHeld) — NextDueAfter is only called while shards are
/// parked at the window barrier.
class FaultInjector : public FaultHooks {
 public:
  FaultInjector(const FaultPlan& plan, unsigned num_sms);

  bool OnResponse(SmId sm, const MemResponse& resp, Cycle now) override;
  void CollectDue(SmId sm, Cycle now, std::vector<MemResponse>* out) override;
  bool FreezeIssue(SmId sm, Cycle now) override;
  bool StormActive(Cycle now) override;
  bool AnyHeld() const override {
    return held_count_.load(std::memory_order_acquire) != 0;
  }
  Cycle NextDueAfter(Cycle now) const override;

  /// Forgets every held response, for arming a fresh model after the one
  /// they were held for is discarded. The telemetry counts are kept.
  void ClearCustody();

  const FaultPlan& plan() const { return plan_; }

  // Telemetry (relaxed atomics; exact totals once the run has joined).
  std::uint64_t delayed() const { return delayed_.load(); }
  std::uint64_t dropped() const { return dropped_.load(); }
  std::uint64_t redelivered() const { return redelivered_.load(); }
  std::uint64_t freezes() const { return freezes_.load(); }

 private:
  struct Held {
    Cycle due = 0;  // kNever = drop-forever custody
    unsigned drops = 0;
    MemResponse resp;
  };

  /// Uniform [0,1) decision for (site, a, b) — stateless, so independent of
  /// evaluation order across threads.
  double Roll(std::uint64_t site, std::uint64_t a, std::uint64_t b) const;

  FaultPlan plan_;
  std::vector<std::vector<Held>> held_;  // indexed by SM, shard-owned
  std::atomic<std::size_t> held_count_{0};
  std::atomic<std::uint64_t> delayed_{0};
  std::atomic<std::uint64_t> dropped_{0};
  std::atomic<std::uint64_t> redelivered_{0};
  std::atomic<std::uint64_t> freezes_{0};
};

/// Applies the plan's trace-fault axes to `app`, returning a rebuilt
/// application. Truncation drops non-barrier body instructions (the result
/// revalidates and still completes); corruption breaks a structural
/// invariant and therefore throws SimError here, at ingestion — loudly,
/// with the kernel named — rather than crashing the model later.
Application InjectTraceFaults(const Application& app, const FaultPlan& plan);

}  // namespace swiftsim
