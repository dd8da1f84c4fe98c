// The Block Scheduler module (paper Fig. 2): dispatches the grid's CTAs
// onto SMs greedily — whenever an SM has capacity it receives the next
// pending CTA — and tracks grid completion.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/bitutil.h"
#include "common/types.h"
#include "sim/sm.h"
#include "trace/kernel.h"

namespace swiftsim {

class BlockScheduler {
 public:
  BlockScheduler() = default;

  void StartKernel(const KernelTrace* kernel);

  /// Launches as many pending CTAs as fit right now, rotating over SMs for
  /// load balance. Returns the number launched. Each SM that received a
  /// CTA is inserted into `*launched_on` when given.
  unsigned AssignPending(std::vector<std::unique_ptr<SmCore>>& sms,
                         IndexSet* launched_on = nullptr);

  /// Called (via the SMs' completion hook) when a CTA finishes.
  void OnCtaComplete() {
    completed_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Replays the rotor advancement of `skipped` elided AssignPending calls
  /// (cycle skipping, DESIGN.md §9). The per-cycle loop advances the
  /// starting-SM rotor once per call while CTAs are pending; capacity
  /// cannot appear during a skipped span (frees require progress), so the
  /// elided calls would have launched nothing and only rotated.
  void OnCyclesSkipped(Cycle skipped, unsigned num_sms) {
    if (kernel_ == nullptr || AllLaunched()) return;
    rr_ = static_cast<unsigned>((rr_ + skipped % num_sms) % num_sms);
  }

  bool AllLaunched() const {
    return kernel_ == nullptr || next_cta_ >= kernel_->info().num_ctas;
  }
  bool Done() const {
    return kernel_ == nullptr || completed() >= kernel_->info().num_ctas;
  }

  CtaId launched() const { return next_cta_; }
  std::uint32_t completed() const {
    return completed_.load(std::memory_order_relaxed);
  }

 private:
  const KernelTrace* kernel_ = nullptr;
  CtaId next_cta_ = 0;
  std::atomic<std::uint32_t> completed_{0};
  unsigned rr_ = 0;
};

}  // namespace swiftsim
