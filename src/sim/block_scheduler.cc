#include "sim/block_scheduler.h"

#include "common/status.h"

namespace swiftsim {

void BlockScheduler::StartKernel(const KernelTrace* kernel) {
  SS_CHECK(kernel != nullptr, "BlockScheduler: null kernel");
  SS_CHECK(Done(), "BlockScheduler: previous kernel still in flight");
  kernel_ = kernel;
  next_cta_ = 0;
  completed_ = 0;
}

unsigned BlockScheduler::AssignPending(
    std::vector<std::unique_ptr<SmCore>>& sms, IndexSet* launched_on) {
  if (kernel_ == nullptr || AllLaunched()) return 0;
  const KernelInfo& info = kernel_->info();
  unsigned launched = 0;
  const unsigned n = static_cast<unsigned>(sms.size());
  // Breadth-first: one CTA per SM per pass (hardware distributes blocks
  // across SMs before stacking them), rotating the starting SM so
  // single-CTA tails spread over the chip.
  bool any = true;
  while (any && !AllLaunched()) {
    any = false;
    for (unsigned k = 0; k < n && !AllLaunched(); ++k) {
      const unsigned s = (rr_ + k) % n;
      SmCore& sm = *sms[s];
      if (sm.CanTakeCta(info)) {
        sm.LaunchCta(*kernel_, next_cta_++);
        if (launched_on != nullptr) launched_on->Insert(s);
        ++launched;
        any = true;
      }
    }
  }
  rr_ = (rr_ + 1) % n;
  return launched;
}

}  // namespace swiftsim
