// Fault-injection seam for the cycle-accurate driver (DESIGN.md §11).
//
// GpuModel consults an armed FaultHooks instance at the module hand-off
// points the resilience tests target: NoC→SM response delivery, SM issue,
// and the shared-memory drain. The hooks are pure observers
// plus a response-holding station — they never mutate model state, so
// conservation invariants (every request eventually answered or loudly
// dropped) are the implementation's to keep.
//
// When no hooks are armed (the default) the driver's only cost is one
// null-pointer test per guarded site, keeping injection-off runs
// bit-identical to the pre-injection driver.
#pragma once

#include <cstddef>
#include <vector>

#include "common/types.h"
#include "mem/request.h"

namespace swiftsim {

class FaultHooks {
 public:
  virtual ~FaultHooks() = default;

  /// Response about to be delivered to `sm` at `now`. Return true to
  /// deliver immediately; false means the hooks took custody (delay or
  /// drop-then-retry) and will surface it via CollectDue — or never, for
  /// a deliberate livelock plan.
  virtual bool OnResponse(SmId sm, const MemResponse& resp, Cycle now) = 0;

  /// Appends held responses for `sm` that are due at or before `now`,
  /// removing them from custody. Called by the shard that owns `sm`.
  virtual void CollectDue(SmId sm, Cycle now,
                          std::vector<MemResponse>* out) = 0;

  /// True when warp issue on `sm` is frozen this cycle (the SM is not
  /// ticked; response delivery still happens).
  virtual bool FreezeIssue(SmId sm, Cycle now) = 0;

  /// True while a backpressure storm blocks the L1-miss-queue and L2
  /// drains this cycle (queue-full conditions propagate upward).
  virtual bool StormActive(Cycle now) = 0;

  /// True while any response is in custody; folded into MemQuiescent so
  /// neither kernel completion nor cycle skipping can run past a held
  /// response.
  virtual bool AnyHeld() const = 0;

  /// Earliest cycle > `now` at which a held response becomes due; kNever
  /// (~Cycle{0}) when none ever will — the watchdog's livelock fixture.
  virtual Cycle NextDueAfter(Cycle now) const = 0;
};

}  // namespace swiftsim
