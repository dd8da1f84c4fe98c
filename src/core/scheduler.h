// Warp scheduler policies (paper's DSE example module — this is the
// component an architect would keep cycle-accurate while simplifying the
// rest). Three policies: GTO (greedy-then-oldest), LRR (loose round-robin)
// and a two-level active/pending scheduler.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/bitutil.h"
#include "common/types.h"
#include "config/gpu_config.h"
#include "core/warp.h"

namespace swiftsim {

class WarpScheduler {
 public:
  /// `slots` is the number of warp slots this scheduler arbitrates over
  /// (one sub-core's worth). For kTwoLevel, `active_size` bounds the inner
  /// active set.
  WarpScheduler(SchedPolicy policy, unsigned slots, unsigned active_size = 8);

  /// Picks the next warp slot to issue from. `ready(slot)` must be a pure
  /// predicate ("could slot issue this cycle?"); `age(slot)` returns the
  /// warp's launch sequence number (lower == older). Returns kNoSlot when
  /// nothing is ready. `live` is the owner's candidate set: every slot
  /// outside it must fail `ready` with no side effect (SmCore keeps out
  /// warps that are finished, waiting, without fetched instructions or
  /// scoreboard-blocked). GTO and LRR probe only its members, in their
  /// usual order, so the pick equals the set-free one. Two-level probing
  /// keeps its own order over all slots, since it also promotes waiting
  /// warps.
  /// Templated over the callables so the per-pick call in SmCore::Tick
  /// never materializes a std::function (heap-allocating capture) on the
  /// hot path.
  template <typename ReadyFn, typename AgeFn>
  unsigned Pick(const ReadyFn& ready, const AgeFn& age, const IndexSet& live) {
    switch (policy_) {
      case SchedPolicy::kGto:
        return PickGto(ready, age, live);
      case SchedPolicy::kLrr:
        return PickLrr(ready, live);
      case SchedPolicy::kTwoLevel:
        return PickTwoLevel(ready, age);
    }
    return kNoSlot;
  }

  /// Set-free form: every slot is a candidate. Builds the full set on
  /// each call, so it serves as the reference, not the hot path.
  template <typename ReadyFn, typename AgeFn>
  unsigned Pick(const ReadyFn& ready, const AgeFn& age) {
    IndexSet all(slots_);
    all.InsertAll();
    return Pick(ready, age, all);
  }

  /// Informs the policy that `slot` issued (GTO greediness, LRR rotation,
  /// two-level activity bookkeeping).
  void OnIssue(unsigned slot);

  /// Informs the policy that the warp in `slot` finished or was replaced.
  void OnSlotDrained(unsigned slot);

  /// True when Pick mutates policy state even on a failed probe (the
  /// two-level scheduler advances stall counters and demotes warps every
  /// call). An SM driving such a policy can never be put to sleep by the
  /// wake calendar: eliding a Pick would diverge from per-cycle ticking.
  bool StatefulProbe() const { return policy_ == SchedPolicy::kTwoLevel; }

  SchedPolicy policy() const { return policy_; }

 private:
  template <typename ReadyFn, typename AgeFn>
  unsigned PickGto(const ReadyFn& ready, const AgeFn& age,
                   const IndexSet& live) const {
    // Greedy: stick with the last issued warp while it stays ready.
    if (last_issued_ != kNoSlot && live.Contains(last_issued_) &&
        ready(last_issued_)) {
      return last_issued_;
    }
    // Then oldest ready warp.
    unsigned best = kNoSlot;
    std::uint64_t best_age = ~std::uint64_t{0};
    live.ForEach([&](unsigned s) {
      if (!ready(s)) return;
      const std::uint64_t a = age(s);
      if (a < best_age) {
        best_age = a;
        best = s;
      }
    });
    return best;
  }

  template <typename ReadyFn>
  unsigned PickLrr(const ReadyFn& ready, const IndexSet& live) const {
    const unsigned start = last_issued_ == kNoSlot ? 0 : last_issued_ + 1;
    unsigned found = kNoSlot;
    live.ForEachFrom(start, [&](unsigned s) {
      if (!ready(s)) return false;
      found = s;
      return true;
    });
    return found;
  }

  template <typename ReadyFn, typename AgeFn>
  unsigned PickTwoLevel(const ReadyFn& ready, const AgeFn& age) {
    // Inner level: LRR over the active set.
    unsigned found = kNoSlot;
    for (std::size_t i = 0; i < active_.size(); ++i) {
      const unsigned s = active_[i];
      if (ready(s)) {
        found = s;
        stall_count_[s] = 0;
        break;
      }
      // Demote a warp stalled for too long; promote the oldest READY
      // pending warp (falling back to the oldest pending one) so progress
      // does not cycle among equally stalled warps.
      if (++stall_count_[s] > 32) {
        stall_count_[s] = 0;
        unsigned promote = kNoSlot;
        bool promote_ready = false;
        std::uint64_t best_age = ~std::uint64_t{0};
        for (unsigned cand = 0; cand < slots_; ++cand) {
          if (std::find(active_.begin(), active_.end(), cand) !=
              active_.end()) {
            continue;
          }
          const bool cand_ready = ready(cand);
          if (promote_ready && !cand_ready) continue;
          const std::uint64_t a = age(cand);
          if ((cand_ready && !promote_ready) || a < best_age) {
            best_age = a;
            promote = cand;
            promote_ready = cand_ready;
          }
        }
        if (promote != kNoSlot) active_[i] = promote;
      }
    }
    if (found != kNoSlot) {
      // Rotate the active set for fairness.
      std::rotate(active_.begin(),
                  std::find(active_.begin(), active_.end(), found) + 1,
                  active_.end());
    }
    return found;
  }

  SchedPolicy policy_;
  unsigned slots_;
  unsigned active_size_;
  unsigned last_issued_ = kNoSlot;  // GTO greedy target / LRR rotor
  std::vector<unsigned> active_;    // two-level active set (slot ids)
  std::vector<unsigned> stall_count_;  // two-level demotion counter
};

}  // namespace swiftsim
