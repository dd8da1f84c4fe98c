#include "core/scheduler.h"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "common/rng.h"

namespace swiftsim {
namespace {

std::function<std::uint64_t(unsigned)> AgeBySlot() {
  return [](unsigned slot) { return std::uint64_t{slot}; };
}

TEST(GtoScheduler, PicksOldestWhenNothingGreedy) {
  WarpScheduler sched(SchedPolicy::kGto, 8);
  auto ready = [](unsigned slot) { return slot == 3 || slot == 6; };
  EXPECT_EQ(sched.Pick(ready, AgeBySlot()), 3u);  // 3 is older
}

TEST(GtoScheduler, StaysGreedyOnLastIssued) {
  WarpScheduler sched(SchedPolicy::kGto, 8);
  auto all_ready = [](unsigned) { return true; };
  const unsigned first = sched.Pick(all_ready, AgeBySlot());
  sched.OnIssue(first);
  // With everything ready, GTO sticks to the same warp.
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(sched.Pick(all_ready, AgeBySlot()), first);
    sched.OnIssue(first);
  }
}

TEST(GtoScheduler, FallsBackToOldestWhenGreedyStalls) {
  WarpScheduler sched(SchedPolicy::kGto, 8);
  auto all_ready = [](unsigned) { return true; };
  const unsigned first = sched.Pick(all_ready, AgeBySlot());
  sched.OnIssue(first);
  auto except_first = [first](unsigned s) { return s != first; };
  const unsigned next = sched.Pick(except_first, AgeBySlot());
  EXPECT_NE(next, first);
  // Oldest ready: slot 0 unless first==0, then slot 1.
  EXPECT_EQ(next, first == 0 ? 1u : 0u);
}

TEST(GtoScheduler, RespectsCustomAges) {
  WarpScheduler sched(SchedPolicy::kGto, 4);
  auto ready = [](unsigned) { return true; };
  // Slot 2 is oldest (smallest launch_seq).
  auto age = [](unsigned slot) {
    const std::uint64_t ages[] = {30, 20, 10, 40};
    return ages[slot];
  };
  EXPECT_EQ(sched.Pick(ready, age), 2u);
}

TEST(GtoScheduler, ReturnsNoSlotWhenNothingReady) {
  WarpScheduler sched(SchedPolicy::kGto, 8);
  auto none = [](unsigned) { return false; };
  EXPECT_EQ(sched.Pick(none, AgeBySlot()), kNoSlot);
}

TEST(LrrScheduler, RotatesThroughReadyWarps) {
  WarpScheduler sched(SchedPolicy::kLrr, 4);
  auto all_ready = [](unsigned) { return true; };
  std::vector<unsigned> order;
  for (int i = 0; i < 8; ++i) {
    const unsigned s = sched.Pick(all_ready, AgeBySlot());
    order.push_back(s);
    sched.OnIssue(s);
  }
  // Loose round-robin visits every slot before repeating.
  EXPECT_EQ(order[0], 0u);
  EXPECT_EQ(order[1], 1u);
  EXPECT_EQ(order[2], 2u);
  EXPECT_EQ(order[3], 3u);
  EXPECT_EQ(order[4], 0u);
}

TEST(LrrScheduler, SkipsUnready) {
  WarpScheduler sched(SchedPolicy::kLrr, 4);
  auto odd_only = [](unsigned s) { return s % 2 == 1; };
  const unsigned a = sched.Pick(odd_only, AgeBySlot());
  sched.OnIssue(a);
  const unsigned b = sched.Pick(odd_only, AgeBySlot());
  EXPECT_EQ(a, 1u);
  EXPECT_EQ(b, 3u);
}

TEST(TwoLevelScheduler, IssuesFromActiveSet) {
  WarpScheduler sched(SchedPolicy::kTwoLevel, 16, 4);
  auto all_ready = [](unsigned) { return true; };
  std::set<unsigned> seen;
  for (int i = 0; i < 16; ++i) {
    const unsigned s = sched.Pick(all_ready, AgeBySlot());
    ASSERT_NE(s, kNoSlot);
    seen.insert(s);
    sched.OnIssue(s);
  }
  // With everyone ready, only the 4 active slots issue.
  EXPECT_LE(seen.size(), 4u);
}

TEST(TwoLevelScheduler, PromotesWhenActiveStalls) {
  WarpScheduler sched(SchedPolicy::kTwoLevel, 16, 4);
  // Only warp 10 (outside the initial active set {0..3}) is ready; after
  // enough stalled picks it must be promoted and issue.
  auto only_ten = [](unsigned s) { return s == 10; };
  unsigned picked = kNoSlot;
  for (int i = 0; i < 300 && picked == kNoSlot; ++i) {
    picked = sched.Pick(only_ten, AgeBySlot());
  }
  EXPECT_EQ(picked, 10u);
}

TEST(Scheduler, OnSlotDrainedClearsGreedy) {
  WarpScheduler sched(SchedPolicy::kGto, 4);
  auto all_ready = [](unsigned) { return true; };
  const unsigned first = sched.Pick(all_ready, AgeBySlot());
  sched.OnIssue(first);
  sched.OnSlotDrained(first);
  // Greedy target cleared: falls back to oldest (slot 0).
  EXPECT_EQ(sched.Pick(all_ready, AgeBySlot()), 0u);
}

TEST(Scheduler, SingleSlotAlwaysPicksZero) {
  for (auto pol : {SchedPolicy::kGto, SchedPolicy::kLrr,
                   SchedPolicy::kTwoLevel}) {
    WarpScheduler sched(pol, 1);
    auto ready = [](unsigned) { return true; };
    EXPECT_EQ(sched.Pick(ready, AgeBySlot()), 0u) << ToString(pol);
  }
}

// Full-scan reference picks for GTO and LRR: every slot is probed, in the
// order the policies define, with no live set to narrow the walk.
unsigned RefGtoPick(unsigned slots, unsigned last_issued,
                    const std::vector<bool>& ready,
                    const std::vector<std::uint64_t>& ages) {
  if (last_issued != kNoSlot && ready[last_issued]) return last_issued;
  unsigned best = kNoSlot;
  for (unsigned s = 0; s < slots; ++s) {
    if (ready[s] && (best == kNoSlot || ages[s] < ages[best])) best = s;
  }
  return best;
}

unsigned RefLrrPick(unsigned slots, unsigned last_issued,
                    const std::vector<bool>& ready) {
  const unsigned start = last_issued == kNoSlot ? 0 : last_issued + 1;
  for (unsigned i = 0; i < slots; ++i) {
    const unsigned s = (start + i) % slots;
    if (ready[s]) return s;
  }
  return kNoSlot;
}

TEST(Scheduler, LiveSetPickMatchesSetFreePick) {
  // One scheduler probes only the live slots. Readiness is drawn inside
  // the live set (an SM never finds a non-live slot ready), so its pick
  // must equal the full-scan pick: the reference above for GTO and LRR,
  // and the set-free Pick of a twin scheduler for two-level, which probes
  // every slot either way.
  for (auto pol : {SchedPolicy::kGto, SchedPolicy::kLrr,
                   SchedPolicy::kTwoLevel}) {
    for (unsigned slots : {1u, 7u, 8u, 32u, 96u}) {
      const std::string row =
          std::string(ToString(pol)) + " slots=" + std::to_string(slots);
      WarpScheduler with_set(pol, slots);
      WarpScheduler set_free(pol, slots);
      unsigned last_issued = kNoSlot;
      Rng rng(0x5eed + slots);
      std::vector<std::uint64_t> ages(slots);
      std::uint64_t next_age = 0;
      for (auto& a : ages) a = next_age++;
      IndexSet live(slots);
      std::vector<bool> is_ready(slots, false);
      for (int step = 0; step < 2000; ++step) {
        // Density varies per step: empty, sparse and full live sets.
        const double p_live = static_cast<double>(step % 5) / 4.0;
        for (unsigned s = 0; s < slots; ++s) {
          live.Assign(s, rng.Bernoulli(p_live));
          is_ready[s] = live.Contains(s) && rng.Bernoulli(0.3);
        }
        auto ready = [&](unsigned s) { return static_cast<bool>(is_ready[s]); };
        auto age = [&](unsigned s) { return ages[s]; };
        const unsigned got = with_set.Pick(ready, age, live);
        unsigned want = kNoSlot;
        switch (pol) {
          case SchedPolicy::kGto:
            want = RefGtoPick(slots, last_issued, is_ready, ages);
            break;
          case SchedPolicy::kLrr:
            want = RefLrrPick(slots, last_issued, is_ready);
            break;
          case SchedPolicy::kTwoLevel:
            want = set_free.Pick(ready, age);
            break;
        }
        ASSERT_EQ(got, want) << row << " step " << step;
        if (got != kNoSlot) {
          with_set.OnIssue(got);
          set_free.OnIssue(got);
          last_issued = got;
        }
        if (rng.Bernoulli(0.05)) {
          // A warp exits and a younger one takes its slot.
          const unsigned s = static_cast<unsigned>(rng.Below(slots));
          with_set.OnSlotDrained(s);
          set_free.OnSlotDrained(s);
          if (last_issued == s) last_issued = kNoSlot;
          ages[s] = next_age++;
        }
      }
    }
  }
}

}  // namespace
}  // namespace swiftsim
