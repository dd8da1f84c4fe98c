#include "mem/mshr.h"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "common/rng.h"

namespace swiftsim {
namespace {

// The cache's miss path looks a line up once and acts on the slot; these
// wrappers do the same for single calls.
bool CanAllocate(const Mshr& mshr, Addr line) {
  return mshr.CanAllocate(mshr.Lookup(line));
}
std::uint32_t Allocate(Mshr& mshr, Addr line, const MemRequest& req) {
  return mshr.Allocate(mshr.Lookup(line), line, req);
}
bool HasEntry(const Mshr& mshr, Addr line) {
  return mshr.Lookup(line).found();
}

MemRequest Load(Addr line, std::uint32_t sectors, std::uint64_t id) {
  MemRequest r;
  r.line_addr = line;
  r.sector_mask = sectors;
  r.type = MemAccessType::kLoad;
  r.id = id;
  return r;
}

TEST(Mshr, AllocateAndFillWakesWaiter) {
  Mshr mshr(4, 2);
  EXPECT_TRUE(CanAllocate(mshr, 0x1000));
  Allocate(mshr, 0x1000, Load(0x1000, 0x3, 1));
  EXPECT_TRUE(HasEntry(mshr, 0x1000));
  EXPECT_EQ(mshr.RequestedSectors(mshr.Lookup(0x1000)), 0x3u);
  const auto waiters = mshr.Fill(0x1000, 0x3);
  ASSERT_EQ(waiters.size(), 1u);
  EXPECT_EQ(waiters[0].id, 1u);
  EXPECT_FALSE(HasEntry(mshr, 0x1000));
}

TEST(Mshr, EntryLimit) {
  Mshr mshr(2, 4);
  Allocate(mshr, 0x1000, Load(0x1000, 0x1, 1));
  Allocate(mshr, 0x2000, Load(0x2000, 0x1, 2));
  EXPECT_TRUE(mshr.full());
  EXPECT_FALSE(CanAllocate(mshr, 0x3000));
  // Existing lines can still merge.
  EXPECT_TRUE(CanAllocate(mshr, 0x1000));
}

TEST(Mshr, MergeLimit) {
  Mshr mshr(4, 2);
  Allocate(mshr, 0x1000, Load(0x1000, 0x1, 1));
  Allocate(mshr, 0x1000, Load(0x1000, 0x2, 2));
  EXPECT_FALSE(CanAllocate(mshr, 0x1000));  // merge limit 2 reached
  EXPECT_TRUE(CanAllocate(mshr, 0x2000));
}

TEST(Mshr, PartialFillWakesOnlySatisfiedWaiters) {
  Mshr mshr(4, 4);
  EXPECT_EQ(Allocate(mshr, 0x1000, Load(0x1000, 0x1, 1)), 0x1u);  // sector 0
  // A merge asks the next level only for sectors no earlier miss asked for.
  EXPECT_EQ(Allocate(mshr, 0x1000, Load(0x1000, 0x9, 2)), 0x8u);  // + 3
  EXPECT_EQ(mshr.RequestedSectors(mshr.Lookup(0x1000)), 0x9u);
  auto first = mshr.Fill(0x1000, 0x1);
  ASSERT_EQ(first.size(), 1u);
  EXPECT_EQ(first[0].id, 1u);
  EXPECT_TRUE(HasEntry(mshr, 0x1000));  // waiter 2 still pending
  auto second = mshr.Fill(0x1000, 0x8);
  ASSERT_EQ(second.size(), 1u);
  EXPECT_EQ(second[0].id, 2u);
  EXPECT_FALSE(HasEntry(mshr, 0x1000));
}

TEST(Mshr, StoresCountAgainstMergeButNeverWake) {
  Mshr mshr(4, 2);
  MemRequest store = Load(0x1000, 0x1, 0);
  store.type = MemAccessType::kStore;
  Allocate(mshr, 0x1000, store);
  Allocate(mshr, 0x1000, Load(0x1000, 0x1, 7));
  EXPECT_FALSE(CanAllocate(mshr, 0x1000));
  const auto waiters = mshr.Fill(0x1000, 0x1);
  ASSERT_EQ(waiters.size(), 1u);
  EXPECT_EQ(waiters[0].id, 7u);
}

TEST(Mshr, FillOfUnknownLineReturnsEmpty) {
  Mshr mshr(4, 2);
  EXPECT_TRUE(mshr.Fill(0xdead00, 0xF).empty());
}

TEST(Mshr, WaiterNeedingBothSectorBatches) {
  Mshr mshr(4, 4);
  Allocate(mshr, 0x1000, Load(0x1000, 0x3, 1));  // wants sectors 0 and 1
  EXPECT_TRUE(mshr.Fill(0x1000, 0x1).empty());  // only sector 0 arrived
  const auto waiters = mshr.Fill(0x1000, 0x2);
  ASSERT_EQ(waiters.size(), 1u);
  EXPECT_EQ(waiters[0].id, 1u);
  EXPECT_FALSE(HasEntry(mshr, 0x1000));
}

TEST(Mshr, SizeTracksEntries) {
  Mshr mshr(8, 2);
  EXPECT_EQ(mshr.size(), 0u);
  Allocate(mshr, 0x1000, Load(0x1000, 0x1, 1));
  Allocate(mshr, 0x2000, Load(0x2000, 0x1, 2));
  Allocate(mshr, 0x1000, Load(0x1000, 0x1, 3));  // merge, same entry
  EXPECT_EQ(mshr.size(), 2u);
}

// --- Randomized reference test ------------------------------------------
// RefMshr is the MSHR as a node map searched on every call (one lookup per
// query, as the cache's miss path used to do); the one-probe Mshr must
// agree with it on every admission decision, every newly requested sector
// set and every woken waiter, under churn that hits the entry limit, the
// merge limit and partial (per-sector) fills.

class RefMshr {
 public:
  RefMshr(unsigned entries, unsigned max_merge)
      : entries_(entries), max_merge_(max_merge) {}

  bool CanAllocate(Addr line) const {
    auto it = map_.find(line);
    if (it == map_.end()) return map_.size() < entries_;
    return it->second.merged < max_merge_;
  }
  std::uint32_t Allocate(Addr line, const MemRequest& req) {
    Entry& e = map_[line];
    ++e.merged;
    const std::uint32_t need = req.sector_mask & ~e.requested;
    e.requested |= req.sector_mask;
    if (req.id != 0) e.waiters.push_back(req);
    return need;
  }
  std::vector<MemRequest> Fill(Addr line, std::uint32_t sectors) {
    std::vector<MemRequest> woken;
    auto it = map_.find(line);
    if (it == map_.end()) return woken;
    Entry& e = it->second;
    e.arrived |= sectors;
    std::vector<MemRequest> keep;
    for (const MemRequest& w : e.waiters) {
      ((w.sector_mask & ~e.arrived) != 0 ? keep : woken).push_back(w);
    }
    e.waiters = keep;
    if (e.waiters.empty() && (e.requested & ~e.arrived) == 0) map_.erase(it);
    return woken;
  }
  std::size_t size() const { return map_.size(); }
  /// Sectors requested but not yet arrived (what a fill may still carry).
  std::uint32_t Outstanding(Addr line) const {
    auto it = map_.find(line);
    return it == map_.end() ? 0u : it->second.requested & ~it->second.arrived;
  }

 private:
  struct Entry {
    std::uint32_t requested = 0;
    std::uint32_t arrived = 0;
    unsigned merged = 0;
    std::vector<MemRequest> waiters;
  };
  unsigned entries_;
  unsigned max_merge_;
  std::map<Addr, Entry> map_;
};

TEST(Mshr, OneProbeMatchesReferenceUnderChurn) {
  struct Shape {
    unsigned entries;
    unsigned max_merge;
    unsigned lines;  // distinct line addresses in play
  };
  for (const Shape& shape : {Shape{4, 2, 6}, Shape{8, 4, 24}, Shape{32, 8, 40},
                             Shape{1, 1, 3}}) {
    for (std::uint64_t seed : {1u, 2u, 3u}) {
      const std::string where = std::to_string(shape.entries) + "x" +
                                std::to_string(shape.max_merge) + " seed " +
                                std::to_string(seed);
      Mshr mshr(shape.entries, shape.max_merge);
      RefMshr ref(shape.entries, shape.max_merge);
      Rng rng(seed);
      std::uint64_t next_id = 1;
      unsigned rejected = 0;
      unsigned merged_full = 0;
      for (int step = 0; step < 4000; ++step) {
        const Addr line = 0x80 * (1 + rng.Below(shape.lines));
        if (rng.Bernoulli(0.55)) {
          MemRequest req = Load(line, static_cast<std::uint32_t>(
                                          rng.Range(1, 15)),
                                next_id++);
          if (rng.Bernoulli(0.1)) {
            req.id = 0;  // a store: merges but never wakes
            req.type = MemAccessType::kStore;
          }
          const Mshr::Slot slot = mshr.Lookup(line);
          const bool can = mshr.CanAllocate(slot);
          ASSERT_EQ(can, ref.CanAllocate(line)) << where << " step " << step;
          if (!can) {
            ++rejected;
            if (slot.found()) ++merged_full;
            continue;
          }
          ASSERT_EQ(mshr.Allocate(slot, line, req), ref.Allocate(line, req))
              << where << " step " << step;
        } else {
          // Fill a random subset of the outstanding sectors (partial fills),
          // occasionally for a line with nothing outstanding.
          std::uint32_t sectors = ref.Outstanding(line);
          if (sectors != 0 && rng.Bernoulli(0.5)) {
            sectors &= static_cast<std::uint32_t>(rng.Range(1, 15));
            if (sectors == 0) sectors = ref.Outstanding(line) & 1u;
          }
          if (sectors == 0) sectors = 0x1;
          const auto got = mshr.Fill(line, sectors);
          const auto want = ref.Fill(line, sectors);
          ASSERT_EQ(got.size(), want.size()) << where << " step " << step;
          for (std::size_t i = 0; i < got.size(); ++i) {
            EXPECT_EQ(got[i].id, want[i].id) << where << " step " << step;
            EXPECT_EQ(got[i].sector_mask, want[i].sector_mask) << where;
          }
        }
        ASSERT_EQ(mshr.size(), ref.size()) << where << " step " << step;
      }
      // Both limits must actually bind for the comparison to mean much.
      EXPECT_GT(rejected - merged_full, 0u) << where << ": entry limit";
      EXPECT_GT(merged_full, 0u) << where << ": merge limit";
    }
  }
}

}  // namespace
}  // namespace swiftsim
