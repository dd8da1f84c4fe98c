#include "common/bitutil.h"

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.h"

namespace swiftsim {
namespace {

TEST(BitUtil, IsPow2) {
  EXPECT_FALSE(IsPow2(0));
  EXPECT_TRUE(IsPow2(1));
  EXPECT_TRUE(IsPow2(2));
  EXPECT_FALSE(IsPow2(3));
  EXPECT_TRUE(IsPow2(1ull << 63));
  EXPECT_FALSE(IsPow2((1ull << 63) + 1));
}

TEST(BitUtil, Log2) {
  EXPECT_EQ(Log2(1), 0u);
  EXPECT_EQ(Log2(2), 1u);
  EXPECT_EQ(Log2(128), 7u);
  EXPECT_EQ(Log2(1ull << 40), 40u);
}

TEST(BitUtil, AlignUpDown) {
  EXPECT_EQ(AlignUp(0, 128), 0u);
  EXPECT_EQ(AlignUp(1, 128), 128u);
  EXPECT_EQ(AlignUp(128, 128), 128u);
  EXPECT_EQ(AlignDown(127, 128), 0u);
  EXPECT_EQ(AlignDown(128, 128), 128u);
  EXPECT_EQ(AlignDown(255, 128), 128u);
}

TEST(BitUtil, PopCount) {
  EXPECT_EQ(PopCount(0), 0u);
  EXPECT_EQ(PopCount(0xff), 8u);
  EXPECT_EQ(PopCount(~0ull), 64u);
}

TEST(BitUtil, CeilDiv) {
  EXPECT_EQ(CeilDiv(0, 4), 0u);
  EXPECT_EQ(CeilDiv(1, 4), 1u);
  EXPECT_EQ(CeilDiv(4, 4), 1u);
  EXPECT_EQ(CeilDiv(5, 4), 2u);
}

TEST(BitUtil, HashMixSpreads) {
  // Consecutive inputs should differ in many bits.
  unsigned weak = 0;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    const auto d = HashMix(i) ^ HashMix(i + 1);
    if (PopCount(d) < 16) ++weak;
  }
  EXPECT_LT(weak, 5u);
  EXPECT_EQ(HashMix(12345), HashMix(12345));  // deterministic
}

// Reference walk: the full scan every IndexSet walk replaces.
std::vector<unsigned> ScanMembers(const std::vector<bool>& member,
                                  unsigned first, unsigned last) {
  std::vector<unsigned> out;
  for (unsigned i = first; i < last; ++i) {
    if (member[i]) out.push_back(i);
  }
  return out;
}

TEST(IndexSet, WalksMatchFullScanAcrossWordBoundaries) {
  Rng rng(42);
  for (unsigned size : {1u, 7u, 63u, 64u, 65u, 68u, 127u, 128u, 130u}) {
    for (double density : {0.0, 0.1, 0.5, 1.0}) {
      IndexSet set(size);
      std::vector<bool> member(size, false);
      for (unsigned i = 0; i < size; ++i) {
        member[i] = rng.Bernoulli(density);
        set.Assign(i, member[i]);
      }
      EXPECT_EQ(set.Empty(), ScanMembers(member, 0, size).empty());
      for (unsigned first = 0; first <= size; ++first) {
        for (unsigned last = first; last <= size; ++last) {
          std::vector<unsigned> got;
          set.ForEach(first, last, [&](unsigned i) { got.push_back(i); });
          ASSERT_EQ(got, ScanMembers(member, first, last))
              << "size " << size << " [" << first << ", " << last << ")";
        }
        // Rotor order from `first`, wrapping once.
        std::vector<unsigned> want = ScanMembers(member, first, size);
        for (unsigned i : ScanMembers(member, 0, first)) want.push_back(i);
        std::vector<unsigned> got;
        set.ForEachFrom(first, [&](unsigned i) { got.push_back(i); });
        ASSERT_EQ(got, want) << "size " << size << " from " << first;
      }
    }
  }
}

TEST(IndexSet, EarlyStopAndEraseDuringWalk) {
  IndexSet set(130);
  for (unsigned i : {0u, 5u, 63u, 64u, 100u, 129u}) set.Insert(i);
  std::vector<unsigned> seen;
  EXPECT_TRUE(set.ForEach([&](unsigned i) {
    seen.push_back(i);
    return i == 64;
  }));
  EXPECT_EQ(seen, (std::vector<unsigned>{0, 5, 63, 64}));
  EXPECT_FALSE(set.ForEach([](unsigned) { return false; }));
  // Erasing the visited member while walking, as the NoC and driver walks
  // do, leaves the rest of the walk intact.
  seen.clear();
  set.ForEach([&](unsigned i) {
    seen.push_back(i);
    set.Erase(i);
  });
  EXPECT_EQ(seen, (std::vector<unsigned>{0, 5, 63, 64, 100, 129}));
  EXPECT_TRUE(set.Empty());
  set.InsertAll();
  EXPECT_TRUE(set.Contains(0) && set.Contains(129));
}

}  // namespace
}  // namespace swiftsim
