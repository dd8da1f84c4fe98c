#include "common/flat_map.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/rng.h"

namespace swiftsim {
namespace {

TEST(FlatMap, EmptyMapFindsNothing) {
  FlatMap<std::uint64_t, int> m;
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.size(), 0u);
  EXPECT_EQ(m.Find(42), nullptr);
  EXPECT_FALSE(m.contains(42));
  EXPECT_FALSE(m.erase(42));
  EXPECT_EQ(m.begin(), m.end());
}

TEST(FlatMap, InsertFindErase) {
  FlatMap<std::uint64_t, int> m;
  m[7] = 70;
  m[9] = 90;
  ASSERT_NE(m.Find(7), nullptr);
  EXPECT_EQ(*m.Find(7), 70);
  EXPECT_EQ(*m.Find(9), 90);
  EXPECT_EQ(m.size(), 2u);
  EXPECT_TRUE(m.erase(7));
  EXPECT_EQ(m.Find(7), nullptr);
  EXPECT_EQ(*m.Find(9), 90);
  EXPECT_EQ(m.size(), 1u);
}

TEST(FlatMap, OperatorBracketDefaultInsertsOnce) {
  FlatMap<int, int> m;
  EXPECT_EQ(m[5], 0);  // default-constructed
  m[5] = 3;
  EXPECT_EQ(m[5], 3);  // existing entry returned, not reset
  EXPECT_EQ(m.size(), 1u);
}

TEST(FlatMap, ClearKeepsCapacityAndDropsEntries) {
  FlatMap<std::uint64_t, int> m;
  for (std::uint64_t k = 0; k < 100; ++k) m[k] = static_cast<int>(k);
  m.clear();
  EXPECT_TRUE(m.empty());
  for (std::uint64_t k = 0; k < 100; ++k) EXPECT_EQ(m.Find(k), nullptr);
  m[3] = 33;
  EXPECT_EQ(*m.Find(3), 33);
}

TEST(FlatMap, ReserveAvoidsRehashUpToN) {
  FlatMap<std::uint64_t, int> m;
  m.Reserve(1000);
  int* p = &m[0];
  for (std::uint64_t k = 1; k < 1000; ++k) m[k] = 1;
  // No rehash happened, so the first entry's address is stable.
  EXPECT_EQ(p, m.Find(0));
}

TEST(FlatMap, BackwardShiftDeletionKeepsChainsIntact) {
  // Force colliding keys through a pigeonhole: more keys than the minimum
  // capacity guarantees probe chains, then erase from the middle of them.
  FlatMap<std::uint64_t, std::uint64_t> m;
  std::vector<std::uint64_t> keys;
  for (std::uint64_t k = 0; k < 64; ++k) keys.push_back(k * 1024);
  for (std::uint64_t k : keys) m[k] = k + 1;
  for (std::size_t i = 0; i < keys.size(); i += 2) m.erase(keys[i]);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    if (i % 2 == 0) {
      EXPECT_EQ(m.Find(keys[i]), nullptr);
    } else {
      ASSERT_NE(m.Find(keys[i]), nullptr) << keys[i];
      EXPECT_EQ(*m.Find(keys[i]), keys[i] + 1);
    }
  }
}

TEST(FlatMap, IterationVisitsEveryLiveEntryOnce) {
  FlatMap<std::uint64_t, std::uint64_t> m;
  for (std::uint64_t k = 1; k <= 50; ++k) m[k] = k;
  std::uint64_t sum = 0;
  std::size_t count = 0;
  for (const auto& [key, value] : m) {
    EXPECT_EQ(key, value);
    sum += value;
    ++count;
  }
  EXPECT_EQ(count, 50u);
  EXPECT_EQ(sum, 50u * 51u / 2u);
}

TEST(FlatMap, RandomChurnMatchesUnorderedMap) {
  FlatMap<std::uint32_t, std::uint32_t> flat;
  std::unordered_map<std::uint32_t, std::uint32_t> ref;
  Rng rng(12345);
  for (int step = 0; step < 20000; ++step) {
    const std::uint32_t key = static_cast<std::uint32_t>(rng.Next() % 512);
    switch (rng.Next() % 3) {
      case 0: {
        const auto val = static_cast<std::uint32_t>(rng.Next());
        flat[key] = val;
        ref[key] = val;
        break;
      }
      case 1:
        EXPECT_EQ(flat.erase(key), ref.erase(key) > 0);
        break;
      default: {
        const auto* f = flat.Find(key);
        auto it = ref.find(key);
        ASSERT_EQ(f != nullptr, it != ref.end());
        if (f != nullptr) {
          EXPECT_EQ(*f, it->second);
        }
      }
    }
    ASSERT_EQ(flat.size(), ref.size());
  }
  for (const auto& [k, v] : ref) {
    const auto* f = flat.Find(k);
    ASSERT_NE(f, nullptr);
    EXPECT_EQ(*f, v);
  }
}

}  // namespace
}  // namespace swiftsim
