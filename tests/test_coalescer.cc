#include "mem/coalescer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/bitutil.h"
#include "common/rng.h"

namespace swiftsim {
namespace {

std::vector<Addr> LaneAddrs(Addr base, std::uint64_t stride, unsigned n = 32) {
  std::vector<Addr> a;
  for (unsigned i = 0; i < n; ++i) a.push_back(base + i * stride);
  return a;
}

TEST(Coalescer, FullyCoalescedIsOneLine) {
  const auto acc = Coalesce(LaneAddrs(0x1000, 4), 4, 128, 32);
  ASSERT_EQ(acc.size(), 1u);
  EXPECT_EQ(acc[0].line_addr, 0x1000u);
  EXPECT_EQ(acc[0].sector_mask, 0xFu);  // all four sectors
}

TEST(Coalescer, HalfWarpTouchesTwoSectors) {
  const auto acc = Coalesce(LaneAddrs(0x1000, 4, 16), 4, 128, 32);
  ASSERT_EQ(acc.size(), 1u);
  EXPECT_EQ(acc[0].sector_mask, 0x3u);  // 64 bytes = sectors 0 and 1
}

TEST(Coalescer, EightByteElementsSpanTwoLines) {
  const auto acc = Coalesce(LaneAddrs(0x1000, 8), 8, 128, 32);
  ASSERT_EQ(acc.size(), 2u);
  EXPECT_EQ(acc[0].line_addr, 0x1000u);
  EXPECT_EQ(acc[1].line_addr, 0x1080u);
  EXPECT_EQ(acc[0].sector_mask, 0xFu);
  EXPECT_EQ(acc[1].sector_mask, 0xFu);
}

TEST(Coalescer, StridedWorstCaseOneLinePerLane) {
  const auto acc = Coalesce(LaneAddrs(0, 2048), 4, 128, 32);
  EXPECT_EQ(acc.size(), 32u);
  for (const auto& a : acc) EXPECT_EQ(PopCount(a.sector_mask), 1u);
}

TEST(Coalescer, BroadcastIsOneSector) {
  std::vector<Addr> same(32, 0x2008);
  const auto acc = Coalesce(same, 4, 128, 32);
  ASSERT_EQ(acc.size(), 1u);
  EXPECT_EQ(acc[0].line_addr, 0x2000u);
  EXPECT_EQ(acc[0].sector_mask, 0x1u);
}

TEST(Coalescer, UnalignedAccessSpansSectorBoundary) {
  // 4-byte access starting 2 bytes before a sector boundary covers both.
  const auto acc = Coalesce({0x101E}, 4, 128, 32);
  ASSERT_EQ(acc.size(), 1u);
  EXPECT_EQ(acc[0].sector_mask, 0x3u);  // sectors 0 and 1
}

TEST(Coalescer, AccessSpanningLineBoundaryMakesTwoEntries) {
  const auto acc = Coalesce({0x107E}, 4, 128, 32);
  ASSERT_EQ(acc.size(), 2u);
  EXPECT_EQ(acc[0].line_addr, 0x1000u);
  EXPECT_EQ(acc[0].sector_mask, 0x8u);  // last sector of first line
  EXPECT_EQ(acc[1].line_addr, 0x1080u);
  EXPECT_EQ(acc[1].sector_mask, 0x1u);
}

TEST(Coalescer, OrderFollowsFirstTouchingLane) {
  // Lane 0 touches the higher line first: output preserves lane order.
  const auto acc = Coalesce({0x2000, 0x1000}, 4, 128, 32);
  ASSERT_EQ(acc.size(), 2u);
  EXPECT_EQ(acc[0].line_addr, 0x2000u);
  EXPECT_EQ(acc[1].line_addr, 0x1000u);
}

TEST(Coalescer, EmptyInputGivesNoAccesses) {
  EXPECT_TRUE(Coalesce({}, 4, 128, 32).empty());
}

TEST(Coalescer, DuplicateSectorsMergeAcrossLanes) {
  std::vector<Addr> addrs = {0x1000, 0x1004, 0x1008, 0x1020, 0x1024};
  const auto acc = Coalesce(addrs, 4, 128, 32);
  ASSERT_EQ(acc.size(), 1u);
  EXPECT_EQ(acc[0].sector_mask, 0x3u);
}

// --- Divide-free arithmetic against the pre-change bodies ------------------
// The reference bodies below are Coalesce and SmemConflictCounter::
// Conflicts as they were written with division and modulo. The shipped
// versions use masks and shifts (and a mask for power-of-two bank counts);
// on every input they must give the same accesses, in the same order, and
// the same conflict count.

std::vector<CoalescedAccess> ReferenceCoalesce(const std::vector<Addr>& lanes,
                                               unsigned access_bytes,
                                               unsigned line_bytes,
                                               unsigned sector_bytes) {
  std::vector<CoalescedAccess> out;
  auto add = [&](Addr byte_addr) {
    const Addr line = AlignDown(byte_addr, line_bytes);
    const unsigned sector =
        static_cast<unsigned>((byte_addr - line) / sector_bytes);
    for (auto& acc : out) {
      if (acc.line_addr == line) {
        acc.sector_mask |= 1u << sector;
        return;
      }
    }
    out.push_back({line, 1u << sector});
  };
  for (const Addr a : lanes) {
    for (Addr b = AlignDown(a, sector_bytes); b < a + access_bytes;
         b += sector_bytes) {
      add(b);
    }
  }
  return out;
}

unsigned ReferenceConflicts(const std::vector<Addr>& addrs, unsigned banks) {
  std::vector<std::uint8_t> bank_count(banks, 0);
  Addr words[kWarpSize];
  const bool bitmask_ok = banks <= 64;
  std::uint64_t touched = 0;
  unsigned worst = 1;
  std::size_t nw = 0;
  for (const Addr a : addrs) {
    const Addr word = a / 4;
    const unsigned bank = static_cast<unsigned>(word % banks);
    if (!bitmask_ok || (touched >> bank) & 1) {
      bool dup = false;
      for (std::size_t j = 0; j < nw; ++j) {
        if (words[j] == word) {
          dup = true;
          break;
        }
      }
      if (dup) continue;
    }
    if (bitmask_ok) touched |= std::uint64_t{1} << bank;
    words[nw++] = word;
    const std::uint8_t c = ++bank_count[bank];
    if (c > worst) worst = c;
  }
  return worst;
}

/// 0 to 32 lane addresses in one of several shapes: strided runs from an
/// unaligned base (crossing sector and line boundaries), a few hot words,
/// scattered addresses, and a run straddling a line boundary.
std::vector<Addr> RandomLanes(Rng& rng, unsigned line_bytes) {
  const unsigned n = static_cast<unsigned>(rng.Below(kWarpSize + 1));
  const Addr base = (rng.Below(2) ? Addr{1} << 40 : 0) + rng.Below(1 << 20);
  std::vector<Addr> lanes;
  const unsigned shape = static_cast<unsigned>(rng.Below(4));
  const Addr stride = rng.Below(2) ? 4 : rng.Below(300);
  for (unsigned i = 0; i < n; ++i) {
    switch (shape) {
      case 0:
        lanes.push_back(base + i * stride);
        break;
      case 1:
        lanes.push_back(base + rng.Below(4) * 4);
        break;
      case 2:
        lanes.push_back(rng.Below(Addr{1} << 32));
        break;
      default:
        lanes.push_back(AlignUp(base + 64, line_bytes) - 2 * n + 2 * i +
                        rng.Below(3));
        break;
    }
  }
  return lanes;
}

TEST(CoalescerArithmetic, MatchesDividingReference) {
  Rng rng(26);
  CoalescedVec out;
  for (unsigned trial = 0; trial < 40'000; ++trial) {
    const unsigned line_bytes = 32u << rng.Below(4);  // 32 .. 256
    // Up to 32 sectors per line (the sector mask is 32 bits wide).
    const unsigned min_sector = std::max(1u, line_bytes / 32);
    unsigned sector_bytes = line_bytes;
    while (sector_bytes > min_sector && rng.Below(3) != 0) sector_bytes /= 2;
    const unsigned access_bytes = 1 + static_cast<unsigned>(rng.Below(32));
    const std::vector<Addr> lanes = RandomLanes(rng, line_bytes);
    Coalesce(lanes.data(), lanes.size(), access_bytes, line_bytes,
             sector_bytes, &out);
    const auto want =
        ReferenceCoalesce(lanes, access_bytes, line_bytes, sector_bytes);
    ASSERT_EQ(out.size(), want.size())
        << "trial " << trial << " line " << line_bytes << " sector "
        << sector_bytes << " access " << access_bytes;
    for (std::size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(out[i].line_addr, want[i].line_addr) << "trial " << trial;
      ASSERT_EQ(out[i].sector_mask, want[i].sector_mask) << "trial " << trial;
    }
  }
}

TEST(CoalescerArithmetic, BankConflictsMatchModuloReference) {
  Rng rng(977);
  // 24 and 48 are not powers of two and keep the modulo; 96 also skips
  // the touched-bank bitmask.
  for (const unsigned banks : {32u, 24u, 48u, 1u, 16u, 96u}) {
    SmemConflictCounter counter(banks);
    for (unsigned trial = 0; trial < 10'000; ++trial) {
      const std::vector<Addr> lanes = RandomLanes(rng, 128);
      ASSERT_EQ(counter.Conflicts(lanes), ReferenceConflicts(lanes, banks))
          << "banks " << banks << " trial " << trial;
    }
  }
}

}  // namespace
}  // namespace swiftsim
