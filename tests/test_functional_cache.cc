#include "analytical/functional_cache.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <vector>

#include "common/rng.h"

namespace swiftsim {
namespace {

CacheParams Tiny() {
  CacheParams p;
  p.size_bytes = 2 * 128 * 2;  // 2 sets x 2 ways
  p.assoc = 2;
  p.line_bytes = 128;
  p.sector_bytes = 32;
  return p;
}

TEST(FunctionalCache, MissThenHit) {
  FunctionalCache c(Tiny());
  EXPECT_FALSE(c.AccessLoad(0x1000, 0x1));
  EXPECT_TRUE(c.AccessLoad(0x1000, 0x1));
  EXPECT_EQ(c.accesses(), 2u);
  EXPECT_EQ(c.hits(), 1u);
  EXPECT_DOUBLE_EQ(c.hit_rate(), 0.5);
}

TEST(FunctionalCache, SectorGranularity) {
  FunctionalCache c(Tiny());
  c.AccessLoad(0x1000, 0x1);
  EXPECT_FALSE(c.AccessLoad(0x1000, 0x2));  // other sector not resident
  EXPECT_TRUE(c.AccessLoad(0x1000, 0x3));   // both now valid
}

TEST(FunctionalCache, LruEvictionWithinSet) {
  FunctionalCache c(Tiny());
  // Set 0 lines: 0x0000, 0x0100(set1)... set = (line/128) % 2.
  c.AccessLoad(0x0000, 0x1);  // set 0
  c.AccessLoad(0x0100, 0x1);  // set 0 (line index 2)
  c.AccessLoad(0x0000, 0x1);  // touch -> 0x0100 becomes LRU
  c.AccessLoad(0x0200, 0x1);  // set 0, evicts 0x0100
  EXPECT_TRUE(c.AccessLoad(0x0000, 0x1));
  EXPECT_FALSE(c.AccessLoad(0x0100, 0x1));  // evicted
}

TEST(FunctionalCache, StoresInstallWithoutCountingHits) {
  FunctionalCache c(Tiny());
  c.AccessStore(0x1000, 0x3);
  EXPECT_EQ(c.accesses(), 0u);
  EXPECT_TRUE(c.AccessLoad(0x1000, 0x3));  // store-validated sectors hit
}

TEST(FunctionalCache, NonPowerOfTwoSetCount) {
  // Aggregate whole-chip L2s have non-pow2 set counts (e.g. 22 slices).
  CacheParams p = Tiny();
  p.size_bytes = 3 * 128 * 2;  // 3 sets
  FunctionalCache c(p);
  for (Addr line = 0; line < 100 * 128; line += 128) {
    c.AccessLoad(line, 0x1);
  }
  EXPECT_EQ(c.hits(), 0u);  // pure streaming, everything distinct
  EXPECT_EQ(c.accesses(), 100u);
}

/// The tick-LRU functional cache the recency-ordered one replaced: every
/// line carries the tick of its last touch, a miss fills the last invalid
/// way or evicts the smallest tick. Kept as the reference the rows below
/// hold the cache to.
class TickLruReference {
 public:
  explicit TickLruReference(const CacheParams& p)
      : p_(p), sets_(p.num_sets()),
        lines_(static_cast<std::size_t>(sets_) * p.assoc) {}

  bool AccessLoad(Addr line_addr, std::uint32_t sector_mask) {
    Line* l = Touch(line_addr, sector_mask);
    if (l == nullptr) return false;
    const bool hit = (sector_mask & ~l->sectors) == 0;
    l->sectors |= sector_mask;
    return hit;
  }

  void AccessStore(Addr line_addr, std::uint32_t sector_mask) {
    Line* l = Touch(line_addr, sector_mask);
    if (l != nullptr) l->sectors |= sector_mask;
  }

  /// Canonical state: per set, the valid lines' (set, tag, sectors) from
  /// least to most recently used, with no way positions and no ticks.
  std::vector<std::tuple<unsigned, Addr, std::uint32_t>> Canonical() const {
    std::vector<std::tuple<unsigned, Addr, std::uint32_t>> out;
    std::vector<const Line*> order;
    for (unsigned set = 0; set < sets_; ++set) {
      order.clear();
      for (unsigned w = 0; w < p_.assoc; ++w) {
        const Line& l = lines_[static_cast<std::size_t>(set) * p_.assoc + w];
        if (l.valid) order.push_back(&l);
      }
      std::sort(order.begin(), order.end(),
                [](const Line* a, const Line* b) { return a->lru < b->lru; });
      for (const Line* l : order) out.emplace_back(set, l->tag, l->sectors);
    }
    return out;
  }

 private:
  struct Line {
    Addr tag = 0;
    bool valid = false;
    std::uint32_t sectors = 0;
    std::uint64_t lru = 0;
  };

  Line* Touch(Addr line_addr, std::uint32_t sector_mask) {
    const unsigned set =
        static_cast<unsigned>((line_addr / p_.line_bytes) % sets_);
    Line* base = &lines_[static_cast<std::size_t>(set) * p_.assoc];
    Line* lru = base;
    for (unsigned w = 0; w < p_.assoc; ++w) {
      Line& l = base[w];
      if (l.valid && l.tag == line_addr) {
        l.lru = ++tick_;
        return &l;
      }
      if (!l.valid) {
        lru = &l;
      } else if (lru->valid && l.lru < lru->lru) {
        lru = &l;
      }
    }
    lru->tag = line_addr;
    lru->valid = true;
    lru->sectors = sector_mask;
    lru->lru = ++tick_;
    return nullptr;
  }

  CacheParams p_;
  unsigned sets_;
  std::vector<Line> lines_;
  std::uint64_t tick_ = 0;
};

/// The pre-pass geometries: one SM's L1, and the whole-chip aggregate L2
/// (2816 sets, 16-way: not a power of two).
std::vector<CacheParams> PrepassGeometries() {
  const GpuConfig cfg;
  CacheParams l2 = cfg.l2;
  l2.size_bytes = cfg.total_l2_bytes();
  return {cfg.l1, l2};
}

/// One seeded random access: a line among `assoc + 4` candidates per set,
/// a random non-empty sector mask, a store one time in four.
struct Access {
  Addr line;
  std::uint32_t sectors;
  bool store;
};
Access RandomAccess(Rng& rng, const CacheParams& p) {
  const std::uint64_t lines =
      static_cast<std::uint64_t>(p.num_sets()) * (p.assoc + 4);
  return Access{rng.Below(lines) * p.line_bytes,
                static_cast<std::uint32_t>(1 + rng.Below(15)),
                rng.Below(4) == 0};
}

template <typename Cache>
bool Apply(Cache& c, const Access& a) {
  if (a.store) {
    c.AccessStore(a.line, a.sectors);
    return false;
  }
  return c.AccessLoad(a.line, a.sectors);
}

TEST(FunctionalCache, MatchesTickLruReference) {
  for (const CacheParams& p : PrepassGeometries()) {
    FunctionalCache cache(p);
    TickLruReference ref(p);
    Rng rng(2024 + p.num_sets());
    for (unsigned i = 0; i < 400000; ++i) {
      const Access a = RandomAccess(rng, p);
      ASSERT_EQ(Apply(cache, a), Apply(ref, a))
          << p.num_sets() << " sets, access " << i;
    }
  }
}

TEST(FunctionalCache, SignatureEqualExactlyWhenCanonicalStateEqual) {
  // `a` sees a stream, `b` a random prefix and then the same stream. The
  // states differ until the shared stream has overwritten what the prefix
  // left; the signatures must agree exactly when the reference's
  // canonical states do.
  for (const CacheParams& p : PrepassGeometries()) {
    FunctionalCache a(p), b(p);
    TickLruReference ref_a(p), ref_b(p);
    Rng prefix(7 + p.num_sets());
    for (unsigned i = 0; i < 20 * p.num_sets(); ++i) {
      const Access x = RandomAccess(prefix, p);
      Apply(b, x);
      Apply(ref_b, x);
    }
    Rng shared(11 + p.num_sets());
    unsigned equal = 0, differ = 0;
    for (unsigned round = 0; round < 40; ++round) {
      for (unsigned i = 0; i < 8 * p.num_sets(); ++i) {
        const Access x = RandomAccess(shared, p);
        Apply(a, x);
        Apply(b, x);
        Apply(ref_a, x);
        Apply(ref_b, x);
      }
      const bool same_state = ref_a.Canonical() == ref_b.Canonical();
      ASSERT_EQ(a.Signature() == b.Signature(), same_state)
          << p.num_sets() << " sets, round " << round;
      ++(same_state ? equal : differ);
    }
    // Both outcomes must occur, or the row checks only one direction.
    EXPECT_GT(equal, 0u) << p.num_sets() << " sets";
    EXPECT_GT(differ, 0u) << p.num_sets() << " sets";
  }
}

TEST(FunctionalCache, DeltaRestoresTheChangedSets) {
  // A delta saved after a stream, restored onto a cache in the state the
  // stream started from, leaves the state the stream left.
  for (const CacheParams& p : PrepassGeometries()) {
    FunctionalCache played(p), restored(p);
    Rng warm(3 + p.num_sets());
    for (unsigned i = 0; i < 4 * p.num_sets(); ++i) {
      const Access x = RandomAccess(warm, p);
      Apply(played, x);
      Apply(restored, x);
    }
    ASSERT_EQ(played.Signature(), restored.Signature());
    Rng launch(5 + p.num_sets());
    for (unsigned i = 0; i < p.num_sets() / 2; ++i) {
      Apply(played, RandomAccess(launch, p));
    }
    FunctionalCache::Delta delta;
    played.SaveDelta(&delta);
    restored.RestoreDelta(delta);
    EXPECT_EQ(played.Signature(), restored.Signature()) << p.num_sets();
    Rng after(9 + p.num_sets());
    for (unsigned i = 0; i < 4 * p.num_sets(); ++i) {
      const Access x = RandomAccess(after, p);
      ASSERT_EQ(Apply(played, x), Apply(restored, x))
          << p.num_sets() << " sets, access " << i;
    }
  }
}

}  // namespace
}  // namespace swiftsim
