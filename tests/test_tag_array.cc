#include "mem/tag_array.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.h"

namespace swiftsim {
namespace {

CacheParams SmallCache(ReplacementPolicy pol = ReplacementPolicy::kLru) {
  CacheParams p;
  p.size_bytes = 2 * 128 * 2;  // 2 sets x 2 ways x 128B lines
  p.assoc = 2;
  p.line_bytes = 128;
  p.sector_bytes = 32;
  p.banks = 1;
  p.replacement = pol;
  return p;
}

// Addresses mapping to set 0 of the 2-set cache: line index even.
constexpr Addr kSet0A = 0 * 128;
constexpr Addr kSet0B = 2 * 128;
constexpr Addr kSet0C = 4 * 128;

TEST(TagArray, MissReservesThenFillsThenHits) {
  TagArray tags(SmallCache(), 1);
  Eviction ev;
  EXPECT_EQ(tags.Probe(kSet0A, 0x1, 1, &ev), TagOutcome::kMiss);
  EXPECT_FALSE(ev.valid);
  EXPECT_FALSE(tags.IsHit(kSet0A, 0x1));  // reserved, not valid yet
  tags.Fill(kSet0A, 0x1, 2);
  EXPECT_TRUE(tags.IsHit(kSet0A, 0x1));
  EXPECT_EQ(tags.Probe(kSet0A, 0x1, 3, &ev), TagOutcome::kHit);
}

TEST(TagArray, SectorMissOnPartialLine) {
  TagArray tags(SmallCache(), 1);
  Eviction ev;
  tags.Probe(kSet0A, 0x1, 1, &ev);
  tags.Fill(kSet0A, 0x1, 2);
  // Sector 2 not resident: line present -> sector miss.
  EXPECT_EQ(tags.Probe(kSet0A, 0x4, 3, &ev), TagOutcome::kSectorMiss);
  tags.Fill(kSet0A, 0x4, 4);
  EXPECT_EQ(tags.Probe(kSet0A, 0x5, 5, &ev), TagOutcome::kHit);
}

TEST(TagArray, ReservationFailWhenAllWaysPending) {
  TagArray tags(SmallCache(), 1);
  Eviction ev;
  EXPECT_EQ(tags.Probe(kSet0A, 0x1, 1, &ev), TagOutcome::kMiss);
  EXPECT_EQ(tags.Probe(kSet0B, 0x1, 2, &ev), TagOutcome::kMiss);
  // Both ways of set 0 reserved; a third line cannot be victimized.
  EXPECT_EQ(tags.Probe(kSet0C, 0x1, 3, &ev), TagOutcome::kReservationFail);
  tags.Fill(kSet0A, 0x1, 4);
  // Now A is evictable.
  EXPECT_EQ(tags.Probe(kSet0C, 0x1, 5, &ev), TagOutcome::kMiss);
  EXPECT_TRUE(ev.valid);
  EXPECT_EQ(ev.line_addr, kSet0A);
}

TEST(TagArray, LruEvictsLeastRecentlyUsed) {
  TagArray tags(SmallCache(ReplacementPolicy::kLru), 1);
  Eviction ev;
  tags.Probe(kSet0A, 0x1, 1, &ev);
  tags.Fill(kSet0A, 0x1, 1);
  tags.Probe(kSet0B, 0x1, 2, &ev);
  tags.Fill(kSet0B, 0x1, 2);
  tags.Probe(kSet0A, 0x1, 3, &ev);  // touch A -> B is LRU
  EXPECT_EQ(tags.Probe(kSet0C, 0x1, 4, &ev), TagOutcome::kMiss);
  EXPECT_TRUE(ev.valid);
  EXPECT_EQ(ev.line_addr, kSet0B);
}

TEST(TagArray, FifoIgnoresRecency) {
  TagArray tags(SmallCache(ReplacementPolicy::kFifo), 1);
  Eviction ev;
  tags.Probe(kSet0A, 0x1, 1, &ev);
  tags.Fill(kSet0A, 0x1, 1);
  tags.Probe(kSet0B, 0x1, 2, &ev);
  tags.Fill(kSet0B, 0x1, 2);
  tags.Probe(kSet0A, 0x1, 3, &ev);  // touching A does NOT protect it
  EXPECT_EQ(tags.Probe(kSet0C, 0x1, 4, &ev), TagOutcome::kMiss);
  EXPECT_TRUE(ev.valid);
  EXPECT_EQ(ev.line_addr, kSet0A);  // oldest allocation evicted
}

TEST(TagArray, RandomPolicyEvictsSomething) {
  TagArray tags(SmallCache(ReplacementPolicy::kRandom), 7);
  Eviction ev;
  tags.Probe(kSet0A, 0x1, 1, &ev);
  tags.Fill(kSet0A, 0x1, 1);
  tags.Probe(kSet0B, 0x1, 2, &ev);
  tags.Fill(kSet0B, 0x1, 2);
  EXPECT_EQ(tags.Probe(kSet0C, 0x1, 3, &ev), TagOutcome::kMiss);
  EXPECT_TRUE(ev.valid);
  EXPECT_TRUE(ev.line_addr == kSet0A || ev.line_addr == kSet0B);
}

TEST(TagArray, MarkDirtyValidatesSectors) {
  TagArray tags(SmallCache(), 1);
  Eviction ev;
  tags.Probe(kSet0A, 0x1, 1, &ev);
  tags.Fill(kSet0A, 0x1, 1);
  EXPECT_TRUE(tags.MarkDirty(kSet0A, 0x2, 2));
  EXPECT_TRUE(tags.IsHit(kSet0A, 0x2));  // full-sector write validates
  EXPECT_FALSE(tags.MarkDirty(kSet0B, 0x1, 3));  // absent line
}

TEST(TagArray, WriteValidateInstallsDirtyLine) {
  TagArray tags(SmallCache(), 1);
  Eviction ev;
  EXPECT_EQ(tags.WriteValidate(kSet0A, 0x3, 1, &ev), TagOutcome::kMiss);
  EXPECT_TRUE(tags.IsHit(kSet0A, 0x3));
  EXPECT_EQ(tags.WriteValidate(kSet0A, 0x4, 2, &ev), TagOutcome::kHit);
  // Evicting the dirty line reports its dirty sectors.
  tags.WriteValidate(kSet0B, 0x1, 3, &ev);
  EXPECT_EQ(tags.WriteValidate(kSet0C, 0x1, 4, &ev), TagOutcome::kMiss);
  EXPECT_TRUE(ev.valid);
  EXPECT_TRUE(ev.dirty);
  EXPECT_EQ(ev.dirty_sectors & 0x7u, ev.dirty_sectors);
}

TEST(TagArray, FillAllocateInstallsWithoutReservation) {
  TagArray tags(SmallCache(), 1);
  Eviction ev;
  tags.FillAllocate(kSet0A, 0x3, 1, &ev);
  EXPECT_FALSE(ev.valid);
  EXPECT_TRUE(tags.IsHit(kSet0A, 0x3));
  // Extending an existing line adds sectors, no eviction.
  tags.FillAllocate(kSet0A, 0x4, 2, &ev);
  EXPECT_FALSE(ev.valid);
  EXPECT_TRUE(tags.IsHit(kSet0A, 0x7));
  // Filling a third line into the 2-way set evicts.
  tags.FillAllocate(kSet0B, 0x1, 3, &ev);
  tags.FillAllocate(kSet0C, 0x1, 4, &ev);
  EXPECT_TRUE(ev.valid);
}

TEST(TagArray, FillOfUnknownLineIsIgnored) {
  TagArray tags(SmallCache(), 1);
  tags.Fill(kSet0A, 0xF, 1);  // never probed/reserved
  EXPECT_FALSE(tags.IsHit(kSet0A, 0x1));
}

// --- Randomized reference test ------------------------------------------
// RefTagArray is the tag array as an array of ways, each carrying its own
// tag and `allocated` flag, searched linearly per call. The packed
// TagArray (tags in one array, a sentinel tag for empty ways, the way
// found by Lookup handed to ProbeAt) must agree with it on every outcome,
// eviction and hit check, under LRU, FIFO and Random replacement. Random
// victims match only if both draw from the same seeded stream in the same
// order.

class RefTagArray {
 public:
  RefTagArray(const CacheParams& p, std::uint64_t seed)
      : p_(p), ways_(static_cast<std::size_t>(p.num_sets()) * p.assoc),
        rng_(seed) {}

  TagOutcome Probe(Addr line, std::uint32_t mask, Cycle now, Eviction* ev) {
    *ev = Eviction{};
    if (Way* w = Find(line)) {
      w->last_use = now;
      if ((mask & ~w->valid) == 0) return TagOutcome::kHit;
      w->pending |= mask & ~(w->valid | w->pending);
      return TagOutcome::kSectorMiss;
    }
    Way* v = Victim(line);
    if (v == nullptr) return TagOutcome::kReservationFail;
    Install(v, line, 0, mask, 0, now, ev);
    return TagOutcome::kMiss;
  }
  bool IsHit(Addr line, std::uint32_t mask) {
    const Way* w = Find(line);
    return w != nullptr && (mask & ~w->valid) == 0;
  }
  void Fill(Addr line, std::uint32_t mask, Cycle now) {
    if (Way* w = Find(line)) {
      w->valid |= mask;
      w->pending &= ~mask;
      w->last_use = now;
    }
  }
  bool MarkDirty(Addr line, std::uint32_t mask, Cycle now) {
    Way* w = Find(line);
    if (w == nullptr) return false;
    w->dirty |= mask;
    w->valid |= mask;
    w->last_use = now;
    return true;
  }
  TagOutcome WriteValidate(Addr line, std::uint32_t mask, Cycle now,
                           Eviction* ev) {
    *ev = Eviction{};
    if (Way* w = Find(line)) {
      w->valid |= mask;
      w->dirty |= mask;
      w->last_use = now;
      return TagOutcome::kHit;
    }
    Way* v = Victim(line);
    if (v == nullptr) return TagOutcome::kReservationFail;
    Install(v, line, mask, 0, mask, now, ev);
    return TagOutcome::kMiss;
  }
  void FillAllocate(Addr line, std::uint32_t mask, Cycle now, Eviction* ev) {
    *ev = Eviction{};
    if (Way* w = Find(line)) {
      w->valid |= mask;
      w->pending &= ~mask;
      w->last_use = now;
      return;
    }
    Way* v = Victim(line);
    ASSERT_NE(v, nullptr);
    Install(v, line, mask, 0, 0, now, ev);
  }

 private:
  struct Way {
    Addr tag = 0;
    bool allocated = false;
    std::uint32_t valid = 0, pending = 0, dirty = 0;
    Cycle last_use = 0, alloc_time = 0;
  };
  Way* Set(Addr line) {
    const std::size_t set = (line / p_.line_bytes) & (p_.num_sets() - 1);
    return &ways_[set * p_.assoc];
  }
  Way* Find(Addr line) {
    Way* base = Set(line);
    for (unsigned i = 0; i < p_.assoc; ++i) {
      if (base[i].allocated && base[i].tag == line) return &base[i];
    }
    return nullptr;
  }
  Way* Victim(Addr line) {
    Way* base = Set(line);
    for (unsigned i = 0; i < p_.assoc; ++i) {
      if (!base[i].allocated) return &base[i];
    }
    Way* v = nullptr;
    if (p_.replacement == ReplacementPolicy::kRandom) {
      const unsigned start = static_cast<unsigned>(rng_.Below(p_.assoc));
      for (unsigned i = 0; i < p_.assoc; ++i) {
        Way& w = base[(start + i) % p_.assoc];
        if (w.pending == 0) return &w;
      }
      return nullptr;
    }
    for (unsigned i = 0; i < p_.assoc; ++i) {
      Way& w = base[i];
      if (w.pending != 0) continue;
      const bool older = p_.replacement == ReplacementPolicy::kLru
                             ? v == nullptr || w.last_use < v->last_use
                             : v == nullptr || w.alloc_time < v->alloc_time;
      if (older) v = &w;
    }
    return v;
  }
  void Install(Way* w, Addr line, std::uint32_t valid, std::uint32_t pending,
               std::uint32_t dirty, Cycle now, Eviction* ev) {
    if (w->allocated) {
      ev->valid = true;
      ev->dirty = w->dirty != 0;
      ev->line_addr = w->tag;
      ev->dirty_sectors = w->dirty;
    }
    *w = Way{line, true, valid, pending, dirty, now, now};
  }

  CacheParams p_;
  std::vector<Way> ways_;
  Rng rng_;
};

void ExpectSameEviction(const Eviction& got, const Eviction& want,
                        const std::string& where) {
  EXPECT_EQ(got.valid, want.valid) << where;
  EXPECT_EQ(got.dirty, want.dirty) << where;
  EXPECT_EQ(got.line_addr, want.line_addr) << where;
  EXPECT_EQ(got.dirty_sectors, want.dirty_sectors) << where;
}

TEST(TagArray, PackedLayoutMatchesReferenceUnderChurn) {
  for (const ReplacementPolicy pol :
       {ReplacementPolicy::kLru, ReplacementPolicy::kFifo,
        ReplacementPolicy::kRandom}) {
    for (const bool streaming : {false, true}) {
      CacheParams p;
      p.size_bytes = 4 * 4 * 128;  // 4 sets x 4 ways
      p.assoc = 4;
      p.replacement = pol;
      TagArray tags(p, 99);
      RefTagArray ref(p, 99);
      Rng rng(static_cast<std::uint64_t>(pol) * 2 + streaming + 1);
      const std::string where = "policy " +
                                std::to_string(static_cast<int>(pol)) +
                                (streaming ? " streaming" : " reserving");
      std::vector<unsigned> outcomes(4, 0);
      unsigned evictions = 0;
      for (Cycle now = 1; now <= 6000; ++now) {
        // 40 lines over 4 sets: ten candidates per 4-way set.
        const Addr line = 128 * rng.Below(40);
        const auto mask = static_cast<std::uint32_t>(rng.Range(1, 15));
        const std::string at = where + " cycle " + std::to_string(now);
        Eviction got, want;
        switch (rng.Below(streaming ? 3 : 5)) {
          case 0:
            ASSERT_EQ(tags.IsHit(line, mask), ref.IsHit(line, mask)) << at;
            break;
          case 1:
            tags.Fill(line, mask, now);
            ref.Fill(line, mask, now);
            break;
          case 2:
            if (streaming) {
              tags.FillAllocate(line, mask, now, &got);
              ref.FillAllocate(line, mask, now, &want);
              ExpectSameEviction(got, want, at);
              evictions += want.valid;
            } else {
              const TagOutcome out = tags.Probe(line, mask, now, &got);
              ASSERT_EQ(out, ref.Probe(line, mask, now, &want)) << at;
              ExpectSameEviction(got, want, at);
              ++outcomes[static_cast<int>(out)];
              evictions += want.valid;
            }
            break;
          case 3:
            ASSERT_EQ(tags.MarkDirty(line, mask, now),
                      ref.MarkDirty(line, mask, now))
                << at;
            break;
          default: {
            const TagOutcome out = tags.WriteValidate(line, mask, now, &got);
            ASSERT_EQ(out, ref.WriteValidate(line, mask, now, &want)) << at;
            ExpectSameEviction(got, want, at);
            evictions += want.valid;
          }
        }
      }
      EXPECT_GT(evictions, 0u) << where;
      if (!streaming) {
        // Every probe outcome must occur for the comparison to mean much.
        for (int o = 0; o < 4; ++o) EXPECT_GT(outcomes[o], 0u) << where << o;
      }
    }
  }
}

}  // namespace
}  // namespace swiftsim
