#include "mem/tag_array.h"

#include "common/bitutil.h"
#include "common/status.h"

namespace swiftsim {

TagArray::TagArray(const CacheParams& params, std::uint64_t rng_seed)
    : params_(params), sets_(params.num_sets()),
      tags_(static_cast<std::size_t>(sets_) * params.assoc, kFreeTag),
      lines_(tags_.size()), rng_(rng_seed) {}

std::size_t TagArray::SetBase(Addr line_addr) const {
  const unsigned set = static_cast<unsigned>((line_addr / params_.line_bytes) &
                                             (sets_ - 1));
  return static_cast<std::size_t>(set) * params_.assoc;
}

std::size_t TagArray::Lookup(Addr line_addr) const {
  SS_DCHECK(line_addr != kFreeTag);
  const std::size_t base = SetBase(line_addr);
  const Addr* tags = &tags_[base];
  for (unsigned w = 0; w < params_.assoc; ++w) {
    if (tags[w] == line_addr) return base + w;
  }
  return kNoWay;
}

std::size_t TagArray::PickVictim(std::size_t base) {
  const unsigned assoc = params_.assoc;
  const Addr* tags = &tags_[base];
  const Line* lines = &lines_[base];
  // Prefer an unallocated way.
  for (unsigned w = 0; w < assoc; ++w) {
    if (tags[w] == kFreeTag) return base + w;
  }
  // Otherwise evict per policy among non-reserved ways.
  std::size_t victim = kNoWay;
  switch (params_.replacement) {
    case ReplacementPolicy::kLru:
      for (unsigned w = 0; w < assoc; ++w) {
        if (lines[w].reserved()) continue;
        if (victim == kNoWay ||
            lines[w].last_use < lines_[victim].last_use) {
          victim = base + w;
        }
      }
      break;
    case ReplacementPolicy::kFifo:
      for (unsigned w = 0; w < assoc; ++w) {
        if (lines[w].reserved()) continue;
        if (victim == kNoWay ||
            lines[w].alloc_time < lines_[victim].alloc_time) {
          victim = base + w;
        }
      }
      break;
    case ReplacementPolicy::kRandom: {
      // Scan from a random start to find the first evictable way.
      const unsigned start = static_cast<unsigned>(rng_.Below(assoc));
      for (unsigned i = 0; i < assoc; ++i) {
        const unsigned w = (start + i) % assoc;
        if (!lines[w].reserved()) {
          victim = base + w;
          break;
        }
      }
      break;
    }
  }
  return victim;  // kNoWay => every way reserved => reservation failure
}

void TagArray::Install(std::size_t way, Addr line_addr, std::uint32_t valid,
                       std::uint32_t pending, std::uint32_t dirty, Cycle now,
                       Eviction* ev) {
  Line& l = lines_[way];
  if (tags_[way] != kFreeTag) {
    ev->valid = true;
    ev->dirty = l.dirty_sectors != 0;
    ev->line_addr = tags_[way];
    ev->dirty_sectors = l.dirty_sectors;
  }
  tags_[way] = line_addr;
  l.valid_sectors = valid;
  l.pending_sectors = pending;
  l.dirty_sectors = dirty;
  l.last_use = now;
  l.alloc_time = now;
}

TagOutcome TagArray::ProbeAt(std::size_t way, Addr line_addr,
                             std::uint32_t sector_mask, Cycle now,
                             Eviction* ev) {
  SS_DCHECK(ev != nullptr);
  SS_DCHECK(way == Lookup(line_addr));
  *ev = Eviction{};
  if (way != kNoWay) {
    Line& l = lines_[way];
    l.last_use = now;
    if ((sector_mask & ~l.valid_sectors) == 0) return TagOutcome::kHit;
    l.pending_sectors |= sector_mask & ~(l.valid_sectors | l.pending_sectors);
    return TagOutcome::kSectorMiss;
  }
  const std::size_t victim = PickVictim(SetBase(line_addr));
  if (victim == kNoWay) return TagOutcome::kReservationFail;
  Install(victim, line_addr, 0, sector_mask, 0, now, ev);
  return TagOutcome::kMiss;
}

void TagArray::Fill(Addr line_addr, std::uint32_t sector_mask, Cycle now) {
  const std::size_t way = Lookup(line_addr);
  if (way == kNoWay) return;
  Line& l = lines_[way];
  l.valid_sectors |= sector_mask;
  l.pending_sectors &= ~sector_mask;
  l.last_use = now;
}

bool TagArray::MarkDirty(Addr line_addr, std::uint32_t sector_mask,
                         Cycle now) {
  const std::size_t way = Lookup(line_addr);
  if (way == kNoWay) return false;
  Line& l = lines_[way];
  l.dirty_sectors |= sector_mask;
  l.valid_sectors |= sector_mask;  // full-sector writes validate
  l.last_use = now;
  return true;
}

void TagArray::FillAllocate(Addr line_addr, std::uint32_t sector_mask,
                            Cycle now, Eviction* ev) {
  SS_DCHECK(ev != nullptr);
  *ev = Eviction{};
  const std::size_t way = Lookup(line_addr);
  if (way != kNoWay) {
    Line& l = lines_[way];
    l.valid_sectors |= sector_mask;
    l.pending_sectors &= ~sector_mask;
    l.last_use = now;
    return;
  }
  const std::size_t victim = PickVictim(SetBase(line_addr));
  SS_ASSERT(victim != kNoWay);  // streaming caches never reserve ways
  Install(victim, line_addr, sector_mask, 0, 0, now, ev);
}

TagOutcome TagArray::WriteValidate(Addr line_addr, std::uint32_t sector_mask,
                                   Cycle now, Eviction* ev) {
  SS_DCHECK(ev != nullptr);
  *ev = Eviction{};
  const std::size_t way = Lookup(line_addr);
  if (way != kNoWay) {
    Line& l = lines_[way];
    l.valid_sectors |= sector_mask;
    l.dirty_sectors |= sector_mask;
    l.last_use = now;
    return TagOutcome::kHit;
  }
  const std::size_t victim = PickVictim(SetBase(line_addr));
  if (victim == kNoWay) return TagOutcome::kReservationFail;
  Install(victim, line_addr, sector_mask, 0, sector_mask, now, ev);
  return TagOutcome::kMiss;
}

}  // namespace swiftsim
