#include "mem/mshr.h"

#include "common/status.h"

namespace swiftsim {

Mshr::Mshr(unsigned entries, unsigned max_merge)
    : max_entries_(entries), max_merge_(max_merge) {
  pool_.reserve(entries);
  index_.Reserve(entries);
}

bool Mshr::CanAllocate(Addr line_addr) const {
  const std::uint32_t* slot = index_.Find(line_addr);
  if (slot == nullptr) return size_ < max_entries_;
  return pool_[*slot].merged < max_merge_;
}

void Mshr::Allocate(Addr line_addr, const MemRequest& requester) {
  SS_DCHECK(CanAllocate(line_addr));
  std::uint32_t slot;
  if (const std::uint32_t* found = index_.Find(line_addr)) {
    slot = *found;
  } else {
    if (free_head_ != kNil) {
      slot = free_head_;
      free_head_ = pool_[slot].next_free;
    } else {
      // Fresh slots come out in ascending order once the free list runs
      // dry; the reserved capacity makes this growth allocation-free.
      SS_DCHECK(pool_.size() < max_entries_);
      slot = static_cast<std::uint32_t>(pool_.size());
      pool_.emplace_back();
    }
    pool_[slot].requested_sectors = 0;
    pool_[slot].arrived_sectors = 0;
    pool_[slot].merged = 0;
    index_[line_addr] = slot;
    ++size_;
  }
  Entry& e = pool_[slot];
  ++e.merged;
  e.requested_sectors |= requester.sector_mask;
  if (requester.id != 0) e.waiters.push_back(requester);
}

bool Mshr::HasEntry(Addr line_addr) const {
  return index_.contains(line_addr);
}

std::uint32_t Mshr::RequestedSectors(Addr line_addr) const {
  const std::uint32_t* slot = index_.Find(line_addr);
  return slot == nullptr ? 0u : pool_[*slot].requested_sectors;
}

void Mshr::AddRequestedSectors(Addr line_addr, std::uint32_t sector_mask) {
  std::uint32_t* slot = index_.Find(line_addr);
  SS_DCHECK(slot != nullptr);
  pool_[*slot].requested_sectors |= sector_mask;
}

void Mshr::Fill(Addr line_addr, std::uint32_t sector_mask,
                MshrWaiters* satisfied) {
  satisfied->clear();
  std::uint32_t* found = index_.Find(line_addr);
  if (found == nullptr) return;
  const std::uint32_t slot = *found;
  Entry& e = pool_[slot];
  e.arrived_sectors |= sector_mask;
  // Stable in-place partition: waiters still missing sectors keep their
  // relative order at the front, satisfied ones move to `satisfied` in
  // order. (std::stable_partition allocates a temporary buffer, which
  // would put a heap allocation on every fill.)
  auto& w = e.waiters;
  std::size_t keep = 0;
  for (std::size_t i = 0; i < w.size(); ++i) {
    if ((w[i].sector_mask & ~e.arrived_sectors) != 0) {
      if (keep != i) w[keep] = std::move(w[i]);
      ++keep;
    } else {
      satisfied->push_back(std::move(w[i]));
    }
  }
  w.resize(keep);
  if (w.empty() && (e.requested_sectors & ~e.arrived_sectors) == 0) {
    index_.erase(line_addr);
    e.waiters.clear();
    e.next_free = free_head_;
    free_head_ = slot;
    --size_;
  }
}

}  // namespace swiftsim
