#include "mem/mshr.h"

#include "common/status.h"

namespace swiftsim {

Mshr::Mshr(unsigned entries, unsigned max_merge)
    : max_entries_(entries), max_merge_(max_merge) {
  pool_.reserve(entries);
  index_.Reserve(entries);
}

std::uint32_t Mshr::Allocate(const Slot& slot, Addr line_addr,
                             const MemRequest& requester) {
  SS_DCHECK(CanAllocate(slot));
  std::uint32_t entry = slot.entry;
  if (!slot.found()) {
    if (free_head_ != kNil) {
      entry = free_head_;
      free_head_ = pool_[entry].next_free;
    } else {
      // Fresh slots come out in ascending order once the free list runs
      // dry; the reserved capacity makes this growth allocation-free.
      SS_DCHECK(pool_.size() < max_entries_);
      entry = static_cast<std::uint32_t>(pool_.size());
      pool_.emplace_back();
    }
    pool_[entry].requested_sectors = 0;
    pool_[entry].arrived_sectors = 0;
    pool_[entry].merged = 0;
    index_.InsertAt(slot.bucket, line_addr) = entry;
    ++size_;
  }
  Entry& e = pool_[entry];
  ++e.merged;
  const std::uint32_t need = requester.sector_mask & ~e.requested_sectors;
  e.requested_sectors |= requester.sector_mask;
  if (requester.id != 0) e.waiters.push_back(requester);
  return need;
}

void Mshr::Fill(Addr line_addr, std::uint32_t sector_mask,
                MshrWaiters* satisfied) {
  satisfied->clear();
  const std::size_t bucket = index_.Locate(line_addr);
  if (!index_.Holds(bucket)) return;
  const std::uint32_t slot = index_.ValueAt(bucket);
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
    index_.EraseAt(bucket);
    e.waiters.clear();
    e.next_free = free_head_;
    free_head_ = slot;
    --size_;
  }
}

}  // namespace swiftsim
