// Miss-status holding registers: track outstanding line fills and merge
// subsequent misses to the same line, up to a per-entry merge limit.
// Fills may arrive in several sector batches; waiters are woken as soon as
// the sectors they asked for have all arrived.
//
// MSHRs are passive under the wake-calendar contract (DESIGN.md §9): an
// outstanding entry matures only when its fill arrives from downstream, so
// its wake time is whatever the NoC/DRAM calendars report — the MSHR never
// contributes an event of its own.
//
// Entries live in a pool whose capacity is reserved at the entry limit;
// an entry is constructed on first use, so a model whose caches never see
// that many misses outstanding never pays for the rest. Entries are looked
// up through a slim line->index map, hashed once per miss (Lookup hands the
// bucket on to Allocate) and once per fill. Keeping the fat waiter lists
// out of the hash slots matters on the hot path: probes stride over 16-byte
// items instead of multi-hundred-byte entries, and the map's backward-shift
// deletion moves indices, never waiter vectors.
#pragma once

#include <cstdint>
#include <vector>

#include "common/flat_map.h"
#include "common/inline_vec.h"
#include "common/types.h"
#include "mem/request.h"

namespace swiftsim {

/// Waiters woken by one fill. Inline capacity covers the default
/// mshr_max_merge (8); larger configured merge limits spill once and the
/// scratch buffer then keeps its capacity.
using MshrWaiters = InlineVec<MemRequest, 8>;

class Mshr {
 public:
  static constexpr std::uint32_t kNil = ~std::uint32_t{0};

  /// Where a line's miss lands: its outstanding entry, or the index bucket
  /// a new entry would take. One hash per miss; valid until the next
  /// Allocate or Fill.
  struct Slot {
    std::size_t bucket = 0;
    std::uint32_t entry = kNil;  // pool index; kNil when no fill outstanding
    bool found() const { return entry != kNil; }
  };

  Mshr(unsigned entries, unsigned max_merge);

  Slot Lookup(Addr line_addr) const {
    const std::size_t bucket = index_.Locate(line_addr);
    return {bucket, index_.Holds(bucket) ? index_.ValueAt(bucket) : kNil};
  }

  /// Can the miss at `slot` be tracked this cycle? (Entry available, or an
  /// existing entry with merge headroom.)
  bool CanAllocate(const Slot& slot) const {
    return slot.found() ? pool_[slot.entry].merged < max_merge_
                        : size_ < max_entries_;
  }

  /// Sectors already requested from the next level for the line (union
  /// over merged requests); 0 if no entry.
  std::uint32_t RequestedSectors(const Slot& slot) const {
    return slot.found() ? pool_[slot.entry].requested_sectors : 0u;
  }

  /// Records a miss at `slot` (Lookup(line_addr), with no MSHR change
  /// since). `requester` waits for its sector mask (stores pass id==0 and
  /// are counted against the merge limit but never woken). Returns the
  /// requested sectors no earlier miss asked the next level for.
  /// Requires CanAllocate(slot).
  std::uint32_t Allocate(const Slot& slot, Addr line_addr,
                         const MemRequest& requester);

  /// Registers arrival of `sector_mask` for the line and writes every
  /// waiter whose full sector set has now arrived into `*satisfied`
  /// (cleared first; caller owns the scratch so steady-state fills do not
  /// allocate). The entry is removed once all requested sectors arrived
  /// and no waiters remain.
  void Fill(Addr line_addr, std::uint32_t sector_mask,
            MshrWaiters* satisfied);

  /// Convenience wrapper (tests).
  MshrWaiters Fill(Addr line_addr, std::uint32_t sector_mask) {
    MshrWaiters satisfied;
    Fill(line_addr, sector_mask, &satisfied);
    return satisfied;
  }

  std::size_t size() const { return size_; }
  bool full() const { return size_ >= max_entries_; }

 private:
  struct Entry {
    MshrWaiters waiters;
    std::uint32_t requested_sectors = 0;
    std::uint32_t arrived_sectors = 0;
    unsigned merged = 0;
    std::uint32_t next_free = kNil;  // free-list link while unallocated
  };

  unsigned max_entries_;
  unsigned max_merge_;
  std::vector<Entry> pool_;                   // grows up to max_entries
  std::uint32_t free_head_ = kNil;            // LIFO list of freed slots
  std::size_t size_ = 0;                      // live entries
  FlatMap<Addr, std::uint32_t> index_;        // line addr -> pool slot
};

}  // namespace swiftsim
