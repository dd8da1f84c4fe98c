// The memory coalescer: collapses the per-lane addresses of one warp
// memory instruction into the minimal set of line+sector requests.
#pragma once

#include <cstddef>
#include <vector>

#include "common/inline_vec.h"
#include "common/types.h"
#include "mem/request.h"

namespace swiftsim {

struct CoalescedAccess {
  Addr line_addr = 0;
  std::uint32_t sector_mask = 0;
};

/// Coalesced accesses of one warp instruction. With access_bytes <=
/// sector_bytes each of the <=32 lanes touches at most two sector-aligned
/// chunks, so 64 inline slots make return-by-value allocation-free.
using CoalescedVec = InlineVec<CoalescedAccess, 2 * kWarpSize>;

/// Coalesces per-active-lane addresses (compact form, `access_bytes` read or
/// written per lane) into unique (line, sector-mask) accesses, ordered by
/// first-touching lane. A lane access spanning a sector boundary sets both
/// sector bits; spanning a line boundary produces entries for both lines.
/// Clears and fills `*out`.
void Coalesce(const Addr* lane_addrs, std::size_t n, unsigned access_bytes,
              unsigned line_bytes, unsigned sector_bytes, CoalescedVec* out);

/// Convenience overload for any contiguous address container
/// (LaneAddrs, std::vector in tests).
template <typename Addrs>
CoalescedVec Coalesce(const Addrs& lane_addrs, unsigned access_bytes,
                      unsigned line_bytes, unsigned sector_bytes) {
  CoalescedVec out;
  Coalesce(lane_addrs.data(), lane_addrs.size(), access_bytes, line_bytes,
           sector_bytes, &out);
  return out;
}

/// Braced-list convenience (tests): Coalesce({0x1000, 0x1004}, ...).
inline CoalescedVec Coalesce(std::initializer_list<Addr> lane_addrs,
                             unsigned access_bytes, unsigned line_bytes,
                             unsigned sector_bytes) {
  CoalescedVec out;
  Coalesce(lane_addrs.begin(), lane_addrs.size(), access_bytes, line_bytes,
           sector_bytes, &out);
  return out;
}

/// Shared-memory bank-conflict calculator with reusable scratch (one per
/// owning unit; calls are allocation-free). Duplicate word addresses
/// within the warp are broadcast and count once.
class SmemConflictCounter {
 public:
  explicit SmemConflictCounter(unsigned banks);

  /// Worst-case distinct-word count on one bank == serialized smem cycles.
  unsigned Conflicts(const Addr* addrs, std::size_t n);

  template <typename Addrs>
  unsigned Conflicts(const Addrs& addrs) {
    return Conflicts(addrs.data(), addrs.size());
  }

 private:
  /// Bank of a 4-byte word: a mask when the bank count is a power of two
  /// (the shipped presets), a modulo otherwise.
  unsigned Bank(Addr word) const {
    return static_cast<unsigned>(pow2_banks_ ? word & (banks_ - 1)
                                             : word % banks_);
  }

  unsigned banks_;
  bool pow2_banks_;
  std::vector<std::uint8_t> bank_count_;  // per-bank distinct-word counts
  Addr words_[kWarpSize];                 // distinct words seen this call
};

}  // namespace swiftsim
