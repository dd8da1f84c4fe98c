#include "mem/coalescer.h"

#include "common/bitutil.h"
#include "common/status.h"

namespace swiftsim {

void Coalesce(const Addr* lane_addrs, std::size_t n, unsigned access_bytes,
              unsigned line_bytes, unsigned sector_bytes, CoalescedVec* out) {
  SS_DCHECK(IsPow2(line_bytes) && IsPow2(sector_bytes));
  SS_DCHECK(access_bytes >= 1);
  out->clear();
  // Both sizes are validated powers of two: masks and a shift, no divides.
  const Addr line_mask = ~Addr{line_bytes - 1};
  const Addr sector_align = ~Addr{sector_bytes - 1};
  const Addr in_line = line_bytes - 1;
  const unsigned sector_shift = Log2(sector_bytes);
  // Neighbouring lanes mostly hit the same line, so the entry the previous
  // sector landed in is checked before the search.
  std::size_t last = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const Addr a = lane_addrs[i];
    // Cover [a, a+access_bytes): typically one sector, possibly two.
    for (Addr b = a & sector_align; b < a + access_bytes; b += sector_bytes) {
      const Addr line = b & line_mask;
      const std::uint32_t bit = 1u << ((b & in_line) >> sector_shift);
      if (last < out->size() && (*out)[last].line_addr == line) {
        (*out)[last].sector_mask |= bit;
        continue;
      }
      last = 0;
      while (last < out->size() && (*out)[last].line_addr != line) ++last;
      if (last == out->size()) {
        out->push_back({line, bit});
      } else {
        (*out)[last].sector_mask |= bit;
      }
    }
  }
}

SmemConflictCounter::SmemConflictCounter(unsigned banks)
    : banks_(banks), pow2_banks_(IsPow2(banks)),
      bank_count_(banks, 0) {
  SS_CHECK(banks > 0, "shared memory needs at least one bank");
}

unsigned SmemConflictCounter::Conflicts(const Addr* addrs, std::size_t n) {
  SS_DCHECK(n <= kWarpSize);
  // A duplicate word can only hide behind a bank that already has a word,
  // so a touched-bank bitmask skips the dedup scan entirely on the common
  // conflict-free pattern (each lane on its own bank).
  const bool bitmask_ok = banks_ <= 64;
  std::uint64_t touched = 0;
  unsigned worst = 1;
  std::size_t nw = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const Addr word = addrs[i] >> 2;
    const unsigned bank = Bank(word);
    if (!bitmask_ok || (touched >> bank) & 1) {
      bool dup = false;
      for (std::size_t j = 0; j < nw; ++j) {
        if (words_[j] == word) {
          dup = true;
          break;
        }
      }
      if (dup) continue;
    }
    if (bitmask_ok) touched |= std::uint64_t{1} << bank;
    words_[nw++] = word;
    const std::uint8_t c = ++bank_count_[bank];
    if (c > worst) worst = c;
  }
  for (std::size_t j = 0; j < nw; ++j) {
    bank_count_[Bank(words_[j])] = 0;
  }
  return worst;
}

}  // namespace swiftsim
