// Sectored set-associative tag array with pluggable replacement policy and
// line reservation (Accel-Sim-style: a miss reserves a way until its fill
// arrives; if every way of a set is reserved the access fails with a
// "reservation failure" — the pathology the paper observes in Accel-Sim's
// RTX 3090 results).
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "config/gpu_config.h"

namespace swiftsim {

enum class TagOutcome {
  kHit,             // line present, all requested sectors valid
  kSectorMiss,      // line present but some requested sectors not yet valid
  kMiss,            // line absent; a way was reserved for it
  kReservationFail, // line absent and no way can be victimized right now
};

/// Information about a line evicted by ReserveOnMiss (for dirty writeback).
struct Eviction {
  bool valid = false;       // an allocated line was displaced
  bool dirty = false;
  Addr line_addr = 0;
  std::uint32_t dirty_sectors = 0;
};

class TagArray {
 public:
  /// Way index returned by Lookup when the line is absent.
  static constexpr std::size_t kNoWay = ~std::size_t{0};

  TagArray(const CacheParams& params, std::uint64_t rng_seed);

  /// The way holding (or reserving) `line_addr`, or kNoWay. Valid until
  /// the next call that allocates a way. Callers that probe and then act
  /// pass it on, so an access hashes and walks its set once.
  std::size_t Lookup(Addr line_addr) const;

  /// True iff `way` (from Lookup; kNoWay allowed) holds every requested
  /// sector valid.
  bool HitAt(std::size_t way, std::uint32_t sector_mask) const {
    return way != kNoWay && (sector_mask & ~lines_[way].valid_sectors) == 0;
  }

  /// Refreshes a resident way's recency (an access that changes no sector).
  void Touch(std::size_t way, Cycle now) { lines_[way].last_use = now; }

  /// Probes `line_addr` at its Lookup result `way`. On kMiss, reserves a
  /// victim way (recording the eviction in *ev) and marks the requested
  /// sectors as pending-fill. On kSectorMiss, marks the missing sectors
  /// pending (line stays allocated). On kReservationFail nothing changes.
  /// `now` drives LRU/FIFO ordering.
  TagOutcome ProbeAt(std::size_t way, Addr line_addr,
                     std::uint32_t sector_mask, Cycle now, Eviction* ev);
  TagOutcome Probe(Addr line_addr, std::uint32_t sector_mask, Cycle now,
                   Eviction* ev) {
    return ProbeAt(Lookup(line_addr), line_addr, sector_mask, now, ev);
  }

  /// Read-only lookup: true iff all requested sectors are valid now.
  bool IsHit(Addr line_addr, std::uint32_t sector_mask) const {
    return HitAt(Lookup(line_addr), sector_mask);
  }

  /// Installs fill data for a previously reserved/pending line. Unknown
  /// lines are ignored (the line may have been victimized meanwhile —
  /// possible for sector fills racing with evictions).
  void Fill(Addr line_addr, std::uint32_t sector_mask, Cycle now);

  /// Marks sectors dirty (write-back caches); the line must be present.
  /// Returns false if the line is not resident (caller decides policy).
  bool MarkDirty(Addr line_addr, std::uint32_t sector_mask, Cycle now);

  /// Installs a complete, valid, dirty line for write-validate stores
  /// (no fetch). Returns eviction info like Probe.
  TagOutcome WriteValidate(Addr line_addr, std::uint32_t sector_mask,
                           Cycle now, Eviction* ev);

  /// Streaming-cache fill: allocates (or extends) the line at fill time —
  /// misses never reserved a way, so this always succeeds (reserved ways
  /// cannot exist in a streaming cache). Used by "sectored, streaming" L1s.
  void FillAllocate(Addr line_addr, std::uint32_t sector_mask, Cycle now,
                    Eviction* ev);

  unsigned num_sets() const { return sets_; }

 private:
  /// Tag of a way that holds no line. Line addresses are line-aligned, so
  /// no real tag has all low bits set.
  static constexpr Addr kFreeTag = ~Addr{0};

  /// Per-way state beside the packed tag array (the tag itself lives in
  /// tags_, so the set walk of a lookup reads tags only).
  struct Line {
    std::uint32_t valid_sectors = 0;    // filled sectors
    std::uint32_t pending_sectors = 0;  // requested from next level
    std::uint32_t dirty_sectors = 0;
    Cycle last_use = 0;
    Cycle alloc_time = 0;

    bool reserved() const { return pending_sectors != 0; }
  };

  std::size_t SetBase(Addr line_addr) const;
  /// Chooses a victim way in the set starting at `base`; returns kNoWay
  /// if all ways are reserved.
  std::size_t PickVictim(std::size_t base);
  /// Installs `line_addr` in `way`, reporting the displaced line in *ev.
  void Install(std::size_t way, Addr line_addr, std::uint32_t valid,
               std::uint32_t pending, std::uint32_t dirty, Cycle now,
               Eviction* ev);

  CacheParams params_;
  unsigned sets_;
  std::vector<Addr> tags_;   // sets_ x assoc, row-major; kFreeTag = empty
  std::vector<Line> lines_;  // parallel to tags_
  Rng rng_;
};

}  // namespace swiftsim
