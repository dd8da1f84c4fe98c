// Timing-free sectored set-associative cache used by the pre-pass that
// extracts Eq. 1's per-PC hit rates. Same geometry as the cycle-accurate
// SectorCache but no banks/MSHRs/latency — one hash-probe per access.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.h"
#include "config/gpu_config.h"
#include "trace/fingerprint.h"

namespace swiftsim {

class FunctionalCache {
 public:
  explicit FunctionalCache(const CacheParams& params);

  /// Probes and updates: returns true iff every requested sector was
  /// resident (LRU updated; on miss the line is installed with the
  /// requested sectors valid).
  bool AccessLoad(Addr line_addr, std::uint32_t sector_mask);

  /// Stores install/validate sectors without affecting hit statistics.
  void AccessStore(Addr line_addr, std::uint32_t sector_mask);

  /// 128-bit signature of the canonical resident state: per set, the
  /// valid lines' (tag, sectors) from most to least recently used. Two
  /// caches that would behave identically on any future access stream
  /// signature-match (cross-launch memoization's fixed-point test,
  /// DESIGN.md §10). Each set keeps its own hash and the signature is
  /// their two-lane sum, so a call rehashes only the sets changed since
  /// the previous Signature() or SaveDelta().
  Fingerprint Signature();

  std::uint64_t accesses() const { return accesses_; }
  std::uint64_t hits() const { return hits_; }
  double hit_rate() const {
    return accesses_ ? static_cast<double>(hits_) / accesses_ : 0.0;
  }

 private:
  struct Line {
    Addr tag = 0;
    std::uint32_t sectors = 0;
  };
  struct SetState {
    unsigned set = 0;
    unsigned count = 0;  // lines of this set in Delta::lines, in order
    Fingerprint hash;
  };

 public:
  /// The sets changed since the previous Signature() or SaveDelta(), as
  /// they are now: what one memoized launch did to the cache. Restoring
  /// it onto the state the launch started from (same signature) yields
  /// exactly the state a fresh replay would leave. Statistics counters
  /// are not part of it (replayed launches contribute their recorded
  /// profile deltas instead). Opaque outside this class.
  struct Delta {
    std::vector<SetState> sets;
    std::vector<Line> lines;
  };
  void SaveDelta(Delta* out);
  void RestoreDelta(const Delta& d);

 private:
  /// Moves `line_addr` to the front of its set, adding `sector_mask`
  /// (installing it over the least recently used line on a miss). Returns
  /// whether the line was resident; `*had` receives its sectors before
  /// this access.
  bool Touch(Addr line_addr, std::uint32_t sector_mask, std::uint32_t* had);
  void MarkChanged(unsigned set);
  void Rehash(unsigned set);

  CacheParams params_;
  unsigned sets_;
  unsigned line_shift_;
  // Per set, its count_[set] valid lines are a prefix of its ways, most
  // recently used first.
  std::vector<Line> lines_;
  std::vector<unsigned> count_;
  // Per-set hashes and their lane-wise sum; sets in `changed_` (flagged
  // in `is_changed_`) have a stale hash.
  std::vector<Fingerprint> set_hash_;
  Fingerprint sum_;
  std::vector<unsigned> changed_;
  std::vector<std::uint8_t> is_changed_;
  std::uint64_t accesses_ = 0;
  std::uint64_t hits_ = 0;
};

}  // namespace swiftsim
