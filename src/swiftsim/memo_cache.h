// Cross-launch and cross-run memoization (DESIGN.md §10).
//
// Iterative applications launch the same static kernel dozens of times,
// and DSE sweeps re-simulate identical traces across config points. Two
// caches remove that redundancy:
//
//   MemoCache    — per-launch simulation results keyed by (kernel
//                  fingerprint, canonical config hash, application
//                  context, SimLevel). The run pipeline consults it only
//                  at the analytical-memory level, where a launch's
//                  cycles depend only on that key (the contention pipes
//                  drain by kernel end and the block scheduler's rotor
//                  only permutes homogeneous SMs), so replay is exact:
//                  bit-identical totals, per-kernel results and
//                  aggregated metrics. At cycle-accurate-memory levels
//                  the persistent L2 makes launches genuinely differ, and
//                  nothing is replayed.
//   ProfileCache — pre-pass MemProfiles keyed by (application
//                  fingerprint, cache-geometry hash), shared across
//                  repeated Simulator constructions and across config
//                  points that differ only in timing parameters.
//
// MemoCache also keeps, per (canonical config hash, SimLevel), the metric
// map of a freshly built model: a run whose every launch replays reports
// that skeleton plus the replayed deltas and builds no GpuModel at all.
//
// Both caches are process-global and mutex-protected; RunOptions::memo =
// false (--no-memo) bypasses every layer. Their caps are process-wide
// too: the process that owns them sets them once (swiftsimd's
// --memo-max-entries / --memo-max-bytes), never a single run.
#pragma once

#include <cstdint>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "analytical/cache_prepass.h"
#include "common/types.h"
#include "config/gpu_config.h"
#include "trace/fingerprint.h"
#include "trace/kernel.h"

namespace swiftsim {

struct MemoKey {
  Fingerprint kernel_fp;
  std::uint64_t cfg_hash = 0;  // GpuConfig::CanonicalHash
  std::uint64_t context = 0;   // application fingerprint fold (profile scope)
  std::uint8_t level = 0;      // SimLevel

  bool operator<(const MemoKey& o) const {
    if (kernel_fp != o.kernel_fp) return kernel_fp < o.kernel_fp;
    if (cfg_hash != o.cfg_hash) return cfg_hash < o.cfg_hash;
    if (context != o.context) return context < o.context;
    return level < o.level;
  }
};

/// Everything one launch contributes to a SimResult: its cycles, issued
/// instructions, and the per-counter metric deltas it produced (the
/// "memo.*" telemetry counters excluded — they describe the driver, not
/// the launch). Replayed per-SM deltas are the first simulated launch's;
/// fresh repeats rotate CTA placement across homogeneous SMs, so replayed
/// per-SM maps are SM-permutation-equivalent and all aggregates match.
struct LaunchRecord {
  Cycle cycles = 0;
  std::uint64_t instructions = 0;
  /// In name order, as the run pipeline records them.
  std::vector<std::pair<std::string, std::uint64_t>> metric_deltas;
};

/// A replayed launch's totals; its metric deltas go to TryReplay's map.
struct ReplayedLaunch {
  Cycle cycles = 0;
  std::uint64_t instructions = 0;
};

using MetricMap = std::map<std::string, std::uint64_t>;

/// Adds every (name, value) of `deltas` into `*into`, inserting missing
/// names. One merge pass when `deltas` is in name order; correct in any
/// order.
template <typename Deltas>
void AddMetrics(const Deltas& deltas, MetricMap* into) {
  auto hint = into->begin();
  for (const auto& [name, value] : deltas) {
    // Everything before `hint` must sort below `name`; restart otherwise.
    if (hint != into->begin() && !(std::prev(hint)->first < name)) {
      hint = into->begin();
    }
    while (hint != into->end() && hint->first < name) ++hint;
    if (hint != into->end() && hint->first == name) {
      hint->second += value;
    } else {
      hint = into->emplace_hint(hint, name, value);
    }
    ++hint;
  }
}

class MemoCache {
 public:
  /// On a hit, adds the recorded launch's metric deltas into `*deltas`
  /// (when given) and returns its totals, without copying the record.
  /// Bumps the entry's replay count and recency (eviction inputs).
  std::optional<ReplayedLaunch> TryReplay(const MemoKey& key,
                                          MetricMap* deltas = nullptr);

  /// Records one simulated launch; it is replayable immediately. An entry
  /// already recorded (e.g. by a racing driver) keeps its record.
  void RecordLaunch(const MemoKey& key, LaunchRecord rec);

  /// The metrics of a freshly built model for the key's config hash and
  /// level (the kernel fingerprint and context are ignored), or null.
  std::shared_ptr<const MetricMap> Skeleton(const MemoKey& key) const;

  /// Keeps `metrics`, a fresh model's snapshot, as the key's skeleton. A
  /// stored skeleton wins. Skeletons count against the byte cap, go with
  /// the last entry of their config, and are never written to the file.
  void StoreSkeleton(const MemoKey& key, MetricMap metrics);

  /// Caps the cache (0 = unbounded).
  /// When either cap is exceeded after an insert, entries are evicted
  /// least-replayed first (ties: least recently used) — an entry that
  /// replays often keeps paying for its slot, a recorded-but-never-hit
  /// entry is the first to go. Applies immediately to current contents.
  void SetLimits(std::uint64_t max_entries, std::uint64_t max_bytes);

  std::size_t size() const;  // launch entries; skeletons not counted
  std::uint64_t bytes() const;  // entries and skeletons
  std::uint64_t evictions() const;
  void Clear();

  /// Versioned plain-text persistence for cross-run reuse (DSE sweeps
  /// spanning processes). Save writes every entry, no skeleton; Load
  /// merges them in (existing entries win). Load throws SimError on
  /// unreadable files or format mismatches.
  void SaveToFile(const std::string& path) const;
  void LoadFromFile(const std::string& path);

  /// The process-wide cache every driver consults by default.
  static MemoCache& Global();

 private:
  struct Entry {
    LaunchRecord rec;
    // Eviction inputs (SetLimits): replay frequency, recency, footprint.
    std::uint64_t replays = 0;
    std::uint64_t last_use = 0;
    std::uint64_t approx_bytes = 0;
  };

  // (cfg_hash, level): what a fresh model's metric map depends on.
  using SkeletonKey = std::pair<std::uint64_t, std::uint8_t>;
  struct SkeletonSlot {
    std::shared_ptr<const MetricMap> metrics;
    std::uint64_t approx_bytes = 0;
  };

  static std::uint64_t ApproxBytes(const MemoKey& key, const Entry& entry);
  /// Evicts until both caps hold. Caller holds mu_.
  void EnforceLimitsLocked();

  mutable std::mutex mu_;
  std::map<MemoKey, Entry> entries_;
  std::map<SkeletonKey, SkeletonSlot> skeletons_;
  std::uint64_t max_entries_ = 0;  // 0 = unbounded
  std::uint64_t max_bytes_ = 0;    // 0 = unbounded
  std::uint64_t total_bytes_ = 0;
  std::uint64_t use_clock_ = 0;
  std::uint64_t evictions_ = 0;
};

class ProfileCache {
 public:
  struct Fetch {
    std::shared_ptr<const MemProfile> profile;
    bool hit = false;
    double seconds = 0;  // wall time spent (fingerprinting + build)
  };

  /// Returns the cached profile for (app fingerprint, geometry hash) or
  /// builds and caches it.
  Fetch GetOrBuild(const Application& app, const GpuConfig& cfg);

  /// Caps the number of cached profiles (0 = unbounded); evicts least
  /// recently used. Shared pointers keep in-use profiles alive regardless.
  void SetMaxEntries(std::uint64_t max_entries);

  std::size_t size() const;
  std::uint64_t hits() const;
  std::uint64_t misses() const;
  std::uint64_t evictions() const;
  void Clear();

  static ProfileCache& Global();

 private:
  struct Key {
    Fingerprint app_fp;
    std::uint64_t geometry = 0;

    bool operator<(const Key& o) const {
      if (app_fp != o.app_fp) return app_fp < o.app_fp;
      return geometry < o.geometry;
    }
  };

  struct Slot {
    std::shared_ptr<const MemProfile> profile;
    std::uint64_t last_use = 0;
  };

  void EnforceLimitLocked();

  mutable std::mutex mu_;
  std::map<Key, Slot> entries_;
  std::uint64_t max_entries_ = 0;  // 0 = unbounded
  std::uint64_t use_clock_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
};

}  // namespace swiftsim
