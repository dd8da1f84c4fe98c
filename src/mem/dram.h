// DRAM channel model behind one memory partition: bounded controller
// queue, FR-FCFS-style scheduling (row hits first within a lookahead
// window), row-buffer latency, per-channel bandwidth serialization, and an
// optional periodic-refresh effect (silicon oracle only).
#pragma once

#include <cstdint>

#include "common/ring_buffer.h"
#include "common/types.h"
#include "config/gpu_config.h"
#include "mem/request.h"

namespace swiftsim {

struct DramStats {
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t row_hits = 0;
  std::uint64_t row_misses = 0;
  std::uint64_t bytes = 0;
  std::uint64_t refreshes = 0;
  std::uint64_t enqueue_stalls = 0;

  double row_hit_rate() const {
    const std::uint64_t total = row_hits + row_misses;
    return total ? static_cast<double>(row_hits) / total : 0.0;
  }
};

class DramChannel {
 public:
  /// `silicon_effects` (ModelSelection) turns on the periodic refresh
  /// that `effects` sizes.
  DramChannel(const DramConfig& cfg, unsigned sector_bytes,
              const SiliconEffects& effects, bool silicon_effects);

  /// Returns false (no state change) when the controller queue is full.
  bool Enqueue(const MemRequest& req);

  void Tick(Cycle now);

  /// Completed load responses, ready for the L2 fill path.
  RingBuffer<MemResponse>& responses() { return ready_; }

  bool quiescent() const {
    return queue_.empty() && in_service_.empty() && ready_.empty();
  }

  /// NextWakeCycle contract: the earliest cycle > `now` at which a Tick
  /// can change observable state — the head in-service burst maturing
  /// (in_service_ is ready-sorted), the channel freeing up for a queued
  /// request, the next refresh edge (silicon oracle only), or a completed
  /// response awaiting its consumer. Returns ~Cycle{0} when idle.
  Cycle NextEventAfter(Cycle now) const;

  const DramStats& stats() const { return stats_; }

  // Occupancy snapshot for diagnostic dumps (DESIGN.md §11).
  std::size_t queue_size() const { return queue_.size(); }
  std::size_t in_service_size() const { return in_service_.size(); }
  std::size_t ready_size() const { return ready_.size(); }

 private:
  struct InService {
    Cycle ready = 0;
    MemResponse resp;
    bool is_load = false;
  };

  static constexpr unsigned kFrfcfsWindow = 8;

  DramConfig cfg_;
  unsigned sector_bytes_;
  SiliconEffects effects_;
  bool refresh_;

  RingBuffer<MemRequest> queue_;
  RingBuffer<InService> in_service_;  // sorted by ready
  RingBuffer<MemResponse> ready_;
  Cycle busy_until_ = 0;
  Cycle next_refresh_;
  Addr open_row_ = ~Addr{0};
  DramStats stats_;
};

}  // namespace swiftsim
