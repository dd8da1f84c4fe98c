// Clocked sectored cache model used for both the per-SM L1 and the
// per-partition L2 slice. Models banks (per-cycle access budget), MSHRs
// with merge limits, line reservation with reservation failures, LRU/FIFO/
// Random replacement, write-through (L1, streaming) and write-back with
// write-validate sectors (L2).
#pragma once

#include <cstdint>
#include <string>

#include "common/ring_buffer.h"
#include "common/types.h"
#include "config/gpu_config.h"
#include "mem/mshr.h"
#include "mem/request.h"
#include "mem/tag_array.h"

namespace swiftsim {

struct CacheStats {
  std::uint64_t accesses = 0;        // accepted accesses (loads + stores)
  std::uint64_t load_accesses = 0;
  std::uint64_t hits = 0;
  std::uint64_t sector_misses = 0;   // line resident, sectors missing
  std::uint64_t misses = 0;          // full line misses
  std::uint64_t mshr_merges = 0;     // misses merged into an existing entry
  std::uint64_t reservation_fails = 0;
  std::uint64_t mshr_stalls = 0;
  std::uint64_t bank_conflicts = 0;
  std::uint64_t out_stalls = 0;      // miss-queue backpressure rejections
  std::uint64_t writebacks = 0;      // dirty evictions forwarded down
  std::uint64_t write_through = 0;   // stores forwarded down (WT)
  std::uint64_t fills = 0;

  /// Load miss rate (full + sector misses over accepted loads).
  double load_miss_rate() const {
    return load_accesses
               ? static_cast<double>(misses + sector_misses) / load_accesses
               : 0.0;
  }
};

/// Why an Access was rejected. Capacity rejections (kMshrFull, kOutFull)
/// are stable until a fill or a downstream drain clears them, which lets
/// an event-driven owner sleep instead of retrying every cycle; bank and
/// reservation rejections can clear on the very next cycle.
enum class CacheReject : std::uint8_t {
  kNone,
  kBank,      // per-cycle bank budget exhausted
  kResFail,   // no line reservation available
  kMshrFull,  // MSHR entries or merge budget exhausted
  kOutFull,   // miss-queue backpressure
};

class SectorCache {
 public:
  /// `instance` disambiguates minted miss-request ids across cache
  /// instances; `out_capacity` bounds the queue toward the next level.
  SectorCache(std::string name, const CacheParams& params,
              std::uint64_t instance, unsigned out_capacity = 16);

  /// Must be called before Access/Fill in any cycle that uses them: resets
  /// the per-bank budget and releases latency-pipe responses that are due.
  /// An owner with no access or fill to make may skip it until
  /// NextEventAfter's cycle: no response falls due before then, and the
  /// next call resets the bank budget anyway. Inline so that the common
  /// nothing-to-do call costs two loads.
  void BeginCycle(Cycle now) {
    if (banks_dirty_ || (!pending_responses_.empty() &&
                         pending_responses_.front().ready <= now)) {
      ResetAndRelease(now);
    }
  }

  /// Attempts one access. Returns false (with NO state change) if the
  /// access cannot be accepted this cycle: bank busy, MSHR full/merge
  /// limit, reservation failure, or output backpressure. The caller
  /// retries on a later cycle; `why` (optional) reports the first check
  /// that failed, letting the caller sleep through stable rejections.
  bool Access(const MemRequest& req, Cycle now, CacheReject* why = nullptr);

  /// Stats catch-up for retries the owner proved would have failed with
  /// `why` on each of `n` elided cycles (cycle skipping, DESIGN.md §9).
  void AccountElidedStalls(CacheReject why, Cycle n) {
    if (why == CacheReject::kMshrFull) {
      stats_.mshr_stalls += n;
    } else if (why == CacheReject::kOutFull) {
      stats_.out_stalls += n;
    }
  }

  /// Fill from the next level (response to a minted miss request).
  void Fill(const MemResponse& resp, Cycle now);

  /// Ready load responses for the cache's requester side.
  RingBuffer<MemResponse>& responses() { return ready_responses_; }

  /// Requests toward the next level: misses, write-throughs, writebacks.
  RingBuffer<MemRequest>& miss_queue() { return miss_out_; }

  bool miss_queue_full() const { return miss_out_.size() >= out_capacity_; }

  /// True when no latency-pipe entries or MSHR entries remain.
  bool quiescent() const {
    return drained_but_miss_queue() && miss_out_.empty();
  }

  /// quiescent() ignoring the miss queue, for owners that count queued
  /// requests as downstream traffic (GpuModel::MemQuiescent).
  bool drained_but_miss_queue() const {
    return pending_responses_.empty() && mshr_.size() == 0 &&
           ready_responses_.empty();
  }

  /// Earliest cycle a latency-pipe response becomes ready (~0ull if none).
  /// Lets an event-driven owner sleep until this cache needs service.
  Cycle NextResponseReady() const {
    if (!ready_responses_.empty()) return 0;
    return pending_responses_.empty() ? ~Cycle{0}
                                      : pending_responses_.front().ready;
  }

  /// NextWakeCycle contract: the earliest cycle > `now` at which this
  /// cache needs its owner's per-cycle service loop. Ready responses and
  /// queued miss-requests need forwarding every cycle; otherwise the only
  /// future event is the head of the latency pipe. MSHR entries carry no
  /// event of their own — their fills arrive from downstream (DRAM/NoC),
  /// whose calendars bound the wake. Returns ~Cycle{0} when drained.
  Cycle NextEventAfter(Cycle now) const {
    if (!ready_responses_.empty() || !miss_out_.empty()) return now + 1;
    if (pending_responses_.empty()) return ~Cycle{0};
    const Cycle ready = pending_responses_.front().ready;
    return ready > now ? ready : now + 1;
  }

  const CacheStats& stats() const { return stats_; }
  const std::string& name() const { return name_; }
  const CacheParams& params() const { return params_; }

  // Occupancy snapshot for diagnostic dumps (DESIGN.md §11).
  std::size_t mshr_occupancy() const { return mshr_.size(); }
  std::size_t miss_queue_size() const { return miss_out_.size(); }
  std::size_t pending_response_count() const {
    return pending_responses_.size();
  }
  std::size_t ready_response_count() const { return ready_responses_.size(); }

 private:
  void ResetAndRelease(Cycle now);
  bool AccessLoad(const MemRequest& req, Cycle now, CacheReject& why);
  bool AccessStore(const MemRequest& req, Cycle now, CacheReject& why);
  bool TakeBank(Addr line_addr);
  void PushResponse(const MemResponse& resp, Cycle ready);
  void EmitEviction(const Eviction& ev);

  struct TimedResponse {
    Cycle ready = 0;
    MemResponse resp;
  };

  std::string name_;
  CacheParams params_;
  TagArray tags_;
  Mshr mshr_;
  unsigned out_capacity_;
  std::uint64_t next_req_id_;

  std::vector<std::uint8_t> bank_used_;
  bool banks_dirty_ = false;  // any bank_used_ bit set since last reset
  RingBuffer<TimedResponse> pending_responses_;  // latency pipe (FIFO)
  RingBuffer<MemResponse> ready_responses_;
  RingBuffer<MemRequest> miss_out_;
  MshrWaiters fill_scratch_;  // reused by Fill: woken waiters
  CacheStats stats_;
};

}  // namespace swiftsim
