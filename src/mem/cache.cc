#include "mem/cache.h"

#include "common/bitutil.h"
#include "common/status.h"

namespace swiftsim {

SectorCache::SectorCache(std::string name, const CacheParams& params,
                         std::uint64_t instance, unsigned out_capacity)
    : name_(std::move(name)), params_(params),
      tags_(params, HashMix(instance * 0x9e37 + 17)),
      mshr_(params.mshr_entries, params.mshr_max_merge),
      out_capacity_(out_capacity),
      next_req_id_((instance + 1) << 40),
      bank_used_(params.banks, 0) {
  // Steady-state bounds: the latency pipe holds at most `banks` pushes per
  // cycle for `latency` cycles (plus fill wakeups); the miss queue is
  // capped at out_capacity for misses, with eviction writebacks on top.
  pending_responses_.Reserve(static_cast<std::size_t>(params.banks) *
                             (params.latency + 2));
  ready_responses_.Reserve(64);
  miss_out_.Reserve(static_cast<std::size_t>(out_capacity) * 2);
}

void SectorCache::ResetAndRelease(Cycle now) {
  if (banks_dirty_) {
    std::fill(bank_used_.begin(), bank_used_.end(), 0);
    banks_dirty_ = false;
  }
  while (!pending_responses_.empty() &&
         pending_responses_.front().ready <= now) {
    ready_responses_.push_back(pending_responses_.front().resp);
    pending_responses_.pop_front();
  }
}

bool SectorCache::TakeBank(Addr line_addr) {
  const unsigned bank =
      static_cast<unsigned>((line_addr / params_.line_bytes) &
                            (params_.banks - 1));
  if (bank_used_[bank]) {
    ++stats_.bank_conflicts;
    return false;
  }
  bank_used_[bank] = 1;
  banks_dirty_ = true;
  return true;
}

void SectorCache::PushResponse(const MemResponse& resp, Cycle ready) {
  // The latency pipe is FIFO; constant latency keeps it sorted except for
  // fill-driven responses, which use ready=now+1 and thus must be placed
  // at the position keeping order. Cheap scan from the back suffices.
  std::size_t pos = pending_responses_.size();
  while (pos > 0 && pending_responses_[pos - 1].ready > ready) --pos;
  pending_responses_.insert(pos, TimedResponse{ready, resp});
}

void SectorCache::EmitEviction(const Eviction& ev) {
  if (!ev.valid || !ev.dirty) return;
  MemRequest wb;
  wb.line_addr = ev.line_addr;
  wb.sector_mask = ev.dirty_sectors;
  wb.type = MemAccessType::kStore;
  wb.id = 0;
  miss_out_.push_back(wb);
  ++stats_.writebacks;
}

bool SectorCache::Access(const MemRequest& req, Cycle now, CacheReject* why) {
  SS_DCHECK(req.sector_mask != 0);
  SS_DCHECK(AlignDown(req.line_addr, params_.line_bytes) == req.line_addr);
  CacheReject local = CacheReject::kNone;
  CacheReject& reason = why != nullptr ? *why : local;
  reason = CacheReject::kNone;
  return req.is_store() ? AccessStore(req, now, reason)
                        : AccessLoad(req, now, reason);
}

bool SectorCache::AccessLoad(const MemRequest& req, Cycle now,
                             CacheReject& why) {
  // One tag lookup serves the hit check and, on a miss, the probe below:
  // nothing between them allocates a way.
  const std::size_t way = tags_.Lookup(req.line_addr);
  if (tags_.HitAt(way, req.sector_mask)) {
    if (!TakeBank(req.line_addr)) {
      why = CacheReject::kBank;
      return false;
    }
    tags_.Touch(way, now);
    ++stats_.accesses;
    ++stats_.load_accesses;
    ++stats_.hits;
    MemResponse resp{req.id, req.line_addr, req.sector_mask, req.sm};
    PushResponse(resp, now + params_.latency);
    return true;
  }

  // Miss path: check every resource before mutating anything.
  const Mshr::Slot slot = mshr_.Lookup(req.line_addr);
  if (!mshr_.CanAllocate(slot)) {
    ++stats_.mshr_stalls;
    why = CacheReject::kMshrFull;
    return false;
  }
  if (miss_queue_full()) {
    ++stats_.out_stalls;
    why = CacheReject::kOutFull;
    return false;
  }
  if (!TakeBank(req.line_addr)) {
    why = CacheReject::kBank;
    return false;
  }

  const bool line_was_present = way != TagArray::kNoWay;
  if (params_.streaming) {
    // Streaming cache: the miss does NOT reserve a way — the line is
    // allocated when the fill arrives (FillAllocate). Reservation
    // failures are impossible; the MSHRs alone bound in-flight misses.
    if (line_was_present) tags_.Touch(way, now);
  } else {
    Eviction ev;
    const TagOutcome out =
        tags_.ProbeAt(way, req.line_addr, req.sector_mask, now, &ev);
    if (out == TagOutcome::kReservationFail) {
      ++stats_.reservation_fails;
      why = CacheReject::kResFail;
      return false;
    }
    EmitEviction(ev);
  }
  ++stats_.accesses;
  ++stats_.load_accesses;

  const std::uint32_t need = mshr_.Allocate(slot, req.line_addr, req);
  if (slot.found()) ++stats_.mshr_merges;
  if (line_was_present) {
    ++stats_.sector_misses;
  } else {
    ++stats_.misses;
  }
  if (need != 0) {
    MemRequest down;
    down.line_addr = req.line_addr;
    down.sector_mask = need;
    down.type = MemAccessType::kLoad;
    down.sm = req.sm;
    down.id = ++next_req_id_;
    miss_out_.push_back(down);
  }
  return true;
}

bool SectorCache::AccessStore(const MemRequest& req, Cycle now,
                              CacheReject& why) {
  if (params_.write_policy == WritePolicy::kWriteThrough) {
    if (miss_queue_full()) {
      ++stats_.out_stalls;
      why = CacheReject::kOutFull;
      return false;
    }
    if (!TakeBank(req.line_addr)) {
      why = CacheReject::kBank;
      return false;
    }
    ++stats_.accesses;
    // Update resident sectors in place (write-through, write-no-allocate).
    tags_.MarkDirty(req.line_addr, 0u, now);  // touch recency only if resident
    MemRequest down = req;
    down.id = 0;
    miss_out_.push_back(down);
    ++stats_.write_through;
    return true;
  }

  // Write-back with write-validate sectors: no fetch on store miss.
  if (!TakeBank(req.line_addr)) {
    why = CacheReject::kBank;
    return false;
  }
  Eviction ev;
  const TagOutcome out = tags_.WriteValidate(req.line_addr, req.sector_mask,
                                             now, &ev);
  if (out == TagOutcome::kReservationFail) {
    ++stats_.reservation_fails;
    why = CacheReject::kResFail;
    // The bank slot is consumed (the probe happened); the caller retries.
    return false;
  }
  ++stats_.accesses;
  EmitEviction(ev);
  return true;
}

void SectorCache::Fill(const MemResponse& resp, Cycle now) {
  ++stats_.fills;
  if (params_.streaming) {
    Eviction ev;
    tags_.FillAllocate(resp.line_addr, resp.sector_mask, now, &ev);
    EmitEviction(ev);  // write-through streaming L1s never evict dirty
  } else {
    tags_.Fill(resp.line_addr, resp.sector_mask, now);
  }
  mshr_.Fill(resp.line_addr, resp.sector_mask, &fill_scratch_);
  for (const MemRequest& waiter : fill_scratch_) {
    MemResponse r{waiter.id, waiter.line_addr, waiter.sector_mask, waiter.sm};
    PushResponse(r, now + 1);
  }
}

}  // namespace swiftsim
