#include "mem/dram.h"

#include <algorithm>

#include "common/bitutil.h"

namespace swiftsim {

DramChannel::DramChannel(const DramConfig& cfg, unsigned sector_bytes,
                         const SiliconEffects& effects, bool silicon_effects)
    : cfg_(cfg), sector_bytes_(sector_bytes), effects_(effects),
      refresh_(silicon_effects),
      next_refresh_(silicon_effects ? effects.dram_refresh_interval
                                    : ~Cycle{0}) {
  queue_.Reserve(cfg.queue_depth);
  in_service_.Reserve(cfg.queue_depth);
  ready_.Reserve(cfg.queue_depth);
}

bool DramChannel::Enqueue(const MemRequest& req) {
  if (queue_.size() >= cfg_.queue_depth) {
    ++stats_.enqueue_stalls;
    return false;
  }
  queue_.push_back(req);
  return true;
}

Cycle DramChannel::NextEventAfter(Cycle now) const {
  if (!ready_.empty()) return now + 1;
  Cycle ev = ~Cycle{0};
  if (!in_service_.empty()) {
    ev = std::min(ev, std::max(in_service_.front().ready, now + 1));
  }
  if (!queue_.empty()) {
    // The controller services one request per cycle once the channel is
    // free; busy_until_ is the next service opportunity.
    ev = std::min(ev, std::max(busy_until_, now + 1));
  }
  if (refresh_) {
    // Refresh edges mutate channel state even when no traffic is queued;
    // the skip driver must land on each edge to stay bit-identical.
    ev = std::min(ev, std::max(next_refresh_, now + 1));
  }
  return ev;
}

void DramChannel::Tick(Cycle now) {
  // Periodic refresh blocks the channel (silicon oracle only).
  if (now >= next_refresh_) {
    busy_until_ = std::max(busy_until_, now) + effects_.dram_refresh_penalty;
    next_refresh_ += effects_.dram_refresh_interval;
    ++stats_.refreshes;
  }

  // Retire completed services.
  while (!in_service_.empty() && in_service_.front().ready <= now) {
    if (in_service_.front().is_load) {
      ready_.push_back(in_service_.front().resp);
    }
    in_service_.pop_front();
  }

  if (busy_until_ > now || queue_.empty()) return;

  // FR-FCFS within a small window: prefer the oldest row-buffer hit.
  std::size_t pick = 0;
  bool hit = false;
  const std::size_t window = std::min<std::size_t>(kFrfcfsWindow,
                                                   queue_.size());
  for (std::size_t i = 0; i < window; ++i) {
    if (queue_[i].line_addr / cfg_.row_bytes == open_row_) {
      pick = i;
      hit = true;
      break;
    }
  }
  const MemRequest req = queue_[pick];
  queue_.erase(pick);

  const Addr row = req.line_addr / cfg_.row_bytes;
  if (hit) {
    ++stats_.row_hits;
  } else {
    ++stats_.row_misses;
  }
  open_row_ = row;

  const unsigned bytes = req.bytes(sector_bytes_);
  const Cycle transfer = CeilDiv(bytes, cfg_.bytes_per_cycle);
  const Cycle access = hit ? cfg_.row_hit_latency : cfg_.latency;
  busy_until_ = now + transfer;
  stats_.bytes += bytes;

  const auto push_sorted = [this](const InService& svc) {
    std::size_t pos = in_service_.size();
    while (pos > 0 && in_service_[pos - 1].ready > svc.ready) --pos;
    in_service_.insert(pos, svc);
  };
  if (req.is_store()) {
    ++stats_.writes;
    // Stores complete silently once transferred.
    push_sorted(InService{now + transfer, MemResponse{}, false});
  } else {
    ++stats_.reads;
    push_sorted(InService{
        now + access + transfer,
        MemResponse{req.id, req.line_addr, req.sector_mask, req.sm}, true});
  }
}

}  // namespace swiftsim
