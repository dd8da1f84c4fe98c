#include "analytical/cache_prepass.h"

#include <algorithm>

#include "common/status.h"
#include "core/cta_allocator.h"
#include "mem/coalescer.h"

namespace swiftsim {

const PcHitRates& MemProfile::Lookup(KernelId kernel, Pc pc) const {
  const PcHitRates* it = per_pc_.Find(Key(kernel, pc));
  if (it != nullptr && it->accesses > 0) return *it;
  const PcHitRates* kit = per_kernel_.Find(kernel);
  if (kit != nullptr && kit->accesses > 0) return *kit;
  return all_dram_;
}

PcHitRates& MemProfile::Mutable(KernelId kernel, Pc pc) {
  return per_pc_[Key(kernel, pc)];
}

void MemProfile::FinalizeKernel(KernelId kernel) {
  PcHitRates& agg = per_kernel_[kernel];
  agg = PcHitRates{};
  for (const auto& [key, rates] : per_pc_) {
    if ((key >> 48) != kernel) continue;
    agg.accesses += rates.accesses;
    agg.l1_hits += rates.l1_hits;
    agg.l2_hits += rates.l2_hits;
  }
}

void MemProfile::Merge(const MemProfile& other) {
  for (const auto& [key, rates] : other.per_pc_) {
    PcHitRates& dst = per_pc_[key];
    dst.accesses += rates.accesses;
    dst.l1_hits += rates.l1_hits;
    dst.l2_hits += rates.l2_hits;
  }
  for (const auto& [kernel, rates] : other.per_kernel_) {
    PcHitRates& dst = per_kernel_[kernel];
    dst.accesses += rates.accesses;
    dst.l1_hits += rates.l1_hits;
    dst.l2_hits += rates.l2_hits;
  }
}

namespace {
// Aggregate L2: one functional cache with the full chip capacity.
CacheParams AggregateL2(const GpuConfig& cfg) {
  CacheParams l2 = cfg.l2;
  l2.size_bytes = cfg.total_l2_bytes();
  return l2;
}
}  // namespace

CachePrepass::CachePrepass(const GpuConfig& cfg, bool memoize)
    : cfg_(cfg), memoize_(memoize), l2_(AggregateL2(cfg)) {
  l1s_.reserve(cfg.num_sms);
  for (unsigned s = 0; s < cfg.num_sms; ++s) l1s_.emplace_back(cfg.l1);
  for (FunctionalCache& l1 : l1s_) caches_.push_back(&l1);
  caches_.push_back(&l2_);
}

Fingerprint CachePrepass::StateSignature() {
  FpHasher h;
  for (FunctionalCache* c : caches_) {
    const Fingerprint sig = c->Signature();
    h.Mix(sig.hi);
    h.Mix(sig.lo);
  }
  return h.Digest();
}

void CachePrepass::ProcessKernel(const KernelTrace& kernel,
                                 MemProfile* profile) {
  if (!memoize_) {
    ProcessKernelImpl(kernel, profile);
    return;
  }
  const Fingerprint fp = FingerprintKernel(kernel);
  const Fingerprint before = StateSignature();
  const auto it = memo_.find(fp);
  if (it != memo_.end() && it->second.sig_before == before) {
    // Same kernel, behaviorally identical pre-launch state: the replay is
    // fully determined, so merging the recorded delta and writing back the
    // sets the recorded launch changed (every other set is untouched by
    // it) is exactly what a fresh replay would produce.
    profile->Merge(it->second.delta);
    for (std::size_t c = 0; c < caches_.size(); ++c) {
      caches_[c]->RestoreDelta(it->second.changed[c]);
    }
    ++replayed_launches_;
    return;
  }
  // Replay into a scratch delta so the launch contribution is separable.
  // Merging the finalized delta equals finalizing the accumulated per-PC
  // counts directly: both per-kernel aggregates are plain sums.
  LaunchMemo entry;
  entry.sig_before = before;
  ProcessKernelImpl(kernel, &entry.delta);
  entry.changed.resize(caches_.size());
  for (std::size_t c = 0; c < caches_.size(); ++c) {
    caches_[c]->SaveDelta(&entry.changed[c]);
  }
  profile->Merge(entry.delta);
  memo_[fp] = std::move(entry);
}

void CachePrepass::ProcessKernelImpl(const KernelTrace& kernel,
                                     MemProfile* profile) {
  SS_CHECK(profile != nullptr, "CachePrepass needs an output profile");
  const KernelInfo& info = kernel.info();
  const CtaAllocator occupancy_probe(cfg_);
  const unsigned per_sm = std::max(1u, occupancy_probe.MaxConcurrent(info));
  const unsigned wave = per_sm * cfg_.num_sms;

  struct Cursor {
    WarpCursor walk;
    unsigned sm;
  };
  LaneAddrs lane_addrs;  // decode scratch, reused across instructions

  // Timing-aware correction: an access whose line missed "recently" (still
  // in flight in the timing model) does not hit in the L1 — it merges into
  // the outstanding MSHR entry and observes the original miss's latency.
  // "Recently" is measured in interleaved accesses: one fill latency spans
  // roughly a few rounds of the warp interleave.
  enum class MissLevel : std::uint8_t { kL2, kDram };
  struct RecentMiss {
    std::uint64_t when = 0;
    MissLevel level = MissLevel::kL2;
  };
  FlatMap<Addr, RecentMiss> recent_miss;
  recent_miss.Reserve(4096);
  std::uint64_t access_counter = 0;

  for (CtaId wave_start = 0; wave_start < info.num_ctas;
       wave_start += wave) {
    const CtaId wave_end =
        std::min<CtaId>(wave_start + wave, info.num_ctas);
    std::vector<Cursor> cursors;
    for (CtaId c = wave_start; c < wave_end; ++c) {
      const CtaTrace& cta = kernel.cta(c);
      const unsigned sm = (c - wave_start) % cfg_.num_sms;
      for (const WarpTrace& w : cta.warps) {
        cursors.push_back(Cursor{WarpCursor(w), sm});
      }
    }
    // One fill latency covers roughly a few rounds of the interleave.
    const std::uint64_t merge_window =
        std::max<std::uint64_t>(cursors.size() * 8, 64);
    // Round-robin interleave at instruction granularity.
    bool any = true;
    while (any) {
      any = false;
      for (Cursor& cur : cursors) {
        if (cur.walk.done()) continue;
        any = true;
        const CompactInstr& ins = cur.walk.peek();
        if (!IsGlobalMem(ins.op)) {
          cur.walk.Next();
          continue;
        }
        cur.walk.PeekAddrs(&lane_addrs);
        cur.walk.Next();
        const auto accesses =
            Coalesce(lane_addrs, 4, cfg_.l1.line_bytes, cfg_.l1.sector_bytes);
        if (IsStore(ins.op)) {
          for (const auto& acc : accesses) {
            // Write-through: update both levels, no hit accounting.
            l1s_[cur.sm].AccessStore(acc.line_addr, acc.sector_mask);
            l2_.AccessStore(acc.line_addr, acc.sector_mask);
          }
          continue;
        }
        PcHitRates& rates = profile->Mutable(info.id, ins.pc);
        for (const auto& acc : accesses) {
          ++rates.accesses;
          ++access_counter;
          const RecentMiss* rm = recent_miss.Find(acc.line_addr);
          const bool merges =
              rm != nullptr && access_counter - rm->when < merge_window;
          const bool l1_hit =
              l1s_[cur.sm].AccessLoad(acc.line_addr, acc.sector_mask);
          if (merges) {
            // Piggybacks on the in-flight fill: pays that miss's latency.
            if (rm->level == MissLevel::kL2) ++rates.l2_hits;
            continue;  // (DRAM-level merges count as DRAM accesses)
          }
          if (l1_hit) {
            ++rates.l1_hits;
            continue;
          }
          const bool l2_hit =
              l2_.AccessLoad(acc.line_addr, acc.sector_mask);
          if (l2_hit) ++rates.l2_hits;
          recent_miss[acc.line_addr] =
              RecentMiss{access_counter,
                         l2_hit ? MissLevel::kL2 : MissLevel::kDram};
        }
      }
    }
    recent_miss.clear();
  }
  profile->FinalizeKernel(info.id);
}

MemProfile BuildMemProfile(const Application& app, const GpuConfig& cfg,
                           bool memoize) {
  MemProfile profile;
  CachePrepass prepass(cfg, memoize);
  for (const auto& kernel : app.kernels) {
    prepass.ProcessKernel(*kernel, &profile);
  }
  return profile;
}

std::uint64_t MemProfileGeometryHash(const GpuConfig& cfg) {
  FpHasher h;
  for (const CacheParams* c : {&cfg.l1, &cfg.l2}) {
    h.Mix(c->size_bytes);
    h.Mix(c->assoc);
    h.Mix(c->line_bytes);
    h.Mix(c->sector_bytes);
  }
  h.Mix(cfg.num_sms);
  h.Mix(cfg.num_mem_partitions);  // scales the aggregate L2
  // Occupancy limits set the replay wave size (and the merge window).
  h.Mix(cfg.max_ctas_per_sm);
  h.Mix(cfg.max_warps_per_sm);
  h.Mix(cfg.max_threads_per_sm);
  h.Mix(cfg.registers_per_sm);
  h.Mix(cfg.shared_mem_per_sm);
  return h.Digest().Fold();
}

}  // namespace swiftsim
