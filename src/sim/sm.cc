#include "sim/sm.h"

#include <algorithm>
#include <ostream>
#include <string_view>

#include "common/bitutil.h"
#include "common/status.h"
#include "mem/coalescer.h"

namespace swiftsim {

namespace {
/// Deterministic Bernoulli draw keyed on arbitrary simulation state — the
/// silicon oracle's second-order effects must be reproducible.
bool HashBernoulli(std::uint64_t key, double p) {
  return (HashMix(key) & 0xffff) < static_cast<std::uint64_t>(p * 65536.0);
}
}  // namespace

SmCore::SmCore(const GpuConfig& cfg, const ModelSelection& selection, SmId id,
               const AnalyticalMemModel* mem_model,
               CtaCompleteFn on_cta_complete, const ModelSettings& settings)
    : cfg_(cfg), sel_(selection), cycle_skip_(settings.cycle_skip), id_(id),
      mem_model_(mem_model),
      on_cta_complete_(std::move(on_cta_complete)),
      warps_(cfg.max_warps_per_sm),
      conflict_paid_(cfg.max_warps_per_sm, 0),
      sb_blocked_(cfg.max_warps_per_sm, 0),
      ctas_(cfg.max_ctas_per_sm),
      scoreboard_(cfg.max_warps_per_sm),
      barriers_(cfg.max_ctas_per_sm),
      allocator_(cfg),
      smem_conflicts_(cfg.shared_mem_banks),
      events_(std::greater<Event>(), [&cfg] {
        // One-time reservation: completion events are bounded by in-flight
        // instructions (a few per resident warp).
        std::vector<Event> v;
        v.reserve(static_cast<std::size_t>(cfg.max_warps_per_sm) * 4);
        return v;
      }()) {
  SS_CHECK(on_cta_complete_ != nullptr, "SmCore needs a CTA-complete hook");
  if (sel_.mem == MemModelKind::kAnalytical) {
    SS_CHECK(mem_model_ != nullptr,
             "analytical memory mode needs an AnalyticalMemModel");
    contention_ = std::make_unique<MemContentionModel>(cfg);
  } else {
    l1_ = std::make_unique<SectorCache>("sm" + std::to_string(id) + ".l1",
                                        cfg.l1, id);
  }

  subcores_.resize(cfg.sub_cores_per_sm);
  const unsigned warps_per_sc = cfg.warps_per_sub_core();
  for (unsigned sc = 0; sc < cfg.sub_cores_per_sm; ++sc) {
    SubCore& s = subcores_[sc];
    s.scheduler = std::make_unique<WarpScheduler>(cfg.sched_policy,
                                                  warps_per_sc);
    s.live = IndexSet(warps_per_sc);
    if (sel_.alu == AluModelKind::kCycleAccurate) {
      s.pipelines.emplace_back(UnitClass::kInt, cfg.int_unit);
      s.pipelines.emplace_back(UnitClass::kSp, cfg.sp_unit);
      s.pipelines.emplace_back(UnitClass::kDp, cfg.dp_unit);
      s.pipelines.emplace_back(UnitClass::kSfu, cfg.sfu_unit);
      s.pipelines.emplace_back(UnitClass::kTensor, cfg.tensor_unit);
      s.collector = std::make_unique<OperandCollector>(
          OperandCollectorConfig{});
    } else {
      s.hybrid_alu = std::make_unique<HybridAluModel>(cfg);
    }
    if (sel_.mem == MemModelKind::kCycleAccurate) {
      LdstUnitConfig lc;
      lc.issue_interval =
          std::max(1u, kWarpSize / cfg.ldst_units_per_sub_core);
      lc.queue_depth = cfg.ldst_queue_depth;
      lc.accesses_per_cycle = cfg.ldst_units_per_sub_core;
      lc.line_bytes = cfg.l1.line_bytes;
      lc.sector_bytes = cfg.l1.sector_bytes;
      lc.smem_latency = cfg.shared_mem_latency;
      lc.smem_banks = cfg.shared_mem_banks;
      s.ldst = std::make_unique<LdstUnit>(
          lc, id_, sc, l1_.get(),
          [this](unsigned slot, std::uint8_t dst) { Writeback(slot, dst); });
    }
  }
}

ExecPipeline& SmCore::PipelineFor(SubCore& sc, UnitClass cls) {
  switch (cls) {
    case UnitClass::kInt:
      return sc.pipelines[0];
    case UnitClass::kSp:
      return sc.pipelines[1];
    case UnitClass::kDp:
      return sc.pipelines[2];
    case UnitClass::kSfu:
      return sc.pipelines[3];
    case UnitClass::kTensor:
      return sc.pipelines[4];
    default:
      break;
  }
  throw SimError("PipelineFor: not an ALU class");
}

void SmCore::NoteWake(Cycle when) {
  if (when < next_struct_wake_) next_struct_wake_ = when;
}

bool SmCore::CanTakeCta(const KernelInfo& info) const {
  if (!allocator_.CanAllocate(info)) return false;
  // Also need free warp slots; since slot i belongs to sub-core i % N, any
  // set of free slots works. Every valid slot holds a resident warp.
  return warps_.size() - resident_warps_ >= info.warps_per_cta;
}

void SmCore::LaunchCta(const KernelTrace& kernel, CtaId cta_id) {
  const KernelInfo& info = kernel.info();
  SS_CHECK(CanTakeCta(info),
           "LaunchCta without capacity on SM " + std::to_string(id_));
  const unsigned cta_slot = allocator_.Allocate(info);
  ResidentCta& rc = ctas_[cta_slot];
  rc.valid = true;
  rc.kernel = &kernel;
  rc.kernel_id = info.id;
  rc.cta_id = cta_id;
  rc.live_warps = info.warps_per_cta;
  barriers_.InitCta(cta_slot, info.warps_per_cta);

  const CtaTrace& trace = kernel.cta(cta_id);
  unsigned assigned = 0;
  for (unsigned slot = 0; slot < warps_.size() && assigned < info.warps_per_cta;
       ++slot) {
    if (warps_[slot].valid) continue;
    WarpContext& w = warps_[slot];
    w = WarpContext{};
    w.valid = true;
    w.cta_slot = cta_slot;
    w.trace = &trace.warps[assigned];
    w.launch_seq = ++launch_seq_;
    scoreboard_.Reset(slot);
    conflict_paid_[slot] = 0;
    sb_blocked_[slot] = 0;
    if (sel_.frontend == FrontendKind::kDetailed && !w.exhausted()) {
      ++fetchable_;  // fresh warp: empty i-buffer
    }
    RefreshLive(slot);
    ++assigned;
    ++resident_warps_;
  }
  SS_ASSERT(assigned == info.warps_per_cta);
  idle_cached_ = false;
  ForceWake();
}

void SmCore::OnKernelStart(unsigned active_sms) {
  if (contention_) contention_->SetActiveSms(active_sms);
}

void SmCore::Writeback(unsigned slot, std::uint8_t dst) {
  scoreboard_.OnWriteback(slot, dst);
  // The slot's pending set shrank: a cached scoreboard block may no
  // longer hold, so the warp is a candidate again for the next readiness
  // scan to re-evaluate.
  if (sb_blocked_[slot]) {
    sb_blocked_[slot] = 0;
    RefreshLive(slot);
  }
}

void SmCore::RefreshLive(unsigned slot) {
  const WarpContext& w = warps_[slot];
  const unsigned n_sc = static_cast<unsigned>(subcores_.size());
  const bool candidate =
      w.valid && !w.done && !w.at_barrier && !w.exhausted() &&
      (sel_.frontend != FrontendKind::kDetailed || w.ibuffer > 0) &&
      (sel_.silicon_effects || !sb_blocked_[slot]);
  subcores_[slot % n_sc].live.Assign(slot / n_sc, candidate);
}

void SmCore::BlockOnScoreboard(unsigned slot) {
  sb_blocked_[slot] = 1;
  // At silicon WarpReady records the i-cache wake hint before its
  // scoreboard test, so a blocked warp stays a candidate there.
  if (!sel_.silicon_effects) {
    const unsigned n_sc = static_cast<unsigned>(subcores_.size());
    subcores_[slot % n_sc].live.Erase(slot / n_sc);
  }
}

bool SmCore::WarpReady(unsigned slot, Cycle now) {
  WarpContext& w = warps_[slot];
  // Exactly the slots outside the candidate sets fail here, before any
  // side effect, which is what lets GTO and LRR probe only candidates.
  if (!w.valid || w.done || w.at_barrier || w.exhausted()) return false;
  if (sel_.frontend == FrontendKind::kDetailed) {
    if (w.ibuffer == 0) return false;
    if (now < w.fetch_ready) {
      // I-cache miss in flight; nothing else can unblock this warp sooner.
      NoteWake(w.fetch_ready);
      return false;
    }
  }
  const CompactInstr& ins = w.current();
  // A warp blocked on the scoreboard stays blocked until a writeback to
  // its slot (nothing else shrinks its pending set, and its current
  // instruction cannot advance while unissuable), so the cached verdict
  // short-circuits re-evaluation; Writeback clears it. fetch_ready is set
  // only with silicon effects, so elsewhere a blocked warp fails here
  // before any side effect.
  if (sb_blocked_[slot]) return false;
  if (!scoreboard_.CanIssue(slot, ins)) {
    BlockOnScoreboard(slot);
    return false;
  }
  if (IsExit(ins.op)) {
    // A warp only retires once all its loads wrote back.
    if (scoreboard_.PendingCount(slot) != 0) {
      BlockOnScoreboard(slot);
      return false;
    }
    return true;
  }
  SubCore& sc = subcores_[slot % subcores_.size()];
  const UnitClass cls = ClassOf(ins.op);
  switch (cls) {
    case UnitClass::kControl:
      return true;
    case UnitClass::kLdSt:
      if (sel_.mem == MemModelKind::kCycleAccurate) {
        if (!sc.ldst->CanAccept(now)) {
          NoteWake(std::max(now + 1, sc.ldst->next_issue()));
          return false;
        }
        return true;
      }
      if (now < sc.ana_ldst_next_issue) {
        NoteWake(sc.ana_ldst_next_issue);
        return false;
      }
      if (sc.ana_ldst_inflight >= cfg_.ldst_queue_depth) return false;
      return true;
    default:
      if (sel_.alu == AluModelKind::kCycleAccurate) {
        // Issue targets a collector unit; execution-pipe structural
        // hazards are resolved at the collector-to-pipe dispatch stage.
        if (!sc.collector->CanAccept()) {
          NoteWake(now + 1);
          return false;
        }
        return true;
      }
      if (!sc.hybrid_alu->CanIssue(cls, now)) {
        NoteWake(std::max(now + 1, sc.hybrid_alu->NextFree(cls)));
        return false;
      }
      return true;
  }
}

void SmCore::WakeCtaWarps(unsigned cta_slot) {
  for (unsigned slot = 0; slot < warps_.size(); ++slot) {
    WarpContext& w = warps_[slot];
    if (w.valid && w.cta_slot == cta_slot && w.at_barrier) {
      w.at_barrier = false;
      RefreshLive(slot);
    }
  }
}

void SmCore::FinishCta(unsigned cta_slot) {
  ResidentCta& rc = ctas_[cta_slot];
  SS_ASSERT(rc.valid && rc.live_warps == 0);
  allocator_.Release(cta_slot, rc.kernel->info());
  rc.valid = false;
  ++stats_.completed_ctas;
  on_cta_complete_(id_);
}

void SmCore::IssueControl(unsigned slot, const CompactInstr& ins) {
  WarpContext& w = warps_[slot];
  ++stats_.issued_control;
  if (IsBarrier(ins.op)) {
    if (barriers_.Arrive(w.cta_slot)) {
      WakeCtaWarps(w.cta_slot);
    } else {
      w.at_barrier = true;
      ++stats_.barrier_waits;
    }
    return;
  }
  SS_DCHECK(IsExit(ins.op));
  w.done = true;
  w.valid = false;
  SS_ASSERT(resident_warps_ > 0);
  --resident_warps_;
  subcores_[slot % subcores_.size()].scheduler->OnSlotDrained(
      slot / static_cast<unsigned>(subcores_.size()));
  ResidentCta& rc = ctas_[w.cta_slot];
  SS_ASSERT(rc.live_warps > 0);
  --rc.live_warps;
  if (barriers_.OnWarpExit(w.cta_slot)) WakeCtaWarps(w.cta_slot);
  if (rc.live_warps == 0) FinishCta(w.cta_slot);
}

void SmCore::IssueAlu(unsigned slot, const CompactInstr& ins, Cycle now) {
  SubCore& sc = subcores_[slot % subcores_.size()];
  const UnitClass cls = ClassOf(ins.op);
  ++stats_.issued_alu;
  if (sel_.alu == AluModelKind::kCycleAccurate) {
    sc.collector->Accept(slot, ins, cls);
    return;
  }
  const auto res = sc.hybrid_alu->Issue(cls, now);
  events_.push(Event{res.complete, slot, ins.dst,
                     static_cast<std::uint8_t>(slot % subcores_.size()),
                     false});
}

void SmCore::IssueMem(unsigned slot, const CompactInstr& ins, Cycle now) {
  SubCore& sc = subcores_[slot % subcores_.size()];
  ++stats_.issued_mem;
  // Lane addresses live in the warp's columnar pool; the per-slot rank
  // counter makes this an O(lanes) decode with no scan (DESIGN.md §14).
  const WarpContext& w = warps_[slot];
  if (ins.has_addrs()) {
    w.trace->DecodeAddrs(w.mem_seen, &mem_addrs_);
  } else {
    mem_addrs_.clear();
  }
  if (sel_.mem == MemModelKind::kCycleAccurate) {
    sc.ldst->Issue(slot, ins, mem_addrs_, now);
    return;
  }
  // Analytical memory path (paper §III-D2).
  const std::uint8_t sc_idx =
      static_cast<std::uint8_t>(slot % subcores_.size());
  sc.ana_ldst_next_issue =
      now + std::max(1u, kWarpSize / cfg_.ldst_units_per_sub_core);
  const std::uint8_t dst = IsLoad(ins.op) ? ins.dst : kNoReg;
  if (IsSharedMem(ins.op)) {
    const unsigned conflicts = smem_conflicts_.Conflicts(mem_addrs_);
    ++sc.ana_ldst_inflight;
    events_.push(Event{now + cfg_.shared_mem_latency + conflicts - 1, slot,
                       dst, sc_idx, true});
    return;
  }
  if (ins.op == Opcode::kLdConst) {
    ++sc.ana_ldst_inflight;
    events_.push(Event{now + 10, slot, dst, sc_idx, true});
    return;
  }
  const auto accesses = Coalesce(mem_addrs_, 4, cfg_.l1.line_bytes,
                                 cfg_.l1.sector_bytes);
  unsigned sectors = 0;
  for (const auto& a : accesses) sectors += PopCount(a.sector_mask);
  // Uncoalesced instructions inject one request per line; the LD/ST unit
  // serializes that injection — cycle-accurately tracked occupancy, like
  // the ALU hybrid's issue-interval term.
  const Cycle inject = CeilDiv(static_cast<unsigned>(accesses.size()),
                               cfg_.ldst_units_per_sub_core);
  sc.ana_ldst_next_issue = std::max<Cycle>(sc.ana_ldst_next_issue,
                                           now + inject);
  const KernelId kid = ctas_[warps_[slot].cta_slot].kernel_id;
  const double dram_frac = mem_model_->DramFraction(kid, ins.pc);
  const double l1_miss_frac = mem_model_->L1MissFraction(kid, ins.pc);
  const Cycle delay = contention_->Issue(
      static_cast<unsigned>(accesses.size()), sectors, l1_miss_frac,
      dram_frac, now);
  const Cycle base = IsLoad(ins.op)
                         ? mem_model_->LoadLatency(kid, ins.pc)
                         : mem_model_->StoreLatency();
  ++sc.ana_ldst_inflight;
  events_.push(Event{now + inject + delay + base, slot, dst, sc_idx, true});
}

void SmCore::IssueInstr(unsigned slot, Cycle now) {
  WarpContext& w = warps_[slot];
  const CompactInstr& ins = w.current();
  scoreboard_.OnIssue(slot, ins);
  const bool detailed_fe = sel_.frontend == FrontendKind::kDetailed;
  // An issuing warp is valid, unfinished and unexhausted; whether it
  // occupies the fetchable set depends only on its i-buffer fill.
  const bool was_fetchable = detailed_fe && w.ibuffer < 2;
  if (detailed_fe) {
    SS_DCHECK(w.ibuffer > 0);
    --w.ibuffer;
  }
  ++stats_.issued_instrs;
  conflict_paid_[slot] = 0;
  const UnitClass cls = ClassOf(ins.op);
  if (cls == UnitClass::kControl) {
    IssueControl(slot, ins);
  } else if (cls == UnitClass::kLdSt) {
    IssueMem(slot, ins, now);
  } else {
    IssueAlu(slot, ins, now);
  }
  if (ins.has_addrs()) ++w.mem_seen;
  ++w.next_instr;
  RefreshLive(slot);  // exit, barrier arrival or end of trace
  if (detailed_fe) {
    const bool now_fetchable =
        w.valid && !w.done && !w.exhausted() && w.ibuffer < 2;
    if (now_fetchable && !was_fetchable) ++fetchable_;
    if (!now_fetchable && was_fetchable) --fetchable_;
  }
}

void SmCore::FrontendTick(SubCore& sc, unsigned sc_idx, Cycle now) {
  const unsigned warps_per_sc = cfg_.warps_per_sub_core();
  const unsigned n_sc = static_cast<unsigned>(subcores_.size());
  unsigned local = sc.fetch_rr;
  for (unsigned i = 0; i < warps_per_sc;
       ++i, local = local + 1 == warps_per_sc ? 0 : local + 1) {
    const unsigned slot = local * n_sc + sc_idx;
    WarpContext& w = warps_[slot];
    if (!w.valid || w.done || w.exhausted() || w.ibuffer >= 2) continue;
    if (now < w.fetch_ready) {
      continue;  // i-cache miss in flight for this warp
    }
    if (w.ibuffer++ == 0) RefreshLive(slot);  // may rejoin the candidates
    w.fetch_count++;
    if (w.ibuffer >= 2) {
      SS_DCHECK(fetchable_ > 0);
      --fetchable_;  // i-buffer now full; refetchable after an issue
    }
    if (sel_.silicon_effects &&
        HashBernoulli(w.current().pc ^ (slot * 0x9e3779b97f4a7c15ull) ^
                          w.fetch_count,
                      cfg_.effects.icache_miss_rate)) {
      w.fetch_ready = now + cfg_.effects.icache_miss_penalty;
      stats_.icache_stall_cycles += cfg_.effects.icache_miss_penalty;
    }
    sc.fetch_rr = (local + 1) % warps_per_sc;
    break;  // one fetch per sub-core per cycle
  }
}

Cycle SmCore::FrontendNextWake(Cycle now) const {
  // Earliest cycle any sub-core can fetch: the gating mirrors FrontendTick
  // exactly — a warp is fetchable once valid, unfinished, with i-buffer
  // room, and past its i-cache stall. Until then FrontendTick is a no-op
  // (the fetch rotor only advances on an actual fetch), so the SM may
  // sleep through it without diverging from per-cycle ticking.
  if (fetchable_ == 0) return kNever;
  Cycle wake = kNever;
  for (const WarpContext& w : warps_) {
    if (!w.valid || w.done || w.exhausted() || w.ibuffer >= 2) continue;
    wake = std::min(wake, std::max(w.fetch_ready, now + 1));
    if (wake == now + 1) break;
  }
  return wake;
}

bool SmCore::Tick(Cycle now) {
  next_struct_wake_ = kNever;
  bool progressed = false;

  // 1. Retire due completion events (hybrid ALU / analytical memory).
  while (!events_.empty() && events_.top().cycle <= now) {
    const Event e = events_.top();
    events_.pop();
    Writeback(e.slot, e.dst);
    if (e.is_mem) {
      SubCore& sc = subcores_[e.subcore];
      SS_DCHECK(sc.ana_ldst_inflight > 0);
      --sc.ana_ldst_inflight;
    }
    progressed = true;
  }
  if (!events_.empty()) NoteWake(events_.top().cycle);

  // 2. Cycle-accurate memory path: L1 pipeline and LD/ST units.
  if (l1_) {
    l1_->BeginCycle(now);
    auto& resp = l1_->responses();
    while (!resp.empty()) {
      const MemResponse r = resp.front();
      resp.pop_front();
      bool routed = false;
      for (SubCore& sc : subcores_) {
        if (sc.ldst->OwnsRequest(r.id)) {
          sc.ldst->OnL1Response(r, now);
          routed = true;
          progressed = true;
          break;
        }
      }
      SS_CHECK(routed, "L1 response with no owning LD/ST unit");
    }
    for (SubCore& sc : subcores_) {
      // A unit with nothing to inject and no fixed completion due would
      // only clear a block reason that is already clear.
      if (sc.ldst->HasPendingInjections() ||
          sc.ldst->NextFixedCompletion() <= now) {
        sc.ldst->Tick(now);
      }
      NoteWake(sc.ldst->NextFixedCompletion());
    }
  }

  // 3. Execution pipelines (cycle-accurate ALU mode): shift stages and
  // retire writebacks, optionally gated by the silicon writeback bus.
  if (sel_.alu == AluModelKind::kCycleAccurate) {
    for (SubCore& sc : subcores_) {
      unsigned bus = sel_.silicon_effects ? cfg_.effects.writeback_bus_width
                                          : ~0u;
      for (ExecPipeline& pipe : sc.pipelines) {
        if (pipe.busy()) pipe.Tick(now);  // empty pipes have nothing to shift
        while (bus > 0 && !pipe.completions().empty()) {
          const Completion c = pipe.completions().front();
          pipe.completions().pop_front();
          Writeback(c.slot, c.dst);
          progressed = true;
          --bus;
        }
      }
      // Operand collection: bank arbitration (an idle collector has
      // nothing to arbitrate), then dispatch collected ops into their
      // (free) execution pipelines.
      if (sc.collector->busy()) sc.collector->Tick(now);
      auto& ready = sc.collector->ready();
      for (std::size_t i = 0; i < ready.size();) {
        ExecPipeline& pipe = PipelineFor(sc, ready[i].cls);
        if (pipe.CanIssue(now)) {
          pipe.Issue(ready[i].slot, ready[i].dst, now);
          ready.erase(i);  // order-preserving
        } else {
          ++i;
        }
      }
    }
  }

  // 4. Front-end fetch (detailed mode). With every live warp's i-buffer
  // full the scan cannot fetch anything — the fetchable counter makes
  // that common stalled-SM case free.
  if (sel_.frontend == FrontendKind::kDetailed && fetchable_ > 0) {
    for (unsigned sc = 0; sc < subcores_.size(); ++sc) {
      FrontendTick(subcores_[sc], sc, now);
    }
  }

  // 5. Issue: each sub-core's scheduler picks one warp per scheduler.
  const unsigned n_sc = static_cast<unsigned>(subcores_.size());
  bool issued_any = false;
  for (unsigned sc_idx = 0; sc_idx < n_sc; ++sc_idx) {
    SubCore& sc = subcores_[sc_idx];
    for (unsigned s = 0; s < cfg_.schedulers_per_sub_core; ++s) {
      auto ready = [&](unsigned local) {
        return WarpReady(local * n_sc + sc_idx, now);
      };
      auto age = [&](unsigned local) -> std::uint64_t {
        const WarpContext& w = warps_[local * n_sc + sc_idx];
        return w.valid ? w.launch_seq : ~std::uint64_t{0};
      };
      const unsigned pick = sc.scheduler->Pick(ready, age, sc.live);
      if (pick == kNoSlot) continue;
      const unsigned slot = pick * n_sc + sc_idx;
      // Silicon effect: operand-collector register-bank conflict costs an
      // extra cycle before issue, deterministically keyed on (pc, warp).
      if (sel_.silicon_effects && !conflict_paid_[slot] &&
          HashBernoulli(warps_[slot].current().pc ^ slot ^
                            (warps_[slot].next_instr * 0x2545f4914f6cdd1dull),
                        cfg_.effects.regbank_conflict_rate)) {
        conflict_paid_[slot] = 1;
        ++stats_.regbank_conflicts;
        NoteWake(now + 1);
        continue;
      }
      sc.scheduler->OnIssue(pick);
      IssueInstr(slot, now);
      issued_any = true;
      progressed = true;
    }
  }

  if (issued_any) {
    ++stats_.active_cycles;
  } else if (resident_warps_ > 0) {
    ++stats_.stall_cycles;
  }

  // Compute when this SM next needs a Tick (the NextWakeCycle contract,
  // DESIGN.md §9). An issue pins the next cycle: the issued warp's
  // successor instruction may be ready immediately, and warps behind the
  // pick in rotor order were never evaluated, so their wake hints are
  // missing. Progress WITHOUT an issue (responses routed, writebacks
  // retired) is different: every scheduler's Pick probed every candidate
  // warp to conclude nothing was issuable — after all state changes of
  // this tick had already landed — and the warps outside the candidate
  // sets fail WarpReady before recording any hint, so the hint set is
  // complete and the computed wake below is exact, letting the SM sleep
  // right after servicing.
  if (issued_any) {
    next_wake_ = now + 1;
    return true;
  }
  Cycle wake = next_struct_wake_;
  if (!events_.empty()) wake = std::min(wake, events_.top().cycle);
  // Capacity-blocked LD/ST retries are provably the same failing probe
  // until a fill or a miss-queue drain; in skip mode the driver re-checks
  // CapacityWakeDue each cycle and fills force a wake, so the per-cycle
  // retry pin is unnecessary and the SM may sleep through backpressure.
  // Hybrid-ALU drivers never run those checks, so they keep the pin.
  const bool capacity_sleep =
      sel_.alu == AluModelKind::kCycleAccurate && cycle_skip_;
  if (l1_) {
    wake = std::min(wake, std::max(l1_->NextResponseReady(), now + 1));
    for (SubCore& sc : subcores_) {
      if (sc.ldst->HasPendingInjections() &&
          !(capacity_sleep && sc.ldst->CapacityBlocked())) {
        wake = now + 1;  // must retry L1 accesses every cycle
        break;
      }
      wake = std::min(wake, sc.ldst->NextFixedCompletion());
    }
  }
  if (sel_.alu == AluModelKind::kCycleAccurate && wake > now + 1) {
    if (subcores_[0].scheduler->StatefulProbe()) {
      // Two-level scheduling mutates stall counters on every probe; an
      // elided Pick would diverge from the per-cycle reference loop.
      wake = now + 1;
    } else {
      // In-flight ALU work marches through pipeline registers and the
      // operand collector's bank arbitration every cycle.
      for (SubCore& sc : subcores_) {
        bool alu_busy = sc.collector->busy();
        for (const ExecPipeline& pipe : sc.pipelines) {
          if (alu_busy) break;
          alu_busy = !pipe.drained();
        }
        if (alu_busy) {
          wake = now + 1;
          break;
        }
      }
    }
  }
  if (sel_.frontend == FrontendKind::kDetailed && wake > now + 1) {
    wake = std::min(wake, FrontendNextWake(now));
  }
  next_wake_ = std::max(wake, now + 1);
  return progressed;
}

bool SmCore::Quiescent() const {
  if (!events_.empty()) return false;
  // Queued L1 misses are the memory system's to inject; the GPU model
  // counts them in MemQuiescent, so an SM left holding only those is
  // drained and stops ticking.
  if (l1_ && !l1_->drained_but_miss_queue()) return false;
  for (const SubCore& sc : subcores_) {
    if (sc.ldst && !sc.ldst->quiescent()) return false;
    if (sc.ana_ldst_inflight != 0) return false;
  }
  return true;
}

bool SmCore::Idle() const { return resident_warps_ == 0 && Quiescent(); }

void SmCore::DeliverResponse(const MemResponse& resp, Cycle now) {
  SS_CHECK(l1_ != nullptr,
           "DeliverResponse in analytical memory mode");
  l1_->Fill(resp, now);
  // The fill frees MSHR entries and updates tags, which can change the
  // outcome of an LD/ST injection on THIS cycle — the per-cycle reference
  // delivers before ticking — so an SM with an injection pending wakes
  // now. So does an SM already due, and one whose scheduler probe mutates
  // state (two-level), whose elided Pick would diverge. Otherwise nothing
  // this SM reads changed but the L1 latency pipe, whose new waiter
  // responses land at now + 1 at the earliest: the SM sleeps on, waking
  // no later than the first of them.
  const bool must_tick =
      next_wake_ <= now || subcores_[0].scheduler->StatefulProbe() ||
      std::any_of(subcores_.begin(), subcores_.end(), [](const SubCore& sc) {
        return sc.ldst->HasPendingInjections();
      });
  if (must_tick) {
    ForceWake();
    return;
  }
  next_wake_ = std::min(next_wake_,
                        std::max(now + 1, l1_->NextResponseReady()));
  slept_fill_ = now;
}

namespace {

const char* RejectName(CacheReject r) {
  switch (r) {
    case CacheReject::kNone:
      return "none";
    case CacheReject::kBank:
      return "l1.bank";
    case CacheReject::kResFail:
      return "l1.reservation";
    case CacheReject::kMshrFull:
      return "l1.mshr";
    case CacheReject::kOutFull:
      return "l1.miss_queue";
  }
  return "?";
}

// kNever would print as 2^64-1; dumps use -1 for "no scheduled wake".
long long JsonWake(Cycle wake) {
  return wake == kNever ? -1 : static_cast<long long>(wake);
}

}  // namespace

SmCore::StallInfo SmCore::DescribeStall() const {
  StallInfo info;
  // A capacity-blocked LD/ST unit gates every memory instruction behind
  // it; name it first.
  for (const SubCore& sc : subcores_) {
    if (sc.ldst && sc.ldst->CapacityBlocked()) {
      info.resource = RejectName(sc.ldst->blocked_reason());
      break;
    }
  }
  for (unsigned slot = 0; slot < warps_.size(); ++slot) {
    const WarpContext& w = warps_[slot];
    if (!w.valid || w.done) continue;
    if (info.warp < 0) info.warp = static_cast<int>(slot);
    const char* blocker = nullptr;
    if (w.at_barrier) {
      blocker = "barrier";
    } else if (scoreboard_.PendingCount(slot) > 0) {
      // Typically an outstanding memory response that never arrived.
      blocker = "scoreboard";
    }
    if (blocker != nullptr) {
      info.warp = static_cast<int>(slot);
      if (std::string_view(info.resource) == "none") info.resource = blocker;
      break;
    }
  }
  if (info.warp >= 0 && std::string_view(info.resource) == "none") {
    info.resource = "issue";
  }
  return info;
}

void SmCore::DumpState(std::ostream& os) const {
  const StallInfo stall = DescribeStall();
  os << "{\"sm\": " << id_ << ", \"resident_warps\": " << resident_warps_
     << ", \"next_wake\": " << JsonWake(next_wake_)
     << ", \"stall\": {\"warp\": " << stall.warp << ", \"resource\": \""
     << stall.resource << "\"}, \"warps\": [";
  bool first = true;
  for (unsigned slot = 0; slot < warps_.size(); ++slot) {
    const WarpContext& w = warps_[slot];
    if (!w.valid) continue;
    if (!first) os << ", ";
    first = false;
    os << "{\"slot\": " << slot << ", \"cta\": " << w.cta_slot
       << ", \"next_instr\": " << w.next_instr << ", \"trace_len\": "
       << (w.trace ? w.trace->size() : 0)
       << ", \"at_barrier\": " << (w.at_barrier ? "true" : "false")
       << ", \"done\": " << (w.done ? "true" : "false")
       << ", \"sb_pending\": " << scoreboard_.PendingCount(slot) << "}";
  }
  os << "], \"ldst\": [";
  first = true;
  for (const SubCore& sc : subcores_) {
    if (!sc.ldst) continue;
    if (!first) os << ", ";
    first = false;
    os << "{\"blocked\": \"" << RejectName(sc.ldst->blocked_reason())
       << "\", \"live\": " << sc.ldst->live_instrs() << "}";
  }
  os << "]";
  if (l1_) {
    os << ", \"l1\": {\"mshr\": " << l1_->mshr_occupancy()
       << ", \"miss_queue\": " << l1_->miss_queue_size()
       << ", \"pending_responses\": " << l1_->pending_response_count()
       << ", \"ready_responses\": " << l1_->ready_response_count() << "}";
  }
  os << "}";
}

}  // namespace swiftsim
