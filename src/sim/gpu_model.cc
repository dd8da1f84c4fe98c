#include "sim/gpu_model.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string_view>
#include <system_error>

#include "common/status.h"

namespace swiftsim {

GpuModel::GpuModel(const GpuConfig& cfg, const ModelSelection& selection,
                   const MemProfile* profile, const ModelSettings& settings)
    : cfg_(cfg), sel_(selection), settings_(settings) {
  cfg_.Validate();
  l2_drain_attempts_ =
      cfg_.l2_drain_attempts != 0 ? cfg_.l2_drain_attempts : cfg_.l2.banks;
  wd_enabled_ = settings_.watchdog.stall_cycles != 0 ||
                settings_.watchdog.wall_seconds > 0;
  if (sel_.mem == MemModelKind::kAnalytical) {
    SS_CHECK(profile != nullptr,
             "analytical memory mode requires a MemProfile (run the cache "
             "pre-pass first)");
    mem_model_ = std::make_unique<AnalyticalMemModel>(cfg_, profile);
  } else {
    addrmap_ = std::make_unique<AddrMap>(cfg_.num_mem_partitions,
                                         cfg_.l2.line_bytes);
    noc_ = std::make_unique<Interconnect>(cfg_.num_sms,
                                          cfg_.num_mem_partitions, cfg_.noc,
                                          cfg_.l2.sector_bytes);
    CacheParams l2_params = cfg_.l2;
    DramConfig dram_params = cfg_.dram;
    if (sel_.silicon_effects) {
      l2_params.latency += cfg_.effects.l2_latency_extra;
      dram_params.latency += cfg_.effects.dram_latency_extra;
      dram_params.row_hit_latency += cfg_.effects.dram_latency_extra / 2;
    }
    l2_.reserve(cfg_.num_mem_partitions);
    dram_.reserve(cfg_.num_mem_partitions);
    for (unsigned p = 0; p < cfg_.num_mem_partitions; ++p) {
      l2_.push_back(std::make_unique<SectorCache>(
          "l2." + std::to_string(p), l2_params, 1000 + p));
      dram_.push_back(std::make_unique<DramChannel>(
          dram_params, cfg_.l2.sector_bytes, cfg_.effects,
          sel_.silicon_effects));
    }
  }
  partition_next_.assign(l2_.size(), 0);
  active_sms_ = IndexSet(cfg_.num_sms);
  l1_miss_sms_ = IndexSet(cfg_.num_sms);
  sms_.reserve(cfg_.num_sms);
  for (unsigned s = 0; s < cfg_.num_sms; ++s) {
    sms_.push_back(std::make_unique<SmCore>(
        cfg_, sel_, s, mem_model_.get(),
        [this](SmId) { scheduler_.OnCtaComplete(); }, settings_));
  }
  RegisterMetrics();
}

void GpuModel::RegisterMetrics() {
  for (const auto& sm : sms_) RegisterSmMetrics(gatherer_, *sm);
  for (std::size_t p = 0; p < l2_.size(); ++p) {
    const std::string mod = "l2." + std::to_string(p);
    const CacheStats* st = &l2_[p]->stats();
    gatherer_.Register(mod, "accesses", &st->accesses);
    gatherer_.Register(mod, "hits", &st->hits);
    gatherer_.Register(mod, "misses", &st->misses);
    gatherer_.Register(mod, "sector_misses", &st->sector_misses);
    gatherer_.Register(mod, "reservation_fails", &st->reservation_fails);
    gatherer_.Register(mod, "mshr_stalls", &st->mshr_stalls);
    gatherer_.Register(mod, "writebacks", &st->writebacks);
  }
  for (std::size_t p = 0; p < dram_.size(); ++p) {
    const std::string mod = "dram." + std::to_string(p);
    const DramStats* st = &dram_[p]->stats();
    gatherer_.Register(mod, "reads", &st->reads);
    gatherer_.Register(mod, "writes", &st->writes);
    gatherer_.Register(mod, "row_hits", &st->row_hits);
    gatherer_.Register(mod, "bytes", &st->bytes);
  }
  gatherer_.Register("driver", "cycles_skipped", &skip_.cycles_skipped);
  gatherer_.Register("driver", "skip_jumps", &skip_.jumps);
  gatherer_.Register("driver", "sm_ticks_saved", &skip_.sm_ticks_saved);
  for (unsigned k = 0; k < SkipStats::kHistBuckets; ++k) {
    gatherer_.Register("driver",
                       "skip_span_ge_" + std::to_string(1u << k),
                       &skip_.span_hist[k]);
  }
  if (noc_) {
    gatherer_.Register("noc.req", "injected",
                       &noc_->request_stats().injected);
    gatherer_.Register("noc.req", "bytes", &noc_->request_stats().bytes);
    gatherer_.Register("noc.req", "inject_stalls",
                       &noc_->request_stats().inject_stalls);
    gatherer_.Register("noc.resp", "injected",
                       &noc_->response_stats().injected);
    gatherer_.Register("noc.resp", "bytes", &noc_->response_stats().bytes);
  }
}

bool GpuModel::MemQuiescent() const {
  // Responses in fault-injection custody are still in flight: completion
  // and cycle skipping must both wait for (or wedge on) them.
  if (fault_ && fault_->AnyHeld()) return false;
  if (noc_ && !noc_->quiescent()) return false;
  for (const auto& l2 : l2_) {
    if (!l2->quiescent()) return false;
  }
  for (const auto& d : dram_) {
    if (!d->quiescent()) return false;
  }
  // Uninjected requests (e.g. stores, which mint no MSHR entry) live only
  // in the L1 miss queues; without this the model could report
  // quiescence while traffic is still in flight.
  return l1_miss_sms_.Empty();
}

bool GpuModel::AllQuiescent() const {
  // SMs outside active_sms_ were found drained and stay so until their
  // next CTA launch, which re-inserts them.
  const bool sm_busy = active_sms_.ForEach(
      [&](unsigned i) { return !sms_[i]->Quiescent(); });
  return !sm_busy && MemQuiescent();
}

bool GpuModel::TickSmRange(unsigned first, unsigned last, Cycle now) {
  const bool mem_ca = sel_.mem == MemModelKind::kCycleAccurate;
  const bool never_jump = sel_.alu == AluModelKind::kCycleAccurate;
  // With cycle skipping enabled the wake gate applies in every mode: a
  // sleeping SM's tick would be a no-op, so eliding it is exact. With it
  // disabled, cycle-accurate ALU modes keep the per-cycle reference
  // behavior (tick every active SM) — the --no-skip A/B baseline.
  const bool tick_all = never_jump && !settings_.cycle_skip;
  const bool account_skips = never_jump && settings_.cycle_skip;
  bool progressed = false;
  std::vector<MemResponse> due;  // fault-injection redeliveries only
  // Only SMs that received a CTA and have not been found drained since are
  // visited. Skipping the others is exact: a drained SM stays drained until
  // its next LaunchCta, and it holds no MSHR entry, so no NoC response or
  // fault-held response can be owed to it.
  active_sms_.ForEach(first, last, [&](unsigned i) {
    SmCore& sm = *sms_[i];
    ScopedSimContext::SetSm(static_cast<int>(i));
    if (mem_ca) {
      if (fault_) {
        // Held responses whose delay or retry expired re-enter here, in
        // custody order, before the cycle's fresh deliveries.
        due.clear();
        fault_->CollectDue(sm.id(), now, &due);
        for (const MemResponse& r : due) {
          sm.DeliverResponse(r, now);
          progressed = true;
        }
      }
      auto& resps = noc_->responses_at(sm.id());
      while (!resps.empty()) {
        if (fault_ != nullptr) {
          const MemResponse r = resps.front();
          resps.pop_front();
          if (fault_->OnResponse(sm.id(), r, now)) {
            sm.DeliverResponse(r, now);
          }
          // Taking custody still changed state; count it as progress so
          // the driver keeps ticking toward the redelivery cycle.
          progressed = true;
          continue;
        }
        sm.DeliverResponse(resps.front(), now);
        resps.pop_front();
        progressed = true;
      }
    }
    // Event-driven fast path: a sleeping SM is skipped until its next
    // wake cycle; this is exact, not an approximation, because nothing it
    // owns can change state before then. An SM sleeping through L1
    // miss-queue backpressure wakes as soon as the queue drains below
    // capacity (CapacityWakeDue) — the fullness it sees here is exactly
    // what its retry would have seen, since only TickSharedMemory of the
    // previous cycle changes the queue occupancy.
    if (sm.Active()) {
      if (fault_ && fault_->FreezeIssue(sm.id(), now)) {
        // Issue frozen by the fault plan: the SM is not ticked at all.
        // Responses above were still delivered, so a thaw resumes cleanly.
      } else if (tick_all || sm.NextWake() <= now ||
                 (account_skips && sm.CapacityWakeDue())) {
        progressed |= sm.Tick(now);
      } else if (account_skips) {
        // The per-cycle reference would have ticked this SM, counted a
        // stall, and re-failed any capacity-blocked injection; keep the
        // metrics bit-identical.
        sm.AccountSkippedCycles(1);
      }
    } else {
      active_sms_.Erase(i);
    }
    // Only this SM's LD/ST accesses and fill evictions, both made during
    // the visit above, push onto its L1 miss queue.
    if (mem_ca && sm.l1()->miss_queue_size() != 0) l1_miss_sms_.Insert(i);
  });
  ScopedSimContext::SetSm(-1);
  return progressed;
}

void GpuModel::TickSharedMemory(Cycle now) {
  // A fault-plan backpressure storm stalls the two drain points (L1 miss
  // queues → NoC, NoC → L2); the queues behind them fill and the
  // resulting queue-full rejections propagate all the way up to the LD/ST
  // units, exactly like a congested interconnect.
  const bool storm = fault_ && fault_->StormActive(now);
  // L1 miss queues drain into the request network in SM order, stopping
  // per SM on the first rejection.
  if (!storm) {
    l1_miss_sms_.ForEach([&](unsigned s) {
      auto& mq = sms_[s]->l1()->miss_queue();
      while (!mq.empty()) {
        const unsigned p = addrmap_->PartitionOf(mq.front().line_addr);
        if (!noc_->InjectRequest(s, p, mq.front())) break;
        mq.pop_front();
      }
      if (mq.empty()) l1_miss_sms_.Erase(s);
    });
  }
  noc_->Tick(now);
  for (unsigned p = 0; p < cfg_.num_mem_partitions; ++p) {
    // A partition's state changes only here and through NoC ejection into
    // its request queue. Until its recorded event, with that queue empty,
    // its tick would be a no-op (DramChannel::NextEventAfter includes the
    // refresh edges), so it is skipped.
    auto& rq = noc_->requests_at(p);
    if (now < partition_next_[p] && rq.empty()) continue;
    SectorCache& l2 = *l2_[p];
    l2.BeginCycle(now);
    // Ejected requests into the L2 slice (its banks limit throughput).
    unsigned attempts = storm ? 0 : l2_drain_attempts_;
    while (!rq.empty() && attempts-- > 0) {
      if (!l2.Access(rq.front(), now)) break;
      rq.pop_front();
    }
    // L2 load responses ride the response network back.
    auto& resp = l2.responses();
    while (!resp.empty()) {
      if (!noc_->InjectResponse(p, resp.front())) break;
      resp.pop_front();
    }
    // L2 misses and writebacks go to this partition's DRAM channel.
    auto& mq = l2.miss_queue();
    while (!mq.empty()) {
      if (!dram_[p]->Enqueue(mq.front())) break;
      mq.pop_front();
    }
    dram_[p]->Tick(now);
    auto& dresp = dram_[p]->responses();
    while (!dresp.empty()) {
      l2.Fill(dresp.front(), now);
      dresp.pop_front();
    }
    partition_next_[p] =
        std::min(l2.NextEventAfter(now), dram_[p]->NextEventAfter(now));
  }
}

void GpuModel::BeginKernel(const KernelTrace& kernel) {
  const KernelInfo& info = kernel.info();
  current_kernel_ = &kernel;
  SS_CHECK(sms_[0]->allocator().Feasible(info),
           "kernel '" + info.name + "' cannot fit on an SM of " + cfg_.name);
  if (sel_.silicon_effects) now_ += cfg_.effects.kernel_launch_overhead;
  const unsigned active_sms =
      std::min<unsigned>(cfg_.num_sms, info.num_ctas);
  for (auto& sm : sms_) sm->OnKernelStart(active_sms);
  scheduler_.StartKernel(&kernel);
  if (wd_enabled_) {
    // Re-arm the stall window per kernel and start the wall budget at the
    // model's first launch (the budget covers the whole application run).
    wd_last_sig_ = ProgressSignature();
    wd_next_check_ = now_ + settings_.watchdog.stall_cycles;
    if (!wall_armed_ && settings_.watchdog.wall_seconds > 0) {
      using Clock = std::chrono::steady_clock;
      const Clock::time_point start = Clock::now();
      const std::chrono::duration<double> budget(
          settings_.watchdog.wall_seconds);
      // A budget past the clock's range never expires; converting it
      // would overflow into a deadline in the past.
      if (budget < Clock::time_point::max() - start) {
        wall_armed_ = true;
        wall_deadline_ =
            start + std::chrono::duration_cast<Clock::duration>(budget);
      }
    }
  }
}

Cycle GpuModel::MinNextWake() const {
  Cycle wake = kNever;
  active_sms_.ForEach([&](unsigned i) {
    if (sms_[i]->Active()) wake = std::min(wake, sms_[i]->NextWake());
  });
  return wake;
}

Cycle GpuModel::MemNextEventAfter(Cycle now) const {
  if (!noc_) return kNever;
  // Queued L1 misses retry injection every cycle.
  if (!l1_miss_sms_.Empty()) return now + 1;
  Cycle ev = noc_->NextEventAfter(now);
  if (fault_) {
    // Held responses redeliver at their due cycle; a never-due hold
    // contributes no event, deliberately wedging the calendar so the
    // watchdog (or the wedge check) trips instead of skipping past it.
    ev = std::min(ev, fault_->NextDueAfter(now));
  }
  for (const auto& l2 : l2_) {
    if (ev <= now + 1) return now + 1;
    ev = std::min(ev, l2->NextEventAfter(now));
  }
  for (const auto& d : dram_) {
    if (ev <= now + 1) return now + 1;
    ev = std::min(ev, d->NextEventAfter(now));
  }
  return ev;
}

void GpuModel::FastForward(Cycle skipped) {
  if (skipped == 0) return;
  // Replay exactly what the per-cycle reference loop would have done over
  // the elided span. The calendar proved every component tick is a no-op,
  // so the only state to advance is per-call (not per-event) bookkeeping:
  // the NoC arbitration rotors, the block scheduler's starting-SM rotor,
  // and per-SM stall accounting.
  if (noc_) noc_->FastForward(skipped);
  scheduler_.OnCyclesSkipped(skipped, cfg_.num_sms);
  active_sms_.ForEach([&](unsigned i) {
    if (sms_[i]->Active()) {
      sms_[i]->AccountSkippedCycles(skipped);
      skip_.sm_ticks_saved += skipped;
    }
  });
  skip_.cycles_skipped += skipped;
  ++skip_.jumps;
  unsigned bucket = 0;
  for (Cycle span = skipped;
       span > 1 && bucket + 1 < SkipStats::kHistBuckets; span >>= 1) {
    ++bucket;
  }
  ++skip_.span_hist[bucket];
}

Cycle GpuModel::RunKernel(const KernelTrace& kernel) {
  const Cycle start = now_;
  ScopedSimContext ctx(kernel.info().name.c_str(), &now_);
  BeginKernel(kernel);

  const bool mem_ca = sel_.mem == MemModelKind::kCycleAccurate;
  const bool never_jump = sel_.alu == AluModelKind::kCycleAccurate;
  const bool skip = never_jump && settings_.cycle_skip;

  while (!KernelDone()) {
    AssignPendingCtas();
    const bool progressed = TickSmRange(0, cfg_.num_sms, now_);
    bool mem_busy = false;
    if (mem_ca) {
      TickSharedMemory(now_);
      mem_busy = !MemQuiescent();
    }
    if (wd_enabled_) WatchdogPoll(now_);
    if (skip) {
      // Event-calendar cycle skipping (DESIGN.md §9): on a no-progress
      // cycle, jump straight to the earliest SM or memory-system event.
      // Bit-identical to per-cycle ticking because every elided tick is
      // provably a no-op (and FastForward replays per-call rotors).
      if (!progressed) {
        if (KernelDone()) {
          // This tick reached quiescence; the per-cycle reference loop
          // still advances the clock past it before exiting. Without this
          // check a standing calendar entry (e.g. the silicon DRAM
          // refresh edge) would draw a phantom jump after completion.
          ++now_;
          break;
        }
        Cycle wake = MinNextWake();
        if (mem_ca) wake = std::min(wake, MemNextEventAfter(now_));
        if (wake == kNever) ThrowWedged(now_);
        if (wake > now_ + 1) {
          FastForward(wake - now_ - 1);
          now_ = wake;
          continue;
        }
      }
      ++now_;
      continue;
    }
    if (never_jump || progressed || mem_busy) {
      ++now_;
      continue;
    }
    // Hybrid fast-forward: nothing can change until the earliest future
    // event, so jumping there is exact, not an approximation.
    const Cycle wake = MinNextWake();
    if (wake == kNever) {
      if (!KernelDone()) ThrowWedged(now_);
      break;
    }
    now_ = std::max(now_ + 1, wake);
  }
  return now_ - start;
}

SimResult GpuModel::RunApplication(const Application& app) {
  SimResult result;
  result.app = app.name;
  result.kernels.reserve(app.kernels.size());
  const auto t0 = std::chrono::steady_clock::now();
  for (const auto& kernel : app.kernels) {
    const std::uint64_t instrs_before = TotalIssuedInstrs();
    const Cycle cycles = RunKernel(*kernel);
    KernelResult kr;
    kr.name = kernel->info().name;
    kr.cycles = cycles;
    kr.instructions = TotalIssuedInstrs() - instrs_before;
    result.kernels.push_back(kr);
  }
  const auto t1 = std::chrono::steady_clock::now();
  result.total_cycles = now_;
  result.instructions = TotalIssuedInstrs();
  result.wall_seconds =
      std::chrono::duration<double>(t1 - t0).count();
  result.metrics = gatherer_.Snapshot();
  return result;
}

std::uint64_t GpuModel::TotalIssuedInstrs() const {
  std::uint64_t sum = 0;
  for (const auto& sm : sms_) sum += sm->stats().issued_instrs;
  return sum;
}

std::uint64_t GpuModel::ProgressSignature() const {
  // Any forward progress moves at least one of these monotone counters:
  // instruction retirement on an SM, traffic entering either NoC network,
  // L2 activity (accesses or fills) or DRAM service. A frozen sum across a
  // full watchdog window therefore means the machine is spinning without
  // retiring or draining anything — livelock.
  std::uint64_t sig = TotalIssuedInstrs();
  if (noc_) {
    sig += noc_->request_stats().injected + noc_->response_stats().injected;
    for (const auto& l2 : l2_) sig += l2->stats().accesses + l2->stats().fills;
    for (const auto& ch : dram_) sig += ch->stats().reads + ch->stats().writes;
  }
  return sig;
}

void GpuModel::WatchdogPoll(Cycle now) {
  if (settings_.watchdog.stall_cycles != 0 && now >= wd_next_check_) {
    const std::uint64_t sig = ProgressSignature();
    if (sig == wd_last_sig_ && !KernelDone()) {
      const std::string dump = WriteDiagnosticDump("no_forward_progress", now);
      std::ostringstream msg;
      msg << "watchdog: no forward progress for "
          << settings_.watchdog.stall_cycles << " cycles";
      if (current_kernel_) {
        msg << " in kernel '" << current_kernel_->info().name << "'";
      }
      msg << " at cycle " << now;
      if (!dump.empty()) msg << " (diagnostic dump: " << dump << ")";
      throw SimHangError(SimHangError::Kind::kNoProgress, msg.str(), dump);
    }
    wd_last_sig_ = sig;
    wd_next_check_ = now + settings_.watchdog.stall_cycles;
  }
  if (wall_armed_ && (++wd_poll_count_ & 0xFFFu) == 0 &&
      std::chrono::steady_clock::now() > wall_deadline_) {
    const std::string dump = WriteDiagnosticDump("wall_clock_budget", now);
    std::ostringstream msg;
    msg << "watchdog: wall-clock budget of "
        << settings_.watchdog.wall_seconds << "s expired";
    if (current_kernel_) {
      msg << " in kernel '" << current_kernel_->info().name << "'";
    }
    msg << " at cycle " << now;
    if (!dump.empty()) msg << " (diagnostic dump: " << dump << ")";
    throw SimHangError(SimHangError::Kind::kWallClock, msg.str(), dump);
  }
}

void GpuModel::ThrowWedged(Cycle now) {
  const std::string dump = WriteDiagnosticDump("wedged", now);
  std::ostringstream msg;
  msg << "simulation wedged: no progress and no future events";
  if (current_kernel_) {
    msg << " in kernel '" << current_kernel_->info().name << "'";
  }
  msg << " at cycle " << now;
  if (!dump.empty()) msg << " (diagnostic dump: " << dump << ")";
  throw SimHangError(SimHangError::Kind::kWedged, msg.str(), dump);
}

std::string GpuModel::WriteDiagnosticDump(const std::string& reason,
                                          Cycle now) const {
  if (settings_.watchdog.dump_dir.empty()) return "";
  std::error_code ec;
  std::filesystem::create_directories(settings_.watchdog.dump_dir, ec);
  if (ec) return "";
  // One dump per (kernel, cycle) is unique within a run; the reason keeps
  // files self-describing when a directory collects several.
  std::ostringstream fname;
  fname << "hang_" << reason << "_cycle" << now << ".json";
  const std::filesystem::path path =
      std::filesystem::path(settings_.watchdog.dump_dir) / fname.str();
  std::ofstream os(path);
  if (!os) return "";

  // Pick the first SM with a named blocking resource as the headline
  // "stalled" entry so triage starts from a concrete (sm, warp, resource).
  int stalled_sm = -1;
  SmCore::StallInfo stalled{};
  for (const auto& sm : sms_) {
    if (!sm->Active()) continue;
    const SmCore::StallInfo info = sm->DescribeStall();
    if (std::string_view(info.resource) != "none") {
      stalled_sm = static_cast<int>(sm->id());
      stalled = info;
      break;
    }
  }

  os << "{\n  \"reason\": \"" << reason << "\",\n";
  os << "  \"kernel\": \""
     << (current_kernel_ ? current_kernel_->info().name : "") << "\",\n";
  os << "  \"cycle\": " << now << ",\n";
  os << "  \"stalled\": {\"sm\": " << stalled_sm
     << ", \"warp\": " << stalled.warp << ", \"resource\": \""
     << stalled.resource << "\"},\n";

  const Cycle sm_wake = MinNextWake();
  const Cycle mem_wake = MemNextEventAfter(now);
  os << "  \"next_wake\": {\"sm\": "
     << (sm_wake == kNever ? -1 : static_cast<long long>(sm_wake))
     << ", \"mem\": "
     << (mem_wake == kNever ? -1 : static_cast<long long>(mem_wake))
     << "},\n";

  os << "  \"sms\": [";
  bool first = true;
  for (const auto& sm : sms_) {
    if (!sm->Active()) continue;
    if (!first) os << ",";
    first = false;
    os << "\n    ";
    sm->DumpState(os);
  }
  os << "\n  ],\n";

  os << "  \"mem\": {";
  if (noc_) {
    os << "\n    \"noc\": {\"request_occupancy\": "
       << noc_->request_occupancy()
       << ", \"response_occupancy\": " << noc_->response_occupancy() << "},";
    os << "\n    \"l2\": [";
    for (std::size_t i = 0; i < l2_.size(); ++i) {
      if (i) os << ", ";
      os << "{\"mshr\": " << l2_[i]->mshr_occupancy()
         << ", \"miss_queue\": " << l2_[i]->miss_queue_size()
         << ", \"pending_responses\": " << l2_[i]->pending_response_count()
         << ", \"ready_responses\": " << l2_[i]->ready_response_count()
         << "}";
    }
    os << "],";
    os << "\n    \"dram\": [";
    for (std::size_t i = 0; i < dram_.size(); ++i) {
      if (i) os << ", ";
      os << "{\"queued\": " << dram_[i]->queue_size()
         << ", \"in_service\": " << dram_[i]->in_service_size()
         << ", \"ready\": " << dram_[i]->ready_size() << "}";
    }
    os << "],";
    os << "\n    \"l1_miss_queues\": [";
    for (std::size_t i = 0; i < sms_.size(); ++i) {
      if (i) os << ", ";
      os << sms_[i]->l1()->miss_queue_size();
    }
    os << "]\n  ";
  }
  os << "},\n";
  os << "  \"faults_held\": " << (fault_ && fault_->AnyHeld() ? "true" : "false")
     << "\n}\n";
  return path.string();
}

std::uint64_t GpuModel::TotalReservationFails() const {
  // Accel-Sim's RESERVATION_FAIL umbrella covers line-allocation failures
  // AND MSHR entry/merge failures; count both, at both levels.
  std::uint64_t sum = 0;
  for (const auto& sm : sms_) {
    if (const CacheStats* l1 = sm->l1_stats()) {
      sum += l1->reservation_fails + l1->mshr_stalls;
    }
  }
  for (const auto& l2 : l2_) {
    sum += l2->stats().reservation_fails + l2->stats().mshr_stalls;
  }
  return sum;
}

}  // namespace swiftsim
