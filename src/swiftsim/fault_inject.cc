#include "swiftsim/fault_inject.h"

#include <algorithm>

#include "common/rng.h"
#include "common/status.h"
#include "common/strutil.h"
#include "sim/sm.h"  // kNever

namespace swiftsim {
namespace {

// Site tags keep the decision streams of different fault axes unrelated
// even when they hash the same (sm, position) pair.
constexpr std::uint64_t kSiteDelay = 0xde1a1ull;
constexpr std::uint64_t kSiteDrop = 0xd20bull;
constexpr std::uint64_t kSiteFreeze = 0xf2ee2eull;
constexpr std::uint64_t kSiteStorm = 0x5702ull;
constexpr std::uint64_t kSiteTruncate = 0x7241cull;
constexpr std::uint64_t kSiteCorrupt = 0xc0221ull;

std::uint64_t Mix(std::uint64_t a, std::uint64_t b, std::uint64_t c) {
  // splitmix-style avalanche over the packed key; Rng's own seeding adds a
  // second round, so nearby (a, b, c) triples give unrelated streams.
  std::uint64_t x = a * 0x9e3779b97f4a7c15ull + b;
  x ^= x >> 31;
  x = x * 0xbf58476d1ce4e5b9ull + c;
  return x ^ (x >> 29);
}

double PlanRoll(std::uint64_t seed, std::uint64_t site, std::uint64_t a,
                std::uint64_t b) {
  return Rng(seed ^ Mix(site, a, b)).NextDouble();
}

void CheckProb(double p, const char* name) {
  SS_CHECK(p >= 0 && p <= 1,
           std::string("fault plan: ") + name + " must be in [0, 1]");
}

}  // namespace

void FaultPlan::Validate() const {
  CheckProb(resp_delay_p, "resp_delay_p");
  CheckProb(resp_drop_p, "resp_drop_p");
  CheckProb(issue_stall_p, "issue_stall_p");
  CheckProb(storm_p, "storm_p");
  CheckProb(trace_truncate_p, "trace_truncate_p");
  CheckProb(trace_corrupt_p, "trace_corrupt_p");
  SS_CHECK(resp_delay_p == 0 || resp_delay_cycles > 0,
           "fault plan: resp_delay_p needs resp_delay_cycles > 0");
  SS_CHECK(issue_stall_p == 0 || issue_stall_cycles > 0,
           "fault plan: issue_stall_p needs issue_stall_cycles > 0");
  SS_CHECK(storm_p == 0 || storm_cycles > 0,
           "fault plan: storm_p needs storm_cycles > 0");
  SS_CHECK(resp_drop_p == 0 || resp_max_drops == 0 || resp_retry_cycles > 0,
           "fault plan: bounded resp_drop_p needs resp_retry_cycles > 0");
}

FaultPlan FaultPlan::FromIni(const IniFile& ini) {
  FaultPlan plan;
  plan.name = ini.GetString("fault.name", plan.name);
  plan.seed = ini.GetUint("fault.seed", plan.seed);
  plan.resp_delay_p = ini.GetDouble("fault.resp_delay_p", plan.resp_delay_p);
  plan.resp_delay_cycles =
      ini.GetUint("fault.resp_delay_cycles", plan.resp_delay_cycles);
  plan.resp_drop_p = ini.GetDouble("fault.resp_drop_p", plan.resp_drop_p);
  plan.resp_retry_cycles =
      ini.GetUint("fault.resp_retry_cycles", plan.resp_retry_cycles);
  if (ini.Has("fault.resp_max_drops")) {
    plan.resp_max_drops = ParseUnsigned(ini.GetString("fault.resp_max_drops"),
                                        "fault.resp_max_drops");
  }
  plan.issue_stall_p = ini.GetDouble("fault.issue_stall_p", plan.issue_stall_p);
  plan.issue_stall_cycles =
      ini.GetUint("fault.issue_stall_cycles", plan.issue_stall_cycles);
  plan.storm_p = ini.GetDouble("fault.storm_p", plan.storm_p);
  plan.storm_cycles = ini.GetUint("fault.storm_cycles", plan.storm_cycles);
  plan.trace_truncate_p =
      ini.GetDouble("fault.trace_truncate_p", plan.trace_truncate_p);
  plan.trace_corrupt_p =
      ini.GetDouble("fault.trace_corrupt_p", plan.trace_corrupt_p);
  plan.Validate();
  return plan;
}

FaultPlan FaultPlan::FromFile(const std::string& path) {
  return FromIni(IniFile::ParseFile(path));
}

FaultInjector::FaultInjector(const FaultPlan& plan, unsigned num_sms)
    : plan_(plan), held_(num_sms) {
  plan_.Validate();
}

double FaultInjector::Roll(std::uint64_t site, std::uint64_t a,
                           std::uint64_t b) const {
  return PlanRoll(plan_.seed, site, a, b);
}

bool FaultInjector::OnResponse(SmId sm, const MemResponse& resp, Cycle now) {
  // Drop takes precedence over delay: a response can only be in one kind of
  // custody, and drops are the harsher fault.
  if (plan_.resp_drop_p > 0 &&
      Roll(kSiteDrop, sm, resp.id) < plan_.resp_drop_p) {
    Held h;
    h.resp = resp;
    h.drops = 1;
    h.due = plan_.resp_max_drops == 0 ? kNever : now + plan_.resp_retry_cycles;
    held_[sm].push_back(h);
    held_count_.fetch_add(1, std::memory_order_acq_rel);
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  if (plan_.resp_delay_p > 0 &&
      Roll(kSiteDelay, sm, resp.id) < plan_.resp_delay_p) {
    Held h;
    h.resp = resp;
    h.due = now + plan_.resp_delay_cycles;
    held_[sm].push_back(h);
    held_count_.fetch_add(1, std::memory_order_acq_rel);
    delayed_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  return true;
}

void FaultInjector::CollectDue(SmId sm, Cycle now,
                               std::vector<MemResponse>* out) {
  auto& list = held_[sm];
  if (list.empty()) return;
  std::size_t kept = 0;
  for (std::size_t i = 0; i < list.size(); ++i) {
    Held& h = list[i];
    if (h.due > now) {
      list[kept++] = h;
      continue;
    }
    // Due. A dropped response re-rolls the drop (attempt-indexed so the
    // stream differs per retry) until the bound is exhausted.
    if (h.drops > 0 && h.drops < plan_.resp_max_drops &&
        Roll(kSiteDrop, sm, h.resp.id + (std::uint64_t{h.drops} << 48)) <
            plan_.resp_drop_p) {
      ++h.drops;
      h.due = now + plan_.resp_retry_cycles;
      dropped_.fetch_add(1, std::memory_order_relaxed);
      list[kept++] = h;
      continue;
    }
    out->push_back(h.resp);
    redelivered_.fetch_add(1, std::memory_order_relaxed);
    held_count_.fetch_sub(1, std::memory_order_acq_rel);
  }
  list.resize(kept);
}

bool FaultInjector::FreezeIssue(SmId sm, Cycle now) {
  if (plan_.issue_stall_p <= 0) return false;
  const Cycle window = now / plan_.issue_stall_cycles;
  if (Roll(kSiteFreeze, sm, window) < plan_.issue_stall_p) {
    freezes_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  return false;
}

bool FaultInjector::StormActive(Cycle now) {
  if (plan_.storm_p <= 0) return false;
  const Cycle window = now / plan_.storm_cycles;
  return Roll(kSiteStorm, 0, window) < plan_.storm_p;
}

Cycle FaultInjector::NextDueAfter(Cycle now) const {
  Cycle earliest = kNever;
  for (const auto& list : held_) {
    for (const Held& h : list) {
      if (h.due == kNever) continue;
      // An already-due entry is collected on the next tick — the calendar
      // must not jump past it.
      earliest = std::min(earliest, h.due <= now ? now + 1 : h.due);
    }
  }
  return earliest;
}

namespace {

/// Drops non-barrier, non-exit body instructions from `warp`, keeping every
/// other survivor (deterministic, no RNG state threaded through).
WarpTrace TruncateWarp(const WarpTrace& warp) {
  WarpTrace out;
  out.reserve(warp.size() / 2 + 2);
  std::size_t body_idx = 0;
  WarpCursor cur(warp);
  while (!cur.done()) {
    TraceInstr ins = cur.NextDecoded();
    if (IsBarrier(ins.op) || IsExit(ins.op)) {
      out.push_back(std::move(ins));
      continue;
    }
    if ((body_idx++ & 1) == 0) out.push_back(std::move(ins));
  }
  return out;
}

}  // namespace

Application InjectTraceFaults(const Application& app, const FaultPlan& plan) {
  if (!plan.AnyTrace()) return app;
  Application out;
  out.name = app.name;
  out.kernels.reserve(app.kernels.size());
  for (std::size_t k = 0; k < app.kernels.size(); ++k) {
    const KernelTrace& kernel = *app.kernels[k];
    const bool truncate =
        plan.trace_truncate_p > 0 &&
        PlanRoll(plan.seed, kSiteTruncate, k, 0) < plan.trace_truncate_p;
    const bool corrupt =
        plan.trace_corrupt_p > 0 &&
        PlanRoll(plan.seed, kSiteCorrupt, k, 0) < plan.trace_corrupt_p;
    if (!truncate && !corrupt) {
      out.kernels.push_back(app.kernels[k]);
      continue;
    }
    std::vector<CtaTrace> variants;
    variants.reserve(kernel.num_variants());
    for (std::size_t v = 0; v < kernel.num_variants(); ++v) {
      CtaTrace cta;
      cta.warps.reserve(kernel.variant(v).warps.size());
      for (const WarpTrace& warp : kernel.variant(v).warps) {
        cta.warps.push_back(truncate ? TruncateWarp(warp) : warp);
      }
      variants.push_back(std::move(cta));
    }
    if (corrupt && !variants.empty() && !variants[0].warps.empty()) {
      // Structural corruption: an instruction after the final EXIT breaks
      // the "ends with EXIT exactly once" invariant, so validation below
      // rejects the record the way a torn trace file would be rejected.
      variants[0].warps[0].push_back(TraceInstr{});
    }
    auto rebuilt =
        std::make_shared<KernelTrace>(kernel.info(), std::move(variants));
    try {
      rebuilt->ValidateTrace();
    } catch (const SimError& e) {
      throw SimError("fault plan '" + plan.name + "': corrupted trace for "
                     "kernel '" + kernel.info().name + "' rejected at "
                     "ingestion: " + e.what());
    }
    out.kernels.push_back(std::move(rebuilt));
  }
  return out;
}

}  // namespace swiftsim
