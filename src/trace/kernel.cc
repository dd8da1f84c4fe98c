#include "trace/kernel.h"

#include "common/status.h"

namespace swiftsim {

void KernelInfo::Validate() const {
  SS_CHECK(!name.empty(), "kernel name must be nonempty");
  SS_CHECK(num_ctas > 0, "kernel '" + name + "': grid must have >= 1 CTA");
  SS_CHECK(warps_per_cta > 0,
           "kernel '" + name + "': CTA must have >= 1 warp");
  SS_CHECK(threads_per_cta > 0 &&
               threads_per_cta <= warps_per_cta * kWarpSize,
           "kernel '" + name + "': threads_per_cta inconsistent with warps");
  SS_CHECK(regs_per_thread > 0,
           "kernel '" + name + "': regs_per_thread must be positive");
}

std::uint64_t TraceSource::TotalInstrs() const {
  std::uint64_t n = 0;
  for (CtaId c = 0; c < info().num_ctas; ++c) n += cta(c).dynamic_instrs();
  return n;
}

void TraceSource::ValidateCta(const KernelInfo& ki, const CtaTrace& ct,
                              CtaId label) {
  SS_CHECK(ct.warps.size() == ki.warps_per_cta,
           "kernel '" + ki.name + "' CTA " + std::to_string(label) +
               ": warp count mismatch");
  std::uint64_t first_warp_barriers = 0;
  for (std::size_t w = 0; w < ct.warps.size(); ++w) {
    const WarpTrace& wt = ct.warps[w];
    SS_CHECK(!wt.empty(), "kernel '" + ki.name + "': empty warp trace");
    std::uint64_t barriers = 0;
    WarpCursor cur(wt);
    LaneAddrs addrs;
    while (!cur.done()) {
      const bool last = cur.index() + 1 == wt.size();
      const CompactInstr& ins = cur.Next(&addrs);
      SS_CHECK(IsExit(ins.op) == last,
               "kernel '" + ki.name +
                   "': EXIT must appear exactly once, as the last "
                   "instruction of every warp");
      SS_CHECK(ins.active != 0,
               "kernel '" + ki.name + "': instruction with empty mask");
      if (IsMemory(ins.op)) {
        SS_CHECK(addrs.size() == ins.num_active(),
                 "kernel '" + ki.name +
                     "': memory op must carry one address per active lane");
      } else {
        SS_CHECK(addrs.empty(),
                 "kernel '" + ki.name +
                     "': non-memory op must carry no addresses");
      }
      if (IsBarrier(ins.op)) ++barriers;
    }
    if (w == 0) {
      first_warp_barriers = barriers;
    } else {
      SS_CHECK(barriers == first_warp_barriers,
               "kernel '" + ki.name + "' CTA " + std::to_string(label) +
                   ": warps disagree on barrier count (deadlock)");
    }
  }
}

void TraceSource::ValidateTrace() const {
  const KernelInfo& ki = info();
  ki.Validate();
  for (CtaId c = 0; c < ki.num_ctas; ++c) ValidateCta(ki, cta(c), c);
}

KernelTrace::KernelTrace(KernelInfo info, std::vector<CtaTrace> variants)
    : info_(std::move(info)), variants_(std::move(variants)) {
  SS_CHECK(!variants_.empty(), "KernelTrace needs at least one CTA variant");
  info_.Validate();
  // Per-variant counts are cached once here; with CTA i sharing variant
  // i % V the grid total is a closed form, not a grid walk.
  const std::uint64_t v_count = variants_.size();
  const std::uint64_t rounds = info_.num_ctas / v_count;
  const std::uint64_t rem = info_.num_ctas % v_count;
  total_instrs_ = 0;
  for (std::uint64_t v = 0; v < v_count; ++v) {
    const std::uint64_t n = variants_[v].dynamic_instrs();
    total_instrs_ += n * (rounds + (v < rem ? 1 : 0));
  }
}

void KernelTrace::ValidateTrace() const {
  info_.Validate();
  for (std::size_t v = 0; v < variants_.size(); ++v) {
    ValidateCta(info_, variants_[v], static_cast<CtaId>(v));
  }
}

std::uint64_t KernelTrace::TraceBytes() const {
  std::uint64_t bytes = 0;
  for (const CtaTrace& ct : variants_) {
    for (const WarpTrace& wt : ct.warps) bytes += wt.MemoryBytes();
  }
  return bytes;
}

void KernelTrace::ShrinkToFit() {
  for (CtaTrace& ct : variants_) {
    for (WarpTrace& wt : ct.warps) wt.ShrinkToFit();
  }
}

const CtaTrace& KernelTrace::cta(CtaId id) const {
  SS_CHECK(id < info_.num_ctas,
           "CTA id " + std::to_string(id) + " out of range for kernel '" +
               info_.name + "'");
  return variants_[id % variants_.size()];
}

std::uint64_t Application::TotalInstrs() const {
  std::uint64_t n = 0;
  for (const auto& k : kernels) n += k->TotalInstrs();
  return n;
}

}  // namespace swiftsim
