// Kernel launch metadata and the TraceSource abstraction consumed by all
// simulators (paper §III-A: the Trace Parser output format).
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/types.h"
#include "trace/fingerprint.h"
#include "trace/instr.h"

namespace swiftsim {

/// Static launch parameters of one kernel.
struct KernelInfo {
  std::string name = "kernel";
  KernelId id = 0;
  std::uint32_t num_ctas = 1;          // grid size, linearized
  std::uint32_t warps_per_cta = 1;
  std::uint32_t threads_per_cta = 32;  // == warps_per_cta * 32 unless ragged
  std::uint32_t smem_bytes_per_cta = 0;
  std::uint32_t regs_per_thread = 32;

  /// Throws SimError if internally inconsistent.
  void Validate() const;
};

/// The instruction streams of all warps of one CTA.
struct CtaTrace {
  std::vector<WarpTrace> warps;

  std::uint64_t dynamic_instrs() const {
    std::uint64_t n = 0;
    for (const auto& w : warps) n += w.size();
    return n;
  }
};

/// Streaming interface between the trace frontend and the performance
/// model. Because real GPU grids run many identical CTAs, implementations
/// may back several CTA ids with shared variant storage; callers must treat
/// the returned reference as immutable and alive as long as the source.
class TraceSource {
 public:
  virtual ~TraceSource() = default;

  virtual const KernelInfo& info() const = 0;

  /// The trace of CTA `id`; id < info().num_ctas.
  virtual const CtaTrace& cta(CtaId id) const = 0;

  /// Total dynamic instruction count across the whole grid. Implementations
  /// with shared variant storage override this with a build-time cached
  /// count instead of re-walking the grid on every call.
  virtual std::uint64_t TotalInstrs() const;

  /// Validates structural invariants of the whole trace: every warp ends
  /// with EXIT exactly once, barrier counts agree across the warps of each
  /// CTA, memory ops carry exactly one address per active lane, non-memory
  /// ops carry none. Throws SimError on the first violation.
  /// Implementations backed by shared variants override this to validate
  /// each distinct variant once instead of every CTA id.
  virtual void ValidateTrace() const;

 protected:
  /// Validates one CTA's warps against `ki` (shared by both overrides).
  static void ValidateCta(const KernelInfo& ki, const CtaTrace& ct,
                          CtaId label);
};

/// Fully materialized kernel trace with CTA-variant sharing: CTA `i` is
/// backed by variant `i % variants.size()`. Immutable once published (the
/// owner may ShrinkToFit first), so its fingerprint is hashed once, on
/// first use, and cached here; neither copyable nor movable.
class KernelTrace : public TraceSource {
 public:
  KernelTrace(KernelInfo info, std::vector<CtaTrace> variants);

  const KernelInfo& info() const override { return info_; }
  const CtaTrace& cta(CtaId id) const override;

  /// Cached at construction: no per-call grid walk (benches, memo, reports
  /// all hit this repeatedly).
  std::uint64_t TotalInstrs() const override { return total_instrs_; }

  /// Validates each distinct variant once — O(variants), not O(grid).
  void ValidateTrace() const override;

  std::size_t num_variants() const { return variants_.size(); }
  const CtaTrace& variant(std::size_t v) const { return variants_.at(v); }

  /// Bytes of columnar trace storage across all variants.
  std::uint64_t TraceBytes() const;

  /// Releases every WarpTrace column's build-time growth slack. Changes no
  /// content but reallocates the columns, so call it before the trace is
  /// shared with other threads.
  void ShrinkToFit();

 private:
  friend Fingerprint FingerprintKernel(const KernelTrace& kernel);

  KernelInfo info_;
  std::vector<CtaTrace> variants_;
  std::uint64_t total_instrs_ = 0;  // sum over the grid, variant-shared
  // Computed lazily: hashing decodes every lane address and costs more
  // than building the trace, which runs that never key a cache by the
  // print should not pay.
  mutable std::once_flag fp_once_;
  mutable Fingerprint fp_;
};

/// A named, loaded application: a sequence of kernels launched in order.
struct Application {
  std::string name;
  std::vector<std::shared_ptr<KernelTrace>> kernels;

  std::uint64_t TotalInstrs() const;
};

}  // namespace swiftsim
