#include "trace/fingerprint.h"

#include <cstdio>
#include <mutex>

#include "common/bitutil.h"
#include "trace/kernel.h"

namespace swiftsim {

std::string Fingerprint::ToHex() const {
  char buf[33];
  std::snprintf(buf, sizeof buf, "%016llx%016llx",
                static_cast<unsigned long long>(hi),
                static_cast<unsigned long long>(lo));
  return std::string(buf);
}

std::uint64_t Fingerprint::Fold() const {
  return HashMix(hi ^ HashMix(lo));
}

void FpHasher::Mix(std::uint64_t v) {
  ++count_;
  hi_ = HashMix(hi_ ^ (v + 0x9e3779b97f4a7c15ull));
  lo_ = HashMix(lo_ + v * 0xff51afd7ed558ccdull + 0x2545f4914f6cdd1dull);
}

void FpHasher::MixString(const std::string& s) {
  Mix(s.size());
  std::uint64_t word = 0;
  unsigned shift = 0;
  for (const char c : s) {
    word |= static_cast<std::uint64_t>(static_cast<unsigned char>(c))
            << shift;
    shift += 8;
    if (shift == 64) {
      Mix(word);
      word = 0;
      shift = 0;
    }
  }
  if (shift != 0) Mix(word);
}

Fingerprint FpHasher::Digest() const {
  Fingerprint fp;
  fp.hi = HashMix(hi_ ^ count_);
  fp.lo = HashMix(lo_ + count_);
  return fp;
}

namespace {

// Mixes the same word sequence the AoS representation produced, so
// fingerprints (and everything memoized under them) survive the columnar
// refactor unchanged: pc widens losslessly from 32 bits, and the decoded
// lane addresses reproduce the original addrs vector.
void MixInstr(FpHasher& h, const CompactInstr& ins, const LaneAddrs& addrs) {
  h.Mix(ins.pc);
  h.Mix(static_cast<std::uint64_t>(ins.op) |
        (static_cast<std::uint64_t>(ins.dst) << 16) |
        (static_cast<std::uint64_t>(ins.src[0]) << 24) |
        (static_cast<std::uint64_t>(ins.src[1]) << 32) |
        (static_cast<std::uint64_t>(ins.src[2]) << 40));
  h.Mix(ins.active);
  h.Mix(addrs.size());
  for (const Addr a : addrs) h.Mix(a);
}

Fingerprint HashKernel(const KernelTrace& kernel) {
  FpHasher h;
  const KernelInfo& info = kernel.info();
  h.MixString(info.name);
  h.Mix(info.id);
  h.Mix(info.num_ctas);
  h.Mix(info.warps_per_cta);
  h.Mix(info.threads_per_cta);
  h.Mix(info.smem_bytes_per_cta);
  h.Mix(info.regs_per_thread);
  h.Mix(kernel.num_variants());
  for (std::size_t v = 0; v < kernel.num_variants(); ++v) {
    const CtaTrace& cta = kernel.variant(v);
    h.Mix(cta.warps.size());
    for (const WarpTrace& w : cta.warps) {
      h.Mix(w.size());
      WarpCursor cur(w);
      LaneAddrs addrs;
      while (!cur.done()) MixInstr(h, cur.Next(&addrs), addrs);
    }
  }
  return h.Digest();
}

}  // namespace

Fingerprint FingerprintKernel(const KernelTrace& kernel) {
  std::call_once(kernel.fp_once_, [&] { kernel.fp_ = HashKernel(kernel); });
  return kernel.fp_;
}

Fingerprint FingerprintApplication(const Application& app) {
  FpHasher h;
  h.Mix(app.kernels.size());
  for (const auto& kernel : app.kernels) {
    const Fingerprint fp = FingerprintKernel(*kernel);
    h.Mix(fp.hi);
    h.Mix(fp.lo);
  }
  return h.Digest();
}

}  // namespace swiftsim
