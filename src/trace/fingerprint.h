// Stable 128-bit structural fingerprints of kernel traces (DESIGN.md
// §10): the identity keys of the cross-launch memoization subsystem. Two
// kernels fingerprint equal iff their launch geometry and every variant's
// per-warp instruction stream (PCs, opcodes, registers, active masks,
// per-lane addresses) agree, so a fingerprint match licenses replaying a
// recorded simulation result. Hashing mixes only fixed-width values —
// never raw memory — so fingerprints are stable across platforms, runs
// and processes (they key the optional on-disk cache).
#pragma once

#include <cstdint>
#include <string>

namespace swiftsim {

class KernelTrace;  // trace/kernel.h, which caches its fingerprint
struct Application;

struct Fingerprint {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  bool operator==(const Fingerprint& o) const {
    return hi == o.hi && lo == o.lo;
  }
  bool operator!=(const Fingerprint& o) const { return !(*this == o); }
  bool operator<(const Fingerprint& o) const {
    return hi != o.hi ? hi < o.hi : lo < o.lo;
  }

  /// 32 hex digits, hi lane first.
  std::string ToHex() const;

  /// Folds both lanes into one well-mixed word (map keys, salts).
  std::uint64_t Fold() const;
};

/// Incremental two-lane hasher behind every fingerprint. Order-sensitive:
/// Mix(a), Mix(b) differs from Mix(b), Mix(a).
class FpHasher {
 public:
  void Mix(std::uint64_t v);

  /// Length-prefixed, so consecutive strings cannot alias each other.
  void MixString(const std::string& s);

  Fingerprint Digest() const;

 private:
  std::uint64_t hi_ = 0x5357494654534d31ull;  // arbitrary distinct seeds
  std::uint64_t lo_ = 0x46494e4745525052ull;
  std::uint64_t count_ = 0;
};

/// Structural fingerprint of one kernel: KernelInfo (including the id the
/// pre-pass profile is keyed by) plus every CTA variant's warp streams.
/// The first call on a trace object decodes and hashes its variant
/// storage (every lane address; about 2 ms for a service app at scale
/// 0.05) and caches the result in the object; every later call, from any
/// thread, is a load.
Fingerprint FingerprintKernel(const KernelTrace& kernel);

/// Fingerprint of a whole application: the kernel fingerprints chained in
/// launch order. Deliberately excludes the display name, so two apps with
/// identical launch sequences share pre-pass profile cache entries. Once
/// each distinct trace object has been hashed, O(kernels).
Fingerprint FingerprintApplication(const Application& app);

}  // namespace swiftsim
