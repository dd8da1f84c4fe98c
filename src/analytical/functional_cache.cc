#include "analytical/functional_cache.h"

#include <algorithm>

#include "common/bitutil.h"
#include "common/status.h"

namespace swiftsim {

FunctionalCache::FunctionalCache(const CacheParams& params)
    : params_(params), sets_(params.num_sets()),
      line_shift_(Log2(params.line_bytes)),
      lines_(static_cast<std::size_t>(sets_) * params.assoc),
      count_(sets_, 0), set_hash_(sets_), is_changed_(sets_, 0) {
  SS_CHECK(IsPow2(params.line_bytes), "line size must be a power of two");
  changed_.reserve(sets_);
}

bool FunctionalCache::Touch(Addr line_addr, std::uint32_t sector_mask,
                            std::uint32_t* had) {
  // Plain modulo: aggregate caches (e.g. whole-chip L2) can have
  // non-power-of-two set counts.
  const unsigned set =
      static_cast<unsigned>((line_addr >> line_shift_) % sets_);
  Line* base = &lines_[static_cast<std::size_t>(set) * params_.assoc];
  unsigned& count = count_[set];
  unsigned w = 0;
  while (w < count && base[w].tag != line_addr) ++w;
  if (w < count) {
    const std::uint32_t sectors = base[w].sectors;
    *had = sectors;
    // A hit on the most recent line that adds no sector changes nothing.
    if (w == 0 && (sectors | sector_mask) == sectors) return true;
    std::copy_backward(base, base + w, base + w + 1);
    base[0] = Line{line_addr, sectors | sector_mask};
    MarkChanged(set);
    return true;
  }
  // Miss: fill an invalid way if any, else evict the least recent line.
  *had = 0;
  if (count < params_.assoc) ++count;
  std::copy_backward(base, base + count - 1, base + count);
  base[0] = Line{line_addr, sector_mask};
  MarkChanged(set);
  return false;
}

bool FunctionalCache::AccessLoad(Addr line_addr, std::uint32_t sector_mask) {
  ++accesses_;
  std::uint32_t had = 0;
  if (!Touch(line_addr, sector_mask, &had)) return false;  // now installed
  const bool hit = (sector_mask & ~had) == 0;
  if (hit) ++hits_;
  return hit;
}

void FunctionalCache::AccessStore(Addr line_addr, std::uint32_t sector_mask) {
  std::uint32_t had = 0;
  Touch(line_addr, sector_mask, &had);
}

void FunctionalCache::MarkChanged(unsigned set) {
  if (is_changed_[set]) return;
  is_changed_[set] = 1;
  changed_.push_back(set);
}

void FunctionalCache::Rehash(unsigned set) {
  // An empty set hashes to zero, so a fresh cache needs no hashing.
  Fingerprint fresh;
  if (count_[set] != 0) {
    FpHasher h;
    h.Mix(set);
    const Line* base = &lines_[static_cast<std::size_t>(set) * params_.assoc];
    for (unsigned w = 0; w < count_[set]; ++w) {
      h.Mix(base[w].tag);
      h.Mix(base[w].sectors);
    }
    fresh = h.Digest();
  }
  Fingerprint& old = set_hash_[set];
  sum_.hi += fresh.hi - old.hi;
  sum_.lo += fresh.lo - old.lo;
  old = fresh;
  is_changed_[set] = 0;
}

Fingerprint FunctionalCache::Signature() {
  for (const unsigned set : changed_) Rehash(set);
  changed_.clear();
  return sum_;
}

void FunctionalCache::SaveDelta(Delta* out) {
  out->sets.clear();
  out->sets.reserve(changed_.size());
  out->lines.clear();
  for (const unsigned set : changed_) {
    Rehash(set);
    const Line* base = &lines_[static_cast<std::size_t>(set) * params_.assoc];
    out->sets.push_back(SetState{set, count_[set], set_hash_[set]});
    out->lines.insert(out->lines.end(), base, base + count_[set]);
  }
  changed_.clear();
}

void FunctionalCache::RestoreDelta(const Delta& d) {
  const Line* src = d.lines.data();
  for (const SetState& s : d.sets) {
    std::copy(src, src + s.count,
              &lines_[static_cast<std::size_t>(s.set) * params_.assoc]);
    src += s.count;
    count_[s.set] = s.count;
    Fingerprint& old = set_hash_[s.set];
    sum_.hi += s.hash.hi - old.hi;
    sum_.lo += s.hash.lo - old.lo;
    old = s.hash;
  }
}

}  // namespace swiftsim
