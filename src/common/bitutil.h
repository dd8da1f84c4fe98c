// Bit-manipulation helpers used by caches, coalescers and address mappers,
// plus the index set behind the cycle-accurate driver's activity walks.
#pragma once

#include <bit>
#include <cstdint>
#include <type_traits>
#include <vector>

namespace swiftsim {

/// True iff v is a power of two (0 is not).
constexpr bool IsPow2(std::uint64_t v) { return v != 0 && (v & (v - 1)) == 0; }

/// log2 of a power of two.
constexpr unsigned Log2(std::uint64_t v) {
  return static_cast<unsigned>(std::bit_width(v) - 1);
}

/// Rounds v up to the next multiple of `align` (align must be pow2).
constexpr std::uint64_t AlignUp(std::uint64_t v, std::uint64_t align) {
  return (v + align - 1) & ~(align - 1);
}

/// Rounds v down to a multiple of `align` (align must be pow2).
constexpr std::uint64_t AlignDown(std::uint64_t v, std::uint64_t align) {
  return v & ~(align - 1);
}

/// Number of set bits.
constexpr unsigned PopCount(std::uint64_t v) {
  return static_cast<unsigned>(std::popcount(v));
}

/// Ceiling division for unsigned integers.
constexpr std::uint64_t CeilDiv(std::uint64_t a, std::uint64_t b) {
  return (a + b - 1) / b;
}

/// Mixes the bits of a 64-bit value (finalizer of splitmix64). Used for
/// deterministic pseudo-random decisions keyed on addresses/PCs.
constexpr std::uint64_t HashMix(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// Calls fn(i) for every set bit i (bit i lives in words[i / 64]) with
/// first <= i < last, in ascending order. Each word is loaded once, when
/// the walk reaches it: fn may insert or erase members, but a change to
/// the word being walked is not seen by this walk. fn returns void, or
/// bool where true stops the walk; the result is true iff fn stopped it.
template <typename Fn>
bool ForEachSetBit(const std::uint64_t* words, unsigned first, unsigned last,
                   Fn&& fn) {
  if (first >= last) return false;
  const unsigned last_word = (last - 1) >> 6;
  unsigned k = first >> 6;
  std::uint64_t w = words[k] & (~std::uint64_t{0} << (first & 63));
  for (;;) {
    if (k == last_word && (last & 63) != 0) {
      w &= (std::uint64_t{1} << (last & 63)) - 1;
    }
    while (w != 0) {
      const unsigned i = (k << 6) + static_cast<unsigned>(std::countr_zero(w));
      w &= w - 1;
      if constexpr (std::is_void_v<std::invoke_result_t<Fn&, unsigned>>) {
        fn(i);
      } else if (fn(i)) {
        return true;
      }
    }
    if (k == last_word) return false;
    w = words[++k];
  }
}

/// A set of indices in [0, size()), one bit each, 64 to a word. The
/// cycle-accurate driver keeps one per kind of component (SMs, NoC ports,
/// warp slots) holding the members that have work, and walks only those,
/// in the same ascending or rotor order a full scan would use.
class IndexSet {
 public:
  IndexSet() = default;
  explicit IndexSet(unsigned size) : size_(size), words_((size + 63) / 64) {}

  unsigned size() const { return size_; }
  bool Contains(unsigned i) const { return (words_[i >> 6] & Bit(i)) != 0; }
  void Insert(unsigned i) { words_[i >> 6] |= Bit(i); }
  void Erase(unsigned i) { words_[i >> 6] &= ~Bit(i); }
  void Assign(unsigned i, bool member) {
    if (member) {
      Insert(i);
    } else {
      Erase(i);
    }
  }
  void InsertAll() {
    for (unsigned i = 0; i < size_; ++i) Insert(i);
  }
  bool Empty() const {
    for (std::uint64_t w : words_) {
      if (w != 0) return false;
    }
    return true;
  }

  /// Members in [first, last), ascending (see ForEachSetBit).
  template <typename Fn>
  bool ForEach(unsigned first, unsigned last, Fn&& fn) const {
    return ForEachSetBit(words_.data(), first, last, fn);
  }
  template <typename Fn>
  bool ForEach(Fn&& fn) const {
    return ForEach(0, size_, fn);
  }
  /// Members in rotor order: start, start + 1, ..., size() - 1, 0, ...,
  /// start - 1. `start` may equal size() (then the walk starts at 0).
  template <typename Fn>
  bool ForEachFrom(unsigned start, Fn&& fn) const {
    return ForEach(start, size_, fn) || ForEach(0, start, fn);
  }

 private:
  static std::uint64_t Bit(unsigned i) { return std::uint64_t{1} << (i & 63); }

  unsigned size_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace swiftsim
