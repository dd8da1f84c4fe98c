// Open-addressing hash map for the simulator hot path: one flat
// power-of-two array, linear probing, and tombstone-free backward-shift
// deletion, replacing node-based std::unordered_map in the MSHR, the
// cache pre-pass per-PC tables, and the reuse-distance profiler. With
// Reserve() sized from config (MSHR entries, cache lines) lookups touch
// one cache line and steady-state insert/erase never allocate
// (DESIGN.md §8).
//
// Iteration order is the probe-array order — deterministic for a fixed
// insert/erase history but unlike std::unordered_map's; only
// order-insensitive aggregations may iterate (the bit-identity suites
// gate this).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/bitutil.h"
#include "common/status.h"

namespace swiftsim {

/// Default hasher: splitmix64 finalizer over the integral key. Line
/// addresses and packed ids are low-entropy in the low bits, so the mix
/// matters for linear probing.
template <typename K>
struct FlatHash {
  static_assert(std::is_integral_v<K> || std::is_enum_v<K>,
                "FlatHash needs an integral key; supply a custom hasher");
  std::uint64_t operator()(const K& k) const {
    return HashMix(static_cast<std::uint64_t>(k));
  }
};

template <typename K, typename V, typename Hash = FlatHash<K>>
class FlatMap {
 public:
  /// Public aggregate so `for (auto& [key, value] : map)` keeps working at
  /// call sites converted from std::unordered_map.
  struct Item {
    K key{};
    V value{};
  };

  template <bool Const>
  class Iter {
   public:
    using MapT = std::conditional_t<Const, const FlatMap, FlatMap>;
    using ItemT = std::conditional_t<Const, const Item, Item>;
    Iter(MapT* m, std::size_t i) : m_(m), i_(i) { SkipEmpty(); }
    ItemT& operator*() const { return m_->slots_[i_]; }
    ItemT* operator->() const { return &m_->slots_[i_]; }
    Iter& operator++() {
      ++i_;
      SkipEmpty();
      return *this;
    }
    friend bool operator==(const Iter& a, const Iter& b) {
      return a.i_ == b.i_;
    }
    friend bool operator!=(const Iter& a, const Iter& b) {
      return a.i_ != b.i_;
    }

   private:
    void SkipEmpty() {
      while (i_ < m_->used_.size() && !m_->used_[i_]) ++i_;
    }
    MapT* m_;
    std::size_t i_;
  };
  using iterator = Iter<false>;
  using const_iterator = Iter<true>;

  FlatMap() = default;

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Pre-sizes so `n` live entries never trigger a rehash.
  void Reserve(std::size_t n) {
    std::size_t cap = kMinCapacity;
    while (cap * 3 < n * 4) cap *= 2;  // keep load factor <= 0.75
    if (cap > slots_.size()) Rehash(cap);
  }

  /// Drops all entries; keeps capacity.
  void clear() {
    if constexpr (!std::is_trivially_destructible_v<V>) {
      for (std::size_t i = 0; i < used_.size(); ++i) {
        if (used_[i]) slots_[i] = Item{};
      }
    }
    std::fill(used_.begin(), used_.end(), std::uint8_t{0});
    size_ = 0;
  }

  V* Find(const K& k) {
    const std::size_t i = FindSlot(k);
    return i == kNpos ? nullptr : &slots_[i].value;
  }
  const V* Find(const K& k) const {
    const std::size_t i = FindSlot(k);
    return i == kNpos ? nullptr : &slots_[i].value;
  }
  bool contains(const K& k) const { return FindSlot(k) != kNpos; }

  /// Inserts a default value if absent (like std::unordered_map).
  V& operator[](const K& k) {
    if (slots_.empty() || (size_ + 1) * 4 > slots_.size() * 3) {
      Rehash(slots_.empty() ? kMinCapacity : slots_.size() * 2);
    }
    const std::size_t i = Locate(k);
    return used_[i] ? slots_[i].value : InsertAt(i, k);
  }

  /// Backward-shift deletion: no tombstones, probe chains stay minimal
  /// under churn. Returns true iff the key was present.
  bool erase(const K& k) {
    const std::size_t i = FindSlot(k);
    if (i == kNpos) return false;
    EraseAt(i);
    return true;
  }

  // --- Bucket interface ----------------------------------------------------
  // For callers that hash a key once and then act on the answer (the MSHR
  // miss and fill paths). A bucket index stays valid until the next insert
  // or erase.

  /// The bucket holding `k`, or the empty bucket an insert of `k` would
  /// take. Requires a prior Reserve (the table is never empty).
  std::size_t Locate(const K& k) const {
    SS_DCHECK(!slots_.empty());
    std::size_t i = hash_(k) & mask();
    while (used_[i] && !(slots_[i].key == k)) i = (i + 1) & mask();
    return i;
  }
  bool Holds(std::size_t bucket) const { return used_[bucket] != 0; }
  V& ValueAt(std::size_t bucket) { return slots_[bucket].value; }
  const V& ValueAt(std::size_t bucket) const { return slots_[bucket].value; }

  /// Inserts `k` (value-initialized) into the empty bucket Locate(k)
  /// returned. Never rehashes: the caller's Reserve must cover the entry.
  V& InsertAt(std::size_t bucket, const K& k) {
    SS_DCHECK(!used_[bucket] && (size_ + 1) * 4 <= slots_.size() * 3);
    used_[bucket] = 1;
    slots_[bucket].key = k;
    slots_[bucket].value = V{};
    ++size_;
    return slots_[bucket].value;
  }

  /// Erases the entry in an occupied bucket (backward-shift deletion).
  void EraseAt(std::size_t bucket) {
    SS_DCHECK(used_[bucket]);
    std::size_t i = bucket;
    for (;;) {
      std::size_t j = i;
      for (;;) {
        j = (j + 1) & mask();
        if (!used_[j]) {
          used_[i] = 0;
          slots_[i] = Item{};  // release any resources held by the value
          --size_;
          return;
        }
        // Element at j may move back to the hole at i iff its ideal slot
        // is cyclically at-or-before i, i.e. its probe distance covers
        // the gap.
        const std::size_t ideal = hash_(slots_[j].key) & mask();
        if (((j - ideal) & mask()) >= ((j - i) & mask())) {
          slots_[i] = std::move(slots_[j]);
          i = j;
          break;
        }
      }
    }
  }

  iterator begin() { return iterator(this, 0); }
  iterator end() { return iterator(this, used_.size()); }
  const_iterator begin() const { return const_iterator(this, 0); }
  const_iterator end() const { return const_iterator(this, used_.size()); }

 private:
  static constexpr std::size_t kMinCapacity = 16;
  static constexpr std::size_t kNpos = ~std::size_t{0};

  std::size_t mask() const { return slots_.size() - 1; }

  std::size_t FindSlot(const K& k) const {
    if (slots_.empty()) return kNpos;
    const std::size_t i = Locate(k);
    return used_[i] ? i : kNpos;
  }

  void Rehash(std::size_t new_cap) {
    SS_DCHECK(IsPow2(new_cap));
    std::vector<Item> old_slots = std::move(slots_);
    std::vector<std::uint8_t> old_used = std::move(used_);
    slots_.assign(new_cap, Item{});
    used_.assign(new_cap, 0);
    for (std::size_t i = 0; i < old_used.size(); ++i) {
      if (!old_used[i]) continue;
      std::size_t j = hash_(old_slots[i].key) & mask();
      while (used_[j]) j = (j + 1) & mask();
      used_[j] = 1;
      slots_[j] = std::move(old_slots[i]);
    }
  }

  std::vector<Item> slots_;           // power-of-two capacity
  std::vector<std::uint8_t> used_;    // 1 = slot holds a live entry
  std::size_t size_ = 0;
  [[no_unique_address]] Hash hash_;
};

}  // namespace swiftsim
