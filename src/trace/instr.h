// One dynamic warp instruction as recorded in a trace, plus the columnar
// storage that holds whole warp streams (DESIGN.md §14).
//
// Storage is split into three columns per warp:
//   - a dense 16-byte CompactInstr record per instruction (pc, op, regs,
//     active mask) — the only thing the issue hot path touches;
//   - a byte-offset table with one entry per address-carrying instruction;
//   - a shared address pool where each entry is varint(count) followed by
//     zigzag-varint lane-address deltas.
// Only memory instructions pay for addresses, and coalescer-friendly runs
// (unit-stride, broadcast) compress to one or two bytes per lane.
// TraceInstr remains the AoS interchange form used by builders, text I/O
// and tests; WarpTrace::push_back encodes it and Decode reconstructs it.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "common/bitutil.h"
#include "common/inline_vec.h"
#include "common/types.h"
#include "trace/isa.h"

namespace swiftsim {

/// Register number sentinel for "no register".
inline constexpr std::uint8_t kNoReg = 0xff;

/// Per-active-lane addresses of one warp memory instruction. Bounded by
/// kWarpSize, so the storage is always inline — building one never heap
/// allocates.
using LaneAddrs = InlineVec<Addr, kWarpSize>;

/// A dynamic instruction executed by one warp. Memory instructions carry
/// one address per *active* lane, in ascending lane order (compact form —
/// inactive lanes have no entry).
struct TraceInstr {
  Pc pc = 0;
  Opcode op = Opcode::kIAdd;
  std::uint8_t dst = kNoReg;              // destination register or kNoReg
  std::array<std::uint8_t, 3> src = {kNoReg, kNoReg, kNoReg};
  LaneMask active = kFullMask;
  LaneAddrs addrs;                // memory ops only; |addrs| == popcount(active)

  unsigned num_active() const { return PopCount(active); }
  bool has_dst() const { return dst != kNoReg; }

  bool operator==(const TraceInstr& o) const {
    return pc == o.pc && op == o.op && dst == o.dst && src == o.src &&
           active == o.active && addrs == o.addrs;
  }
};

/// Dense per-instruction record of the columnar trace core. Everything the
/// scheduler, scoreboard and operand collector read lives here; lane
/// addresses live in the warp's side pool and are decoded on demand.
/// `pc` is stored as 32 bits — trace PCs are code offsets, and the encoder
/// rejects anything wider — and widens losslessly wherever a Pc (uint64)
/// is expected, so every hash and comparison sees the same value the AoS
/// form produced.
struct CompactInstr {
  std::uint32_t pc = 0;
  LaneMask active = kFullMask;
  Opcode op = Opcode::kIAdd;
  std::uint8_t dst = kNoReg;              // destination register or kNoReg
  std::array<std::uint8_t, 3> src = {kNoReg, kNoReg, kNoReg};
  std::uint8_t flags = 0;                 // bit 0: carries a pool entry
  std::uint16_t reserved = 0;

  static constexpr std::uint8_t kHasAddrs = 1u << 0;

  unsigned num_active() const { return PopCount(active); }
  bool has_dst() const { return dst != kNoReg; }
  bool has_addrs() const { return flags & kHasAddrs; }
};

static_assert(sizeof(CompactInstr) == 16,
              "CompactInstr must stay a dense 16-byte record");
static_assert(sizeof(Opcode) == 1, "Opcode must fit the compact record");

/// The dynamic instruction stream of one warp, stored columnar. Read access
/// returns CompactInstr records; addresses are decoded per memory-op rank
/// (the count of address-carrying instructions before a given index), which
/// sequential walkers maintain incrementally — see WarpCursor.
class WarpTrace {
 public:
  using value_type = CompactInstr;
  using const_iterator = const CompactInstr*;

  WarpTrace() = default;

  /// Encodes one AoS instruction onto the end of the stream. Throws
  /// SimError if the pc does not fit 32 bits.
  void push_back(const TraceInstr& ins);

  /// Direct builder entry points — generators emit compact records without
  /// constructing a TraceInstr at all.
  void EmitScalar(Pc pc, Opcode op, std::uint8_t dst,
                  const std::array<std::uint8_t, 3>& src, LaneMask active);
  void EmitMem(Pc pc, Opcode op, std::uint8_t dst,
               const std::array<std::uint8_t, 3>& src, LaneMask active,
               const LaneAddrs& addrs);

  std::size_t size() const { return instrs_.size(); }
  bool empty() const { return instrs_.empty(); }
  const CompactInstr& operator[](std::size_t i) const { return instrs_[i]; }
  const CompactInstr& front() const { return instrs_.front(); }
  const CompactInstr& back() const { return instrs_.back(); }
  const_iterator begin() const { return instrs_.data(); }
  const_iterator end() const { return instrs_.data() + instrs_.size(); }

  void reserve(std::size_t n) { instrs_.reserve(n); }
  void clear();

  /// Releases the growth slack of all three columns (capacity == size).
  void ShrinkToFit() {
    instrs_.shrink_to_fit();
    mem_off_.shrink_to_fit();
    pool_.shrink_to_fit();
  }

  /// Number of address-carrying instructions (== mem-offset table size).
  std::uint32_t num_addr_entries() const {
    return static_cast<std::uint32_t>(mem_off_.size());
  }

  /// Decodes the addresses of the `mem_rank`-th address-carrying
  /// instruction into `out` (cleared first). Returns the lane count.
  /// Throws SimError on a malformed pool (out-of-range offset, truncated
  /// varint, oversized count) — reachable only via FromColumns input.
  unsigned DecodeAddrs(std::uint32_t mem_rank, LaneAddrs* out) const;

  /// Memory-op rank of instruction `index`: how many address-carrying
  /// instructions precede it. O(index) — cold paths only.
  std::uint32_t MemRankAt(std::size_t index) const;

  /// Reconstructs the AoS form of instruction `index`. O(index) due to the
  /// rank scan — cold paths (text I/O, fault injection, tests) only.
  TraceInstr Decode(std::size_t index) const;

  /// Bytes of backing storage across all three columns.
  std::uint64_t MemoryBytes() const {
    return instrs_.size() * sizeof(CompactInstr) +
           mem_off_.size() * sizeof(std::uint32_t) + pool_.size();
  }

  // Raw column access for the binary trace cache (trace_io).
  const std::vector<CompactInstr>& records() const { return instrs_; }
  const std::vector<std::uint32_t>& addr_offsets() const { return mem_off_; }
  const std::vector<std::uint8_t>& addr_pool() const { return pool_; }

  /// Rebuilds a warp from raw columns (trace cache load). Verifies that the
  /// flags column matches the offset table, offsets are in-range and
  /// monotonic, and every pool entry decodes within bounds with count <=
  /// kWarpSize; throws SimError otherwise.
  static WarpTrace FromColumns(std::vector<CompactInstr> records,
                               std::vector<std::uint32_t> offsets,
                               std::vector<std::uint8_t> pool);

  bool operator==(const WarpTrace& o) const;

 private:
  std::vector<CompactInstr> instrs_;
  std::vector<std::uint32_t> mem_off_;  // byte offset into pool_ per entry
  std::vector<std::uint8_t> pool_;      // varint(count) + zigzag deltas
};

/// Sequential reader over a columnar warp stream that maintains the
/// memory-op rank, so address decode is O(lanes) with no per-instruction
/// scan. The shape all linear walkers (pre-pass, reuse-distance, stats,
/// fingerprint, text writer) share.
class WarpCursor {
 public:
  explicit WarpCursor(const WarpTrace& trace) : trace_(&trace) {}

  bool done() const { return next_ >= trace_->size(); }
  std::size_t index() const { return next_; }
  const CompactInstr& peek() const { return (*trace_)[next_]; }

  /// Decodes the current record's lane addresses without advancing
  /// (cleared first; empty for non-memory ops). Returns the lane count.
  unsigned PeekAddrs(LaneAddrs* out) const {
    if (!peek().has_addrs()) {
      out->clear();
      return 0;
    }
    return trace_->DecodeAddrs(mem_rank_, out);
  }

  /// Returns the current record and steps past it. If `addrs_out` is
  /// non-null it receives the record's lane addresses (cleared first;
  /// empty for non-memory ops).
  const CompactInstr& Next(LaneAddrs* addrs_out = nullptr) {
    const CompactInstr& ins = (*trace_)[next_++];
    if (addrs_out != nullptr) {
      if (ins.has_addrs()) {
        trace_->DecodeAddrs(mem_rank_, addrs_out);
      } else {
        addrs_out->clear();
      }
    }
    if (ins.has_addrs()) ++mem_rank_;
    return ins;
  }

  /// Reconstructs the current record's AoS form and steps past it.
  TraceInstr NextDecoded() {
    TraceInstr out;
    LaneAddrs addrs;
    const CompactInstr& ins = Next(&addrs);
    out.pc = ins.pc;
    out.op = ins.op;
    out.dst = ins.dst;
    out.src = ins.src;
    out.active = ins.active;
    out.addrs = std::move(addrs);
    return out;
  }

 private:
  const WarpTrace* trace_;
  std::size_t next_ = 0;
  std::uint32_t mem_rank_ = 0;
};

}  // namespace swiftsim
