#include "config/gpu_config.h"

#include <charconv>
#include <string_view>
#include <type_traits>

#include "common/bitutil.h"
#include "common/status.h"
#include "common/strutil.h"
#include "config/ini.h"

namespace swiftsim {

std::string ToString(SchedPolicy p) {
  switch (p) {
    case SchedPolicy::kGto:
      return "gto";
    case SchedPolicy::kLrr:
      return "lrr";
    case SchedPolicy::kTwoLevel:
      return "two_level";
  }
  return "?";
}

SchedPolicy SchedPolicyFromString(const std::string& s) {
  const std::string t = ToLower(s);
  if (t == "gto") return SchedPolicy::kGto;
  if (t == "lrr") return SchedPolicy::kLrr;
  if (t == "two_level") return SchedPolicy::kTwoLevel;
  throw SimError("unknown scheduler policy '" + s + "'");
}

std::string ToString(ReplacementPolicy p) {
  switch (p) {
    case ReplacementPolicy::kLru:
      return "lru";
    case ReplacementPolicy::kFifo:
      return "fifo";
    case ReplacementPolicy::kRandom:
      return "random";
  }
  return "?";
}

ReplacementPolicy ReplacementPolicyFromString(const std::string& s) {
  const std::string t = ToLower(s);
  if (t == "lru") return ReplacementPolicy::kLru;
  if (t == "fifo") return ReplacementPolicy::kFifo;
  if (t == "random") return ReplacementPolicy::kRandom;
  throw SimError("unknown replacement policy '" + s + "'");
}

std::string ToString(WritePolicy p) {
  switch (p) {
    case WritePolicy::kWriteThrough:
      return "write_through";
    case WritePolicy::kWriteBack:
      return "write_back";
  }
  return "?";
}

WritePolicy WritePolicyFromString(const std::string& s) {
  const std::string t = ToLower(s);
  if (t == "write_through") return WritePolicy::kWriteThrough;
  if (t == "write_back") return WritePolicy::kWriteBack;
  throw SimError("unknown write policy '" + s + "'");
}

GpuConfig::GpuConfig() {
  // The l1 member's defaults describe an L1; adjust the l2 member to a
  // write-back, non-streaming slice with L2-class parameters.
  l2.size_bytes = 256 * 1024;
  l2.assoc = 16;
  l2.banks = 2;
  l2.mshr_entries = 192;
  l2.mshr_max_merge = 4;
  l2.write_policy = WritePolicy::kWriteBack;
  l2.streaming = false;
  l2.latency = 156;
}

namespace {

/// Validation errors name the offending field and nothing else: they reach
/// users through config files and daemon requests, so unlike SS_CHECK they
/// carry no source location.
void Require(bool ok, const std::string& msg) {
  if (!ok) throw SimError("invalid config: " + msg);
}

void ValidateCache(const CacheParams& c, const std::string& which) {
  Require(IsPow2(c.line_bytes), which + ": line size must be a power of two");
  Require(IsPow2(c.sector_bytes),
          which + ": sector size must be a power of two");
  Require(c.sector_bytes <= c.line_bytes && c.line_bytes % c.sector_bytes == 0,
          which + ": line must be a whole number of sectors");
  Require(c.assoc > 0, which + ": associativity must be positive");
  Require(c.size_bytes % (static_cast<std::uint64_t>(c.line_bytes) * c.assoc)
              == 0,
          which + ": size must be a multiple of line*assoc");
  Require(IsPow2(c.num_sets()), which + ": set count must be a power of two");
  Require(c.banks > 0 && IsPow2(c.banks),
          which + ": bank count must be a positive power of two");
  Require(c.mshr_entries > 0, which + ": need at least one MSHR entry");
  Require(c.mshr_max_merge > 0, which + ": MSHR merge limit must be positive");
  Require(c.latency > 0, which + ": latency must be positive");
}

void ValidateExecUnit(const ExecUnitConfig& u, const std::string& which) {
  Require(u.lanes > 0, which + ": lanes must be positive");
  Require(u.latency > 0, which + ": latency must be positive");
}

}  // namespace

void GpuConfig::Validate() const {
  Require(num_sms > 0, "num_sms must be positive");
  Require(sub_cores_per_sm > 0, "sub_cores_per_sm must be positive");
  Require(max_warps_per_sm > 0, "max_warps_per_sm must be positive");
  Require(max_warps_per_sm % sub_cores_per_sm == 0,
          "max_warps_per_sm must divide evenly across sub-cores");
  Require(max_ctas_per_sm > 0, "max_ctas_per_sm must be positive");
  Require(max_threads_per_sm >= kWarpSize,
          "max_threads_per_sm must hold at least one warp");
  Require(max_threads_per_sm / kWarpSize >= 1 &&
              max_warps_per_sm <= max_threads_per_sm / kWarpSize,
          "max_warps_per_sm exceeds thread capacity");
  Require(registers_per_sm > 0, "registers_per_sm must be positive");
  Require(schedulers_per_sub_core > 0,
          "schedulers_per_sub_core must be positive");
  ValidateExecUnit(int_unit, "int_unit");
  ValidateExecUnit(sp_unit, "sp_unit");
  ValidateExecUnit(dp_unit, "dp_unit");
  ValidateExecUnit(sfu_unit, "sfu_unit");
  ValidateExecUnit(tensor_unit, "tensor_unit");
  Require(ldst_units_per_sub_core > 0,
          "ldst_units_per_sub_core must be positive");
  Require(ldst_queue_depth > 0, "ldst_queue_depth must be positive");
  ValidateCache(l1, "l1");
  ValidateCache(l2, "l2");
  Require(l1.line_bytes == l2.line_bytes,
          "L1 and L2 line sizes must match (sector-request protocol)");
  Require(l1.sector_bytes == l2.sector_bytes,
          "L1 and L2 sector sizes must match");
  Require(num_mem_partitions > 0, "num_mem_partitions must be positive");
  Require(noc.bytes_per_cycle > 0, "noc bandwidth must be positive");
  Require(noc.input_queue_depth > 0 && noc.output_queue_depth > 0,
          "noc queue depths must be positive");
  Require(dram.bytes_per_cycle > 0, "dram bandwidth must be positive");
  Require(dram.latency >= dram.row_hit_latency,
          "dram closed-row latency must be >= row-hit latency");
  Require(dram.queue_depth > 0, "dram queue depth must be positive");
  Require(dram.row_bytes > 0, "dram row_bytes must be positive");
  Require(effects.writeback_bus_width > 0,
          "effects writeback_bus_width must be positive");
  Require(effects.dram_refresh_interval > 0,
          "effects dram_refresh_interval must be positive");
  Require(shared_mem_banks > 0, "shared_mem_banks must be positive");
}

namespace {

// The one list of INI keys: every GpuConfig field once, as
// v("section.key", field), in canonical (ToIniString) order. FromIni,
// ToIniString and IniKeys are visitors over it, so a new field is one line
// here and the reader, the writer and the hash cannot disagree on it.
template <typename Config, typename Visitor>
void VisitFields(Config& c, Visitor&& v) {
  v("gpu.name", c.name);
  v("gpu.num_sms", c.num_sms);
  v("gpu.sub_cores_per_sm", c.sub_cores_per_sm);
  v("gpu.max_warps_per_sm", c.max_warps_per_sm);
  v("gpu.max_ctas_per_sm", c.max_ctas_per_sm);
  v("gpu.max_threads_per_sm", c.max_threads_per_sm);
  v("gpu.registers_per_sm", c.registers_per_sm);
  v("gpu.shared_mem_per_sm", c.shared_mem_per_sm);
  v("core.sched_policy", c.sched_policy);
  v("core.schedulers_per_sub_core", c.schedulers_per_sub_core);
  v("core.ldst_units_per_sub_core", c.ldst_units_per_sub_core);
  v("core.ldst_queue_depth", c.ldst_queue_depth);
  v("core.shared_mem_latency", c.shared_mem_latency);
  v("core.shared_mem_banks", c.shared_mem_banks);
  v("int_unit.lanes", c.int_unit.lanes);
  v("int_unit.latency", c.int_unit.latency);
  v("int_unit.issue_interval", c.int_unit.issue_interval_override);
  v("sp_unit.lanes", c.sp_unit.lanes);
  v("sp_unit.latency", c.sp_unit.latency);
  v("sp_unit.issue_interval", c.sp_unit.issue_interval_override);
  v("dp_unit.lanes", c.dp_unit.lanes);
  v("dp_unit.latency", c.dp_unit.latency);
  v("dp_unit.issue_interval", c.dp_unit.issue_interval_override);
  v("sfu_unit.lanes", c.sfu_unit.lanes);
  v("sfu_unit.latency", c.sfu_unit.latency);
  v("sfu_unit.issue_interval", c.sfu_unit.issue_interval_override);
  v("tensor_unit.lanes", c.tensor_unit.lanes);
  v("tensor_unit.latency", c.tensor_unit.latency);
  v("tensor_unit.issue_interval", c.tensor_unit.issue_interval_override);
  v("l1.size_bytes", c.l1.size_bytes);
  v("l1.assoc", c.l1.assoc);
  v("l1.line_bytes", c.l1.line_bytes);
  v("l1.sector_bytes", c.l1.sector_bytes);
  v("l1.banks", c.l1.banks);
  v("l1.mshr_entries", c.l1.mshr_entries);
  v("l1.mshr_max_merge", c.l1.mshr_max_merge);
  v("l1.replacement", c.l1.replacement);
  v("l1.write_policy", c.l1.write_policy);
  v("l1.latency", c.l1.latency);
  v("l1.streaming", c.l1.streaming);
  v("l2.size_bytes", c.l2.size_bytes);
  v("l2.assoc", c.l2.assoc);
  v("l2.line_bytes", c.l2.line_bytes);
  v("l2.sector_bytes", c.l2.sector_bytes);
  v("l2.banks", c.l2.banks);
  v("l2.mshr_entries", c.l2.mshr_entries);
  v("l2.mshr_max_merge", c.l2.mshr_max_merge);
  v("l2.replacement", c.l2.replacement);
  v("l2.write_policy", c.l2.write_policy);
  v("l2.latency", c.l2.latency);
  v("l2.streaming", c.l2.streaming);
  v("mem.num_partitions", c.num_mem_partitions);
  v("mem.l2_drain_attempts", c.l2_drain_attempts);
  v("noc.latency", c.noc.latency);
  v("noc.bytes_per_cycle", c.noc.bytes_per_cycle);
  v("noc.input_queue_depth", c.noc.input_queue_depth);
  v("noc.output_queue_depth", c.noc.output_queue_depth);
  v("dram.latency", c.dram.latency);
  v("dram.row_hit_latency", c.dram.row_hit_latency);
  v("dram.row_bytes", c.dram.row_bytes);
  v("dram.bytes_per_cycle", c.dram.bytes_per_cycle);
  v("dram.queue_depth", c.dram.queue_depth);
  v("effects.icache_miss_rate", c.effects.icache_miss_rate);
  v("effects.icache_miss_penalty", c.effects.icache_miss_penalty);
  v("effects.regbank_conflict_rate", c.effects.regbank_conflict_rate);
  v("effects.writeback_bus_width", c.effects.writeback_bus_width);
  v("effects.dram_refresh_interval", c.effects.dram_refresh_interval);
  v("effects.dram_refresh_penalty", c.effects.dram_refresh_penalty);
  v("effects.kernel_launch_overhead", c.effects.kernel_launch_overhead);
  v("effects.l2_latency_extra", c.effects.l2_latency_extra);
  v("effects.dram_latency_extra", c.effects.dram_latency_extra);
}

// FromIni's field parsers: the field's type picks one. Malformed and
// out-of-range values throw SimError naming the key.
void ParseField(const std::string& s, const char*, std::string& f) { f = s; }
void ParseField(const std::string& s, const char* key, unsigned& f) {
  f = ParseUnsigned(s, key);
}
void ParseField(const std::string& s, const char* key, std::uint64_t& f) {
  f = ParseUint(s, key);
}
void ParseField(const std::string& s, const char* key, double& f) {
  f = ParseDouble(s, key);
}
void ParseField(const std::string& s, const char* key, bool& f) {
  f = ParseBool(s, key);
}
void ParseField(const std::string& s, const char*, SchedPolicy& f) {
  f = SchedPolicyFromString(s);
}
void ParseField(const std::string& s, const char*, ReplacementPolicy& f) {
  f = ReplacementPolicyFromString(s);
}
void ParseField(const std::string& s, const char*, WritePolicy& f) {
  f = WritePolicyFromString(s);
}

// ToIniString's field writers. Doubles are written as the shortest text
// that reads back as the same double: the stream's default 6 significant
// digits would let configs that differ in a later digit share one
// canonical hash.
void AppendField(std::string& out, const std::string& f) { out += f; }
void AppendField(std::string& out, bool f) { out += f ? "true" : "false"; }
template <typename T>
  requires std::is_arithmetic_v<T>
void AppendField(std::string& out, T f) {
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof buf, f);
  out.append(buf, res.ptr);
}
template <typename E>
  requires std::is_enum_v<E>
void AppendField(std::string& out, E f) {
  out += ToString(f);
}

}  // namespace

GpuConfig GpuConfig::FromIni(const IniFile& ini) {
  return FromIni(ini, GpuConfig());
}

GpuConfig GpuConfig::FromIni(const IniFile& ini, GpuConfig base) {
  GpuConfig c = std::move(base);
  VisitFields(c, [&ini](const char* key, auto& field) {
    if (ini.Has(key)) ParseField(ini.GetString(key), key, field);
  });
  c.Validate();
  return c;
}

std::string GpuConfig::ToIniString() const {
  std::string out;
  out.reserve(2048);
  std::string_view section;
  VisitFields(*this, [&](std::string_view key, const auto& field) {
    const std::size_t dot = key.find('.');
    if (key.substr(0, dot) != section) {
      section = key.substr(0, dot);
      out += '[';
      out += section;
      out += "]\n";
    }
    out += key.substr(dot + 1);
    out += " = ";
    AppendField(out, field);
    out += '\n';
  });
  return out;
}

const std::set<std::string>& GpuConfig::IniKeys() {
  static const std::set<std::string> keys = [] {
    const GpuConfig defaults;
    std::set<std::string> all;
    VisitFields(defaults, [&all](const char* key, const auto&) {
      all.insert(key);
    });
    return all;
  }();
  return keys;
}

std::uint64_t GpuConfig::CanonicalHash() const {
  const std::string ini = ToIniString();
  // Chained splitmix over length-prefixed 8-byte chunks; byte-order
  // independent, so the hash is stable across platforms.
  std::uint64_t h = HashMix(ini.size() + 0x636f6e666968ull);
  std::uint64_t word = 0;
  unsigned shift = 0;
  for (const char c : ini) {
    word |= static_cast<std::uint64_t>(static_cast<unsigned char>(c))
            << shift;
    shift += 8;
    if (shift == 64) {
      h = HashMix(h ^ word);
      word = 0;
      shift = 0;
    }
  }
  if (shift != 0) h = HashMix(h ^ word);
  return h;
}

}  // namespace swiftsim
