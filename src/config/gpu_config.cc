#include "config/gpu_config.h"

#include <charconv>
#include <sstream>
#include <vector>

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
  Require(shared_mem_banks > 0, "shared_mem_banks must be positive");
}

namespace {

void LoadCache(const IniFile& ini, const std::string& sec, CacheParams* c) {
  c->size_bytes = ini.GetUint(sec + ".size_bytes", c->size_bytes);
  c->assoc = static_cast<unsigned>(ini.GetUint(sec + ".assoc", c->assoc));
  c->line_bytes =
      static_cast<unsigned>(ini.GetUint(sec + ".line_bytes", c->line_bytes));
  c->sector_bytes = static_cast<unsigned>(
      ini.GetUint(sec + ".sector_bytes", c->sector_bytes));
  c->banks = static_cast<unsigned>(ini.GetUint(sec + ".banks", c->banks));
  c->mshr_entries = static_cast<unsigned>(
      ini.GetUint(sec + ".mshr_entries", c->mshr_entries));
  c->mshr_max_merge = static_cast<unsigned>(
      ini.GetUint(sec + ".mshr_max_merge", c->mshr_max_merge));
  if (ini.Has(sec + ".replacement")) {
    c->replacement =
        ReplacementPolicyFromString(ini.GetString(sec + ".replacement"));
  }
  if (ini.Has(sec + ".write_policy")) {
    c->write_policy = WritePolicyFromString(ini.GetString(sec + ".write_policy"));
  }
  c->latency = static_cast<unsigned>(ini.GetUint(sec + ".latency", c->latency));
  c->streaming = ini.GetBool(sec + ".streaming", c->streaming);
}

void LoadExecUnit(const IniFile& ini, const std::string& sec,
                  ExecUnitConfig* u) {
  u->lanes = static_cast<unsigned>(ini.GetUint(sec + ".lanes", u->lanes));
  u->latency = static_cast<unsigned>(ini.GetUint(sec + ".latency", u->latency));
  u->issue_interval_override = static_cast<unsigned>(
      ini.GetUint(sec + ".issue_interval", u->issue_interval_override));
}

void DumpCache(std::ostringstream& os, const std::string& sec,
               const CacheParams& c) {
  os << "[" << sec << "]\n"
     << "size_bytes = " << c.size_bytes << "\n"
     << "assoc = " << c.assoc << "\n"
     << "line_bytes = " << c.line_bytes << "\n"
     << "sector_bytes = " << c.sector_bytes << "\n"
     << "banks = " << c.banks << "\n"
     << "mshr_entries = " << c.mshr_entries << "\n"
     << "mshr_max_merge = " << c.mshr_max_merge << "\n"
     << "replacement = " << ToString(c.replacement) << "\n"
     << "write_policy = " << ToString(c.write_policy) << "\n"
     << "latency = " << c.latency << "\n"
     << "streaming = " << (c.streaming ? "true" : "false") << "\n";
}

// The shortest text that reads back as the same double: the stream's
// default 6 significant digits would let configs that differ in a later
// digit share one canonical hash.
std::string Exact(double v) {
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

void DumpExecUnit(std::ostringstream& os, const std::string& sec,
                  const ExecUnitConfig& u) {
  os << "[" << sec << "]\n"
     << "lanes = " << u.lanes << "\n"
     << "latency = " << u.latency << "\n"
     << "issue_interval = " << u.issue_interval_override << "\n";
}

}  // namespace

GpuConfig GpuConfig::FromIni(const IniFile& ini) {
  return FromIni(ini, GpuConfig());
}

GpuConfig GpuConfig::FromIni(const IniFile& ini, GpuConfig base) {
  GpuConfig c = std::move(base);
  c.name = ini.GetString("gpu.name", c.name);
  c.num_sms = static_cast<unsigned>(ini.GetUint("gpu.num_sms", c.num_sms));
  c.sub_cores_per_sm = static_cast<unsigned>(
      ini.GetUint("gpu.sub_cores_per_sm", c.sub_cores_per_sm));
  c.max_warps_per_sm = static_cast<unsigned>(
      ini.GetUint("gpu.max_warps_per_sm", c.max_warps_per_sm));
  c.max_ctas_per_sm = static_cast<unsigned>(
      ini.GetUint("gpu.max_ctas_per_sm", c.max_ctas_per_sm));
  c.max_threads_per_sm = static_cast<unsigned>(
      ini.GetUint("gpu.max_threads_per_sm", c.max_threads_per_sm));
  c.registers_per_sm = ini.GetUint("gpu.registers_per_sm", c.registers_per_sm);
  c.shared_mem_per_sm =
      ini.GetUint("gpu.shared_mem_per_sm", c.shared_mem_per_sm);
  if (ini.Has("core.sched_policy")) {
    c.sched_policy = SchedPolicyFromString(ini.GetString("core.sched_policy"));
  }
  c.schedulers_per_sub_core = static_cast<unsigned>(
      ini.GetUint("core.schedulers_per_sub_core", c.schedulers_per_sub_core));
  LoadExecUnit(ini, "int_unit", &c.int_unit);
  LoadExecUnit(ini, "sp_unit", &c.sp_unit);
  LoadExecUnit(ini, "dp_unit", &c.dp_unit);
  LoadExecUnit(ini, "sfu_unit", &c.sfu_unit);
  LoadExecUnit(ini, "tensor_unit", &c.tensor_unit);
  c.ldst_units_per_sub_core = static_cast<unsigned>(
      ini.GetUint("core.ldst_units_per_sub_core", c.ldst_units_per_sub_core));
  c.ldst_queue_depth = static_cast<unsigned>(
      ini.GetUint("core.ldst_queue_depth", c.ldst_queue_depth));
  LoadCache(ini, "l1", &c.l1);
  LoadCache(ini, "l2", &c.l2);
  c.shared_mem_latency = static_cast<unsigned>(
      ini.GetUint("core.shared_mem_latency", c.shared_mem_latency));
  c.shared_mem_banks = static_cast<unsigned>(
      ini.GetUint("core.shared_mem_banks", c.shared_mem_banks));
  c.num_mem_partitions = static_cast<unsigned>(
      ini.GetUint("mem.num_partitions", c.num_mem_partitions));
  c.l2_drain_attempts = static_cast<unsigned>(
      ini.GetUint("mem.l2_drain_attempts", c.l2_drain_attempts));
  c.noc.latency =
      static_cast<unsigned>(ini.GetUint("noc.latency", c.noc.latency));
  c.noc.bytes_per_cycle = static_cast<unsigned>(
      ini.GetUint("noc.bytes_per_cycle", c.noc.bytes_per_cycle));
  c.noc.input_queue_depth = static_cast<unsigned>(
      ini.GetUint("noc.input_queue_depth", c.noc.input_queue_depth));
  c.noc.output_queue_depth = static_cast<unsigned>(
      ini.GetUint("noc.output_queue_depth", c.noc.output_queue_depth));
  c.dram.latency =
      static_cast<unsigned>(ini.GetUint("dram.latency", c.dram.latency));
  c.dram.row_hit_latency = static_cast<unsigned>(
      ini.GetUint("dram.row_hit_latency", c.dram.row_hit_latency));
  c.dram.row_bytes =
      static_cast<unsigned>(ini.GetUint("dram.row_bytes", c.dram.row_bytes));
  c.dram.bytes_per_cycle = static_cast<unsigned>(
      ini.GetUint("dram.bytes_per_cycle", c.dram.bytes_per_cycle));
  c.dram.queue_depth = static_cast<unsigned>(
      ini.GetUint("dram.queue_depth", c.dram.queue_depth));
  c.effects.enabled = ini.GetBool("effects.enabled", c.effects.enabled);
  c.effects.icache_miss_rate =
      ini.GetDouble("effects.icache_miss_rate", c.effects.icache_miss_rate);
  c.effects.icache_miss_penalty = static_cast<unsigned>(ini.GetUint(
      "effects.icache_miss_penalty", c.effects.icache_miss_penalty));
  c.effects.regbank_conflict_rate = ini.GetDouble(
      "effects.regbank_conflict_rate", c.effects.regbank_conflict_rate);
  c.effects.writeback_bus_width = static_cast<unsigned>(ini.GetUint(
      "effects.writeback_bus_width", c.effects.writeback_bus_width));
  c.effects.dram_refresh_interval = static_cast<unsigned>(ini.GetUint(
      "effects.dram_refresh_interval", c.effects.dram_refresh_interval));
  c.effects.dram_refresh_penalty = static_cast<unsigned>(ini.GetUint(
      "effects.dram_refresh_penalty", c.effects.dram_refresh_penalty));
  c.effects.kernel_launch_overhead = static_cast<unsigned>(ini.GetUint(
      "effects.kernel_launch_overhead", c.effects.kernel_launch_overhead));
  c.effects.l2_latency_extra = static_cast<unsigned>(ini.GetUint(
      "effects.l2_latency_extra", c.effects.l2_latency_extra));
  c.effects.dram_latency_extra = static_cast<unsigned>(ini.GetUint(
      "effects.dram_latency_extra", c.effects.dram_latency_extra));
  c.Validate();
  return c;
}

std::string GpuConfig::ToIniString() const {
  std::ostringstream os;
  os << "[gpu]\n"
     << "name = " << name << "\n"
     << "num_sms = " << num_sms << "\n"
     << "sub_cores_per_sm = " << sub_cores_per_sm << "\n"
     << "max_warps_per_sm = " << max_warps_per_sm << "\n"
     << "max_ctas_per_sm = " << max_ctas_per_sm << "\n"
     << "max_threads_per_sm = " << max_threads_per_sm << "\n"
     << "registers_per_sm = " << registers_per_sm << "\n"
     << "shared_mem_per_sm = " << shared_mem_per_sm << "\n";
  os << "[core]\n"
     << "sched_policy = " << ToString(sched_policy) << "\n"
     << "schedulers_per_sub_core = " << schedulers_per_sub_core << "\n"
     << "ldst_units_per_sub_core = " << ldst_units_per_sub_core << "\n"
     << "ldst_queue_depth = " << ldst_queue_depth << "\n"
     << "shared_mem_latency = " << shared_mem_latency << "\n"
     << "shared_mem_banks = " << shared_mem_banks << "\n";
  DumpExecUnit(os, "int_unit", int_unit);
  DumpExecUnit(os, "sp_unit", sp_unit);
  DumpExecUnit(os, "dp_unit", dp_unit);
  DumpExecUnit(os, "sfu_unit", sfu_unit);
  DumpExecUnit(os, "tensor_unit", tensor_unit);
  DumpCache(os, "l1", l1);
  DumpCache(os, "l2", l2);
  os << "[mem]\n"
     << "num_partitions = " << num_mem_partitions << "\n"
     << "l2_drain_attempts = " << l2_drain_attempts << "\n";
  os << "[noc]\n"
     << "latency = " << noc.latency << "\n"
     << "bytes_per_cycle = " << noc.bytes_per_cycle << "\n"
     << "input_queue_depth = " << noc.input_queue_depth << "\n"
     << "output_queue_depth = " << noc.output_queue_depth << "\n";
  os << "[dram]\n"
     << "latency = " << dram.latency << "\n"
     << "row_hit_latency = " << dram.row_hit_latency << "\n"
     << "row_bytes = " << dram.row_bytes << "\n"
     << "bytes_per_cycle = " << dram.bytes_per_cycle << "\n"
     << "queue_depth = " << dram.queue_depth << "\n";
  os << "[effects]\n"
     << "enabled = " << (effects.enabled ? "true" : "false") << "\n"
     << "icache_miss_rate = " << Exact(effects.icache_miss_rate) << "\n"
     << "icache_miss_penalty = " << effects.icache_miss_penalty << "\n"
     << "regbank_conflict_rate = " << Exact(effects.regbank_conflict_rate)
     << "\n"
     << "writeback_bus_width = " << effects.writeback_bus_width << "\n"
     << "dram_refresh_interval = " << effects.dram_refresh_interval << "\n"
     << "dram_refresh_penalty = " << effects.dram_refresh_penalty << "\n"
     << "kernel_launch_overhead = " << effects.kernel_launch_overhead << "\n"
     << "l2_latency_extra = " << effects.l2_latency_extra << "\n"
     << "dram_latency_extra = " << effects.dram_latency_extra << "\n";
  return os.str();
}

const std::set<std::string>& GpuConfig::IniKeys() {
  static const std::set<std::string> keys = [] {
    const std::vector<std::string> all =
        IniFile::ParseString(GpuConfig().ToIniString()).Keys();
    return std::set<std::string>(all.begin(), all.end());
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
