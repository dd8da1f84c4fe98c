// How a GpuModel is driven, as opposed to what it simulates (GpuConfig).
// These settings never change the cycles of a run that completes, so they
// stay out of the config hash and every cache key built on it.
#pragma once

#include <string>

#include "common/types.h"

namespace swiftsim {

/// Forward-progress watchdog over the cycle-accurate drivers (DESIGN.md
/// §11). Disabled by default; stall_cycles = 0 keeps the hot loop free of
/// any watchdog work.
struct WatchdogSettings {
  /// Trip when the progress signature (issued instructions + NoC/L2/DRAM
  /// traffic counters) is unchanged for this many simulated cycles.
  /// 0 disables the cycle watchdog. Set comfortably above the longest
  /// legitimate silent span (a few times the DRAM latency).
  Cycle stall_cycles = 0;
  /// Wall-clock budget per application run in seconds; 0 disables.
  double wall_seconds = 0;
  /// Directory for JSON diagnostic dumps on a trip; empty = no dump file
  /// (the typed SimHangError is raised either way).
  std::string dump_dir;
};

struct ModelSettings {
  /// Event-calendar cycle skipping (DESIGN.md §9): lets the cycle-accurate
  /// driver fast-forward over spans it proves are no-op ticks. Cycle
  /// counts are bit-identical either way; disable only for A/B validation.
  bool cycle_skip = true;
  WatchdogSettings watchdog;
};

}  // namespace swiftsim
