// Warm-cache design-space-exploration engine (DESIGN.md §13).
//
// Turns an expanded SweepSpec into a scheduled, cache-warm, adaptively
// pruned search instead of a cold serial loop:
//
//   * points run as app-lanes on the shared ThreadPool, one serial
//     simulation per lane;
//   * one process-global MemoCache/ProfileCache is threaded through all
//     points: repeated launches inside iterative apps replay, and points
//     that differ only in timing parameters share one pre-pass profile
//     (geometry-equal dedup);
//   * adaptive early stopping: every point is screened with the cheap
//     analytical-memory estimate, survivors optionally refined at
//     Swift-Sim-Basic, and only the empirical Pareto frontier
//     (cycles x area-proxy) plus a successive-halving quota is promoted
//     to the cycle-accurate final level. Arms retire as soon as their
//     confidence bounds separate from a dominating point's, and every
//     retirement records the bound that caused it — pruning is never
//     silent.
//
// Decisions are pure functions of per-point simulation results, which
// are themselves deterministic, so promote/retire sets are bit-identical
// across worker counts and independent of point enumeration order.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "config/sweep_spec.h"
#include "sim/model_select.h"
#include "swiftsim/parallel.h"
#include "trace/kernel.h"

namespace swiftsim::dse {

/// Silicon-cost proxy for the second objective of the Pareto search, in
/// arbitrary-but-stable units: SM array (scaled by sub-core ALU lanes) +
/// on-chip SRAM + memory partitions. Exact (no confidence band) — it is
/// computed, not simulated.
double AreaProxy(const GpuConfig& cfg);

/// One candidate in objective space (lower is better on both).
struct Objective {
  double cycles = 0;
  double area = 0;
};

/// frontier[i] is true when no other candidate weakly dominates i with at
/// least one strict improvement. Ties (exactly equal on both objectives)
/// all stay on the frontier, so the result is a set property independent
/// of input order.
std::vector<bool> ParetoFrontier(const std::vector<Objective>& candidates);

struct DseOptions {
  unsigned threads = 1;  // worker budget for point lanes; 0 = one lane
  /// false = reference mode: every point runs to final_level, no pruning
  /// (the ground truth an early-stopped sweep must match on its promoted
  /// points).
  bool early_stopping = true;
  /// Middle Swift-Sim-Basic rung between screening and the final level;
  /// skipped when the screening survivors already fit the final quota.
  bool refine_rung = true;
  /// Successive-halving quota: each pruning step keeps
  /// max(min_keep, ceil(survivors * keep_fraction)) points. The empirical
  /// Pareto frontier survives past the quota, but max_promote is a hard
  /// ceiling on the final cycle-accurate rung — an oversized frontier is
  /// trimmed in estimated-cycles order (each trimmed point records it).
  double keep_fraction = 0.25;
  unsigned min_keep = 2;
  unsigned max_promote = 8;  // 0 = uncapped
  /// Screen-rung dedup: the analytical memory model is invariant under
  /// the cycle-accurate-only knobs (warp scheduler policy, cache
  /// replacement policy — see interval_model.h), so points differing only
  /// in those fields share one screening simulation.
  bool dedup_screen = true;
  /// Screening runs kSwiftSimMemory and the middle rung kSwiftSimBasic;
  /// the promoted points run at final_level.
  SimLevel final_level = SimLevel::kDetailed;
  /// Crash consistency (DESIGN.md §16). When set, every rung result and
  /// pruning decision is appended to a write-ahead journal at this path
  /// before the sweep moves on, so a SIGKILLed sweep loses at most the
  /// simulations in flight. With `resume` the journal is recovered first:
  /// journaled rung results are replayed instead of re-simulated and each
  /// recomputed pruning decision is checked against its journaled record —
  /// rung decisions are pure functions of deterministic per-point results,
  /// so the resumed sweep is bit-identical (cycles, promote/retire sets,
  /// Pareto frontier) to an uninterrupted one. The journal head pins a
  /// sweep identity (apps, points, decision-affecting options); resuming
  /// against a different sweep raises SimError.
  std::string journal_path;
  bool resume = false;
  /// How every point's simulations are driven (RunSimulation's options).
  RunOptions run;
};

struct PointOutcome {
  std::size_t index = 0;  // position in the input vector
  std::string label;
  std::uint64_t cfg_hash = 0;
  double area = 0;
  Cycle screen_cycles = 0;   // 0 = rung not run
  Cycle refine_cycles = 0;
  Cycle final_cycles = 0;
  double screen_wall = 0;
  double refine_wall = 0;
  double final_wall = 0;
  std::uint64_t memo_hits = 0;
  std::uint64_t memo_misses = 0;
  std::uint64_t memo_cycles_avoided = 0;
  SimLevel level_reached = SimLevel::kSwiftSimMemory;
  bool promoted = false;  // reached final_level
  bool frontier = false;  // on the final Pareto frontier (promoted only)
  std::string retired_by;  // the bound that retired it; "" iff promoted
};

struct SweepReport {
  std::vector<PointOutcome> points;  // input order
  std::size_t promoted = 0;
  std::size_t retired = 0;
  std::size_t refined = 0;       // points that ran the middle rung
  double wall_seconds = 0;       // whole-sweep wall time
  /// Cold per-point baseline estimate: mean fresh final-level wall across
  /// the promoted points, times the point count — what the old serial
  /// harness would pay running every point cycle-accurately from cold.
  double est_cold_wall = 0;
  double speedup_vs_cold = 0;
  std::uint64_t memo_hits = 0;
  std::uint64_t memo_misses = 0;
  /// ProfileCache deltas across the sweep: shared = pre-passes served
  /// from the geometry-equal cache instead of rebuilt.
  std::uint64_t prepass_built = 0;
  std::uint64_t prepass_shared = 0;
  /// Screen-rung dedup: sims actually run vs points that copied the
  /// result of an analytically-equivalent representative.
  std::uint64_t screen_sims = 0;
  std::uint64_t screen_deduped = 0;
  unsigned screen_lanes = 1;  // resolved batch shape per rung
  unsigned final_lanes = 1;
  /// Crash-consistency telemetry (zero unless journal_path was set):
  /// records appended + on-disk segment size this run, and rung
  /// simulations skipped because a resumed journal already held their
  /// results.
  std::uint64_t journal_appends = 0;
  std::uint64_t journal_bytes = 0;
  std::uint64_t points_resumed = 0;
};

/// Runs the sweep: every point evaluates `apps` (cycles are summed across
/// apps — one scalar timing objective per point). Throws SimError on an
/// empty sweep or app list.
SweepReport RunSweep(const std::vector<Application>& apps,
                     const std::vector<SweepPoint>& points,
                     const DseOptions& opt);

}  // namespace swiftsim::dse
