#include "swiftsim/dse_engine.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <sstream>
#include <unordered_map>

#include "common/journal.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "swiftsim/memo_cache.h"
#include "swiftsim/simulator.h"
#include "trace/fingerprint.h"

namespace swiftsim::dse {

double AreaProxy(const GpuConfig& cfg) {
  // Stable-unit silicon proxy: an SM costs 1 plus its sub-core ALU lanes
  // and L1 SRAM; a memory partition costs 1 plus its L2 slice. The exact
  // coefficients only need to rank configurations consistently.
  const double alu_lanes =
      static_cast<double>(cfg.sub_cores_per_sm) *
      (cfg.sp_unit.lanes + cfg.int_unit.lanes + cfg.sfu_unit.lanes +
       cfg.tensor_unit.lanes);
  const double sm_cost =
      cfg.num_sms * (1.0 + alu_lanes / 128.0 +
                     static_cast<double>(cfg.l1.size_bytes) / (64.0 * 1024));
  const double mem_cost =
      cfg.num_mem_partitions *
      (1.0 + static_cast<double>(cfg.l2.size_bytes) / (256.0 * 1024));
  return sm_cost + mem_cost;
}

std::vector<bool> ParetoFrontier(const std::vector<Objective>& candidates) {
  std::vector<bool> front(candidates.size(), true);
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    for (std::size_t j = 0; j < candidates.size(); ++j) {
      if (i == j) continue;
      const Objective& a = candidates[j];
      const Objective& b = candidates[i];
      if (a.cycles <= b.cycles && a.area <= b.area &&
          (a.cycles < b.cycles || a.area < b.area)) {
        front[i] = false;
        break;
      }
    }
  }
  return front;
}

namespace {

// Relative model-error band of each rung's cycles estimate: a point retires
// on bounds when another survivor's upper bound is below its lower bound
// at no larger area.
constexpr double kScreenDelta = 0.15;
constexpr double kRefineDelta = 0.05;
// Screening runs the analytical memory model; the middle rung runs
// Swift-Sim-Basic.
constexpr SimLevel kScreenLevel = SimLevel::kSwiftSimMemory;
constexpr SimLevel kRefineLevel = SimLevel::kSwiftSimBasic;

struct RungStats {
  Cycle cycles = 0;
  double wall = 0;
  std::uint64_t memo_hits = 0;
  std::uint64_t memo_misses = 0;
  std::uint64_t memo_cycles_avoided = 0;
};

RungStats RunPoint(const std::vector<Application>& apps, const GpuConfig& cfg,
                   SimLevel level, const RunOptions& run) {
  RungStats s;
  const auto t0 = std::chrono::steady_clock::now();
  for (const Application& app : apps) {
    const SimResult r = RunSimulation(app, cfg, level, run);
    s.cycles += r.total_cycles;
    s.memo_hits += r.Metric("memo.hits");
    s.memo_misses += r.Metric("memo.misses");
    s.memo_cycles_avoided += r.Metric("memo.replayed_cycles");
  }
  const auto t1 = std::chrono::steady_clock::now();
  s.wall = std::chrono::duration<double>(t1 - t0).count();
  return s;
}

/// Canonical hash of the config with the warp scheduler policy and the
/// cache replacement policies normalized away; configs with equal
/// signatures share one screening simulation. Only the replacement
/// policies are unread at kScreenLevel (the cycle-accurate TagArray is
/// their one reader). Its SM cores are still cycle-accurate and read the
/// scheduler policy, so a twin's own screen could differ by about 1%
/// (GEMM at scale 0.08 on the default config: 8810 cycles under gto, 8906
/// under lrr).
std::uint64_t ScreenSignature(const GpuConfig& cfg) {
  GpuConfig c = cfg;
  c.sched_policy = SchedPolicy::kGto;
  c.l1.replacement = ReplacementPolicy::kLru;
  c.l2.replacement = ReplacementPolicy::kLru;
  return c.CanonicalHash();
}

std::string ShortHash(std::uint64_t h) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%012llx",
                static_cast<unsigned long long>(h & 0xffffffffffffull));
  return buf;
}

/// One successive-halving pruning step over the surviving points at one
/// rung. Operates on a canonical order (cfg_hash, then input index), so
/// the promote/retire partition is a set property: independent of point
/// enumeration order and of how the rung's simulations were scheduled.
void PruneRung(const char* rung, double delta, std::size_t target,
               std::size_t hard_cap, Cycle PointOutcome::* cycles_of,
               std::vector<std::size_t>* alive,
               std::vector<PointOutcome>* pts) {
  std::vector<std::size_t> canon = *alive;
  std::sort(canon.begin(), canon.end(), [&](std::size_t a, std::size_t b) {
    const PointOutcome& pa = (*pts)[a];
    const PointOutcome& pb = (*pts)[b];
    if (pa.cfg_hash != pb.cfg_hash) return pa.cfg_hash < pb.cfg_hash;
    return pa.index < pb.index;
  });

  // Step 1 — confidence-bound separation: retire any point whose cycles
  // lower bound clears another survivor's upper bound at no larger area.
  // delta is the rung's relative model-error band.
  std::vector<std::size_t> remaining;
  remaining.reserve(canon.size());
  for (const std::size_t i : canon) {
    PointOutcome& p = (*pts)[i];
    const double c_p = static_cast<double>(p.*cycles_of);
    const double lb_p = c_p * (1.0 - delta);
    const std::size_t kNone = static_cast<std::size_t>(-1);
    std::size_t dominator = kNone;
    double best_ub = 0;
    for (const std::size_t j : canon) {
      if (j == i) continue;
      const PointOutcome& q = (*pts)[j];
      const double ub_q = static_cast<double>(q.*cycles_of) * (1.0 + delta);
      if (ub_q < lb_p && q.area <= p.area &&
          (dominator == kNone || ub_q < best_ub ||
           (ub_q == best_ub && q.cfg_hash < (*pts)[dominator].cfg_hash))) {
        dominator = j;
        best_ub = ub_q;
      }
    }
    if (dominator != kNone) {
      const PointOutcome& q = (*pts)[dominator];
      char buf[192];
      std::snprintf(buf, sizeof buf,
                    "%s bound: cycles lb %.0f (est %.0f -%d%%) > ub %.0f of "
                    "cfg %s at area %.2f <= %.2f",
                    rung, lb_p, c_p, static_cast<int>(delta * 100), best_ub,
                    ShortHash(q.cfg_hash).c_str(), q.area, p.area);
      p.retired_by = buf;
    } else {
      remaining.push_back(i);
    }
  }

  // Step 2 — halving quota: keep the empirical Pareto frontier, then the
  // best remaining points by estimated cycles until `target` is reached.
  std::vector<Objective> objs;
  objs.reserve(remaining.size());
  for (const std::size_t i : remaining) {
    objs.push_back({static_cast<double>((*pts)[i].*cycles_of),
                    (*pts)[i].area});
  }
  const std::vector<bool> front = ParetoFrontier(objs);
  std::vector<std::size_t> kept;
  std::vector<std::size_t> rest;
  for (std::size_t k = 0; k < remaining.size(); ++k) {
    (front[k] ? kept : rest).push_back(remaining[k]);
  }
  std::sort(rest.begin(), rest.end(), [&](std::size_t a, std::size_t b) {
    const PointOutcome& pa = (*pts)[a];
    const PointOutcome& pb = (*pts)[b];
    if (pa.*cycles_of != pb.*cycles_of) {
      return pa.*cycles_of < pb.*cycles_of;
    }
    if (pa.cfg_hash != pb.cfg_hash) return pa.cfg_hash < pb.cfg_hash;
    return pa.index < pb.index;
  });
  std::size_t fill = 0;
  while (kept.size() < target && fill < rest.size()) {
    kept.push_back(rest[fill++]);
  }
  const Cycle cutoff =
      fill < rest.size() ? (*pts)[rest[fill]].*cycles_of
                         : (kept.empty() ? 0 : (*pts)[kept.back()].*cycles_of);
  for (std::size_t k = fill; k < rest.size(); ++k) {
    PointOutcome& p = (*pts)[rest[k]];
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "%s halving: est cycles %llu at quota cutoff %llu "
                  "(kept %zu of %zu, off-frontier)",
                  rung,
                  static_cast<unsigned long long>(p.*cycles_of),
                  static_cast<unsigned long long>(cutoff), kept.size(),
                  remaining.size());
    p.retired_by = buf;
  }

  // Step 3 — hard promote cap: the frontier survives the quota, but the
  // final cycle-accurate rung has a budget. An oversized survivor set is
  // trimmed in (estimated cycles, cfg_hash) order; trimmed points record
  // the cap, so this pruning is as loud as the other two.
  if (hard_cap > 0 && kept.size() > hard_cap) {
    std::sort(kept.begin(), kept.end(), [&](std::size_t a, std::size_t b) {
      const PointOutcome& pa = (*pts)[a];
      const PointOutcome& pb = (*pts)[b];
      if (pa.*cycles_of != pb.*cycles_of) {
        return pa.*cycles_of < pb.*cycles_of;
      }
      if (pa.cfg_hash != pb.cfg_hash) return pa.cfg_hash < pb.cfg_hash;
      return pa.index < pb.index;
    });
    for (std::size_t k = hard_cap; k < kept.size(); ++k) {
      PointOutcome& p = (*pts)[kept[k]];
      char buf[160];
      std::snprintf(buf, sizeof buf,
                    "%s promote cap: est cycles %llu ranked %zu of %zu "
                    "survivors, cap %zu",
                    rung, static_cast<unsigned long long>(p.*cycles_of),
                    k + 1, kept.size(), hard_cap);
      p.retired_by = buf;
    }
    kept.resize(hard_cap);
  }

  std::sort(kept.begin(), kept.end());  // back to input order
  *alive = std::move(kept);
}

/// 128-bit identity of everything a resumed sweep must agree on: the
/// applications, the point list (hashes, in order) and every option that
/// feeds a rung or pruning decision. threads is deliberately
/// excluded — rung results are worker-count independent by construction,
/// so a sweep may legally resume with a different parallel shape.
std::string SweepIdentity(const std::vector<Application>& apps,
                          const std::vector<SweepPoint>& points,
                          const DseOptions& opt) {
  FpHasher h;
  h.MixString("dse-sweep-journal-v1");
  h.Mix(apps.size());
  for (const Application& app : apps) {
    const Fingerprint fp = FingerprintApplication(app);
    h.Mix(fp.hi);
    h.Mix(fp.lo);
  }
  h.Mix(points.size());
  for (const SweepPoint& p : points) h.Mix(p.cfg_hash);
  const auto mix_double = [&h](double d) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof bits);
    h.Mix(bits);
  };
  h.Mix(opt.early_stopping ? 1 : 0);
  h.Mix(opt.refine_rung ? 1 : 0);
  h.Mix(opt.dedup_screen ? 1 : 0);
  mix_double(opt.keep_fraction);
  h.Mix(opt.min_keep);
  h.Mix(opt.max_promote);
  // Constant, but still mixed so journals written while the rung bands
  // and levels were options keep their identity and resume.
  mix_double(kScreenDelta);
  mix_double(kRefineDelta);
  h.Mix(static_cast<std::uint64_t>(kScreenLevel));
  h.Mix(static_cast<std::uint64_t>(kRefineLevel));
  h.Mix(static_cast<std::uint64_t>(opt.final_level));
  // A degraded kernel's cycles come from the analytical fallback.
  h.Mix(opt.run.degrade.on_hang ? 1 : 0);
  h.Mix(opt.run.degrade.max_retries);
  return h.Digest().ToHex();
}

struct ReplayedRung {
  Cycle cycles = 0;
  double wall = 0;
};

/// Write-ahead journal of one sweep (DESIGN.md §16). Record payloads are
/// single text lines:
///   sweep <identity-hex>                 — head, pins the sweep identity
///   rung <name> <index> <cycles> <wall>  — one point finished one rung
///   prune <name> <n> <i0> ... <i(n-1)>   — alive set after one pruning
/// Rung results are appended from worker lanes as points complete
/// (Journal::Append is thread-safe); prune records only after the rung's
/// barrier, so a journal always describes a prefix of the sweep's
/// deterministic execution. On resume, rung records short-circuit the
/// simulations and prune records are verified against the recomputed
/// decisions — a mismatch means the journal belongs to a different
/// execution and is a hard error, never a silent divergence.
class SweepJournal {
 public:
  void Open(const std::string& path, bool resume,
            const std::string& identity) {
    JournalRecovery rec;
    journal_.Open(path, /*truncate=*/!resume, &rec);
    bool have_head = false;
    for (const std::string& r : rec.records) {
      std::istringstream in(r);
      std::string tag;
      in >> tag;
      if (tag == "sweep") {
        std::string hex;
        in >> hex;
        SS_CHECK(!have_head, "journal '" + path + "' has two sweep heads");
        SS_CHECK(hex == identity,
                 "journal '" + path + "' belongs to a different sweep (head " +
                     hex + ", this sweep " + identity +
                     "): apps, points or decision options changed");
        have_head = true;
      } else if (tag == "rung") {
        SS_CHECK(have_head, "journal '" + path + "' rung record before head");
        std::string name;
        std::size_t idx = 0;
        ReplayedRung rr;
        in >> name >> idx >> rr.cycles >> rr.wall;
        SS_CHECK(!in.fail(), "journal '" + path + "' has a malformed rung "
                             "record: '" + r + "'");
        rungs_[name][idx] = rr;
      } else if (tag == "prune") {
        SS_CHECK(have_head, "journal '" + path + "' prune record before head");
        std::string name;
        std::size_t n = 0;
        in >> name >> n;
        std::vector<std::size_t> alive(n);
        for (std::size_t k = 0; k < n; ++k) in >> alive[k];
        SS_CHECK(!in.fail(), "journal '" + path + "' has a malformed prune "
                             "record: '" + r + "'");
        prunes_[name] = std::move(alive);
      } else {
        SS_CHECK(false, "journal '" + path + "' has an unknown record kind '" +
                            tag + "' (newer format?)");
      }
    }
    // Fresh segment, or a resume that found nothing (killed before the
    // head landed): pin the identity now.
    if (!have_head) journal_.Append("sweep " + identity);
  }

  const std::unordered_map<std::size_t, ReplayedRung>* Replay(
      const char* rung) const {
    const auto it = rungs_.find(rung);
    return it == rungs_.end() ? nullptr : &it->second;
  }

  void AppendRung(const char* rung, std::size_t idx, Cycle cycles,
                  double wall) {
    char buf[128];
    // %.17g round-trips the double exactly, so replayed walls equal the
    // originals bit for bit.
    std::snprintf(buf, sizeof buf, "rung %s %zu %llu %.17g", rung, idx,
                  static_cast<unsigned long long>(cycles), wall);
    journal_.Append(buf);
  }

  /// Journals the post-prune alive set — or, when the journal already
  /// holds this rung's decision, verifies the recomputed one against it.
  void CommitPrune(const char* rung, const std::vector<std::size_t>& alive) {
    const auto it = prunes_.find(rung);
    if (it != prunes_.end()) {
      SS_CHECK(it->second == alive,
               std::string("resumed ") + rung + " pruning decision diverges "
               "from the journaled one — journal does not match this sweep");
      return;
    }
    std::ostringstream out;
    out << "prune " << rung << ' ' << alive.size();
    for (const std::size_t i : alive) out << ' ' << i;
    journal_.Append(out.str());
  }

  std::uint64_t appended() const { return journal_.appended(); }
  std::uint64_t bytes() const { return journal_.bytes(); }

 private:
  Journal journal_;
  std::map<std::string, std::unordered_map<std::size_t, ReplayedRung>> rungs_;
  std::map<std::string, std::vector<std::size_t>> prunes_;
};

}  // namespace

SweepReport RunSweep(const std::vector<Application>& apps,
                     const std::vector<SweepPoint>& points,
                     const DseOptions& opt) {
  SS_CHECK(!points.empty(), "DSE sweep needs at least one point");
  SS_CHECK(!apps.empty(), "DSE sweep needs at least one application");
  SS_CHECK(opt.keep_fraction > 0 && opt.keep_fraction <= 1,
           "keep_fraction must be in (0, 1]");

  const auto t0 = std::chrono::steady_clock::now();
  const std::uint64_t pc_hits0 = ProfileCache::Global().hits();
  const std::uint64_t pc_miss0 = ProfileCache::Global().misses();

  SweepReport report;
  report.points.resize(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    PointOutcome& po = report.points[i];
    po.index = i;
    po.label = points[i].label;
    po.cfg_hash = points[i].cfg_hash;
    po.area = AreaProxy(points[i].cfg);
  }

  // Crash consistency (§16): open/recover the write-ahead journal before
  // any simulation, so even the first point's completion is durable.
  std::unique_ptr<SweepJournal> journal;
  if (!opt.journal_path.empty()) {
    journal = std::make_unique<SweepJournal>();
    journal->Open(opt.journal_path, opt.resume,
                  SweepIdentity(apps, points, opt));
  }

  ThreadPool& pool = ThreadPool::Shared();
  const auto run_rung = [&](const char* rung,
                            const std::vector<std::size_t>& idxs,
                            SimLevel level, Cycle PointOutcome::* cyc,
                            double PointOutcome::* wall) -> unsigned {
    // Resume replay: points the journal already holds at this rung take
    // their journaled cycles/wall (memo counters stay 0 — nothing was
    // simulated) and drop out of the batch.
    std::vector<std::size_t> todo;
    todo.reserve(idxs.size());
    const auto* replay = journal ? journal->Replay(rung) : nullptr;
    for (const std::size_t i : idxs) {
      if (replay != nullptr) {
        const auto it = replay->find(i);
        if (it != replay->end()) {
          PointOutcome& po = report.points[i];
          po.*cyc = it->second.cycles;
          po.*wall = it->second.wall;
          po.level_reached = level;
          ++report.points_resumed;
          continue;
        }
      }
      todo.push_back(i);
    }
    if (todo.empty()) return 1;
    // Points are independent app-lanes, each running serially, which
    // keeps rung results worker-count independent by construction. The
    // clamp matters: ParallelFor reads 0 workers as "the whole pool".
    const unsigned lanes = static_cast<unsigned>(
        std::min<std::size_t>(todo.size(), std::max(1u, opt.threads)));
    pool.ParallelFor(todo.size(), lanes, [&](std::size_t k) {
      PointOutcome& po = report.points[todo[k]];
      const RungStats s = RunPoint(apps, points[todo[k]].cfg, level, opt.run);
      po.*cyc = s.cycles;
      po.*wall = s.wall;
      po.memo_hits += s.memo_hits;
      po.memo_misses += s.memo_misses;
      po.memo_cycles_avoided += s.memo_cycles_avoided;
      po.level_reached = level;
      if (journal) journal->AppendRung(rung, todo[k], s.cycles, s.wall);
    });
    return lanes;
  };

  std::vector<std::size_t> alive(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) alive[i] = i;

  // Rung 1 — screen everything with the cheap analytical-memory estimate.
  // Points with equal ScreenSignature (they differ only in the scheduler
  // or replacement policies) share one simulation; the canonical
  // representative — min (cfg_hash, index) — runs and the rest copy its
  // result, so the copied estimate does not depend on point order.
  if (opt.dedup_screen) {
    std::map<std::uint64_t, std::vector<std::size_t>> groups;
    for (const std::size_t i : alive) {
      groups[ScreenSignature(points[i].cfg)].push_back(i);
    }
    std::vector<std::size_t> reps;
    reps.reserve(groups.size());
    for (auto& [sig, members] : groups) {
      std::sort(members.begin(), members.end(),
                [&](std::size_t a, std::size_t b) {
                  if (points[a].cfg_hash != points[b].cfg_hash) {
                    return points[a].cfg_hash < points[b].cfg_hash;
                  }
                  return a < b;
                });
      reps.push_back(members.front());
    }
    report.screen_lanes =
        run_rung("screen", reps, kScreenLevel,
                 &PointOutcome::screen_cycles, &PointOutcome::screen_wall);
    for (const auto& [sig, members] : groups) {
      const PointOutcome& rep = report.points[members.front()];
      for (std::size_t k = 1; k < members.size(); ++k) {
        PointOutcome& po = report.points[members[k]];
        po.screen_cycles = rep.screen_cycles;
        po.level_reached = kScreenLevel;
        ++report.screen_deduped;
      }
    }
    report.screen_sims = reps.size();
  } else {
    report.screen_lanes =
        run_rung("screen", alive, kScreenLevel,
                 &PointOutcome::screen_cycles, &PointOutcome::screen_wall);
    report.screen_sims = alive.size();
  }

  const auto target_for = [&](std::size_t n, bool apply_cap) {
    std::size_t t = std::max<std::size_t>(
        opt.min_keep,
        static_cast<std::size_t>(std::ceil(n * opt.keep_fraction)));
    if (apply_cap && opt.max_promote > 0 && t > opt.max_promote) {
      t = opt.max_promote;
    }
    return std::max<std::size_t>(1, std::min(t, n));
  };

  if (opt.early_stopping) {
    std::size_t t1 = target_for(alive.size(), /*apply_cap=*/false);
    // The middle rung only pays off when screening leaves more survivors
    // than the final rung would accept anyway.
    const bool will_refine =
        opt.refine_rung &&
        (opt.max_promote == 0 || t1 > opt.max_promote);
    if (!will_refine) t1 = target_for(alive.size(), /*apply_cap=*/true);
    PruneRung("screen", kScreenDelta, t1,
              /*hard_cap=*/will_refine ? 0 : opt.max_promote,
              &PointOutcome::screen_cycles, &alive, &report.points);
    if (journal) journal->CommitPrune("screen", alive);
    if (will_refine && alive.size() > 1) {
      report.refined = alive.size();
      run_rung("refine", alive, kRefineLevel,
               &PointOutcome::refine_cycles, &PointOutcome::refine_wall);
      PruneRung("refine", kRefineDelta,
                target_for(alive.size(), /*apply_cap=*/true),
                /*hard_cap=*/opt.max_promote, &PointOutcome::refine_cycles,
                &alive, &report.points);
      if (journal) journal->CommitPrune("refine", alive);
    }
  }

  // Final rung — promote the survivors to the cycle-accurate level.
  report.final_lanes =
      run_rung("final", alive, opt.final_level, &PointOutcome::final_cycles,
               &PointOutcome::final_wall);
  double final_wall_sum = 0;
  std::vector<Objective> objs;
  objs.reserve(alive.size());
  for (const std::size_t i : alive) {
    report.points[i].promoted = true;
    final_wall_sum += report.points[i].final_wall;
    objs.push_back({static_cast<double>(report.points[i].final_cycles),
                    report.points[i].area});
  }
  const std::vector<bool> front = ParetoFrontier(objs);
  for (std::size_t k = 0; k < alive.size(); ++k) {
    report.points[alive[k]].frontier = front[k];
  }

  report.promoted = alive.size();
  for (const PointOutcome& po : report.points) {
    if (!po.promoted) ++report.retired;
    report.memo_hits += po.memo_hits;
    report.memo_misses += po.memo_misses;
  }
  report.prepass_shared = ProfileCache::Global().hits() - pc_hits0;
  report.prepass_built = ProfileCache::Global().misses() - pc_miss0;
  if (journal) {
    report.journal_appends = journal->appended();
    report.journal_bytes = journal->bytes();
  }

  const auto t1 = std::chrono::steady_clock::now();
  report.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  if (report.promoted > 0) {
    report.est_cold_wall = final_wall_sum /
                           static_cast<double>(report.promoted) *
                           static_cast<double>(points.size());
    if (report.wall_seconds > 0) {
      report.speedup_vs_cold = report.est_cold_wall / report.wall_seconds;
    }
  }
  return report;
}

}  // namespace swiftsim::dse
