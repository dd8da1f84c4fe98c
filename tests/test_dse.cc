// DSE sweep-engine gates (DESIGN.md §13): sweep expansion determinism,
// Pareto/early-stopping decisions that are bit-identical across worker
// counts and independent of point enumeration order, memo-warm vs cold
// equality (including the on-disk round trip), the promoted-points-match-
// reference guarantee, and the never-silent-pruning invariant.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "common/journal.h"
#include "common/status.h"
#include "config/ini.h"
#include "config/presets.h"
#include "config/sweep_spec.h"
#include "swiftsim/dse_engine.h"
#include "swiftsim/memo_cache.h"
#include "swiftsim/simulator.h"
#include "workloads/workload.h"

namespace swiftsim {
namespace {

GpuConfig SmallGpu() {
  GpuConfig cfg = Rtx2080TiConfig();
  cfg.num_sms = 4;
  cfg.num_mem_partitions = 2;
  return cfg;
}

Application SmallApp(const std::string& name, double scale = 0.02) {
  WorkloadScale s;
  s.scale = scale;
  return BuildWorkload(name, s);
}

void ClearGlobalCaches() {
  MemoCache::Global().Clear();
  ProfileCache::Global().Clear();
}

/// The small grid the engine tests sweep: 2 x 2 x 2 = 8 points, mixing
/// axes the analytical screen sees (L1 size, SM count) with one it does
/// not (scheduler policy).
SweepSpec::Expansion SmallSweep() {
  SweepSpec spec;
  spec.AddAxis("l1.size_bytes", {"32768", "65536"});
  spec.AddAxis("gpu.num_sms", {"2", "4"});
  spec.AddAxis("core.sched_policy", {"gto", "lrr"});
  return spec.Expand(SmallGpu());
}

// ---------------------------------------------------------------------------
// SweepSpec

TEST(SweepSpec, RejectsEmptyAndDuplicateAxes) {
  SweepSpec spec;
  EXPECT_THROW(spec.AddAxis("l1.size_bytes", {}), SimError);
  EXPECT_THROW(spec.AddAxis("", {"1"}), SimError);
  spec.AddAxis("l1.size_bytes", {"32768"});
  EXPECT_THROW(spec.AddAxis("l1.size_bytes", {"65536"}), SimError);
}

TEST(SweepSpec, ExpansionIsDeterministicAndDeclarationOrderFree) {
  SweepSpec a;
  a.AddAxis("l1.size_bytes", {"32768", "65536"});
  a.AddAxis("gpu.num_sms", {"2", "4"});
  SweepSpec b;  // same axes, opposite declaration order
  b.AddAxis("gpu.num_sms", {"2", "4"});
  b.AddAxis("l1.size_bytes", {"32768", "65536"});

  const auto ea = a.Expand(SmallGpu());
  const auto eb = b.Expand(SmallGpu());
  ASSERT_EQ(ea.points.size(), 4u);
  ASSERT_EQ(ea.points.size(), eb.points.size());
  for (std::size_t i = 0; i < ea.points.size(); ++i) {
    EXPECT_EQ(ea.points[i].label, eb.points[i].label);
    EXPECT_EQ(ea.points[i].cfg_hash, eb.points[i].cfg_hash);
    EXPECT_EQ(ea.points[i].index, i);
  }
  // Distinct configs hash distinctly; re-expansion is bit-identical.
  const auto ea2 = a.Expand(SmallGpu());
  for (std::size_t i = 0; i < ea.points.size(); ++i) {
    EXPECT_EQ(ea.points[i].cfg_hash, ea2.points[i].cfg_hash);
    for (std::size_t j = i + 1; j < ea.points.size(); ++j) {
      EXPECT_NE(ea.points[i].cfg_hash, ea.points[j].cfg_hash);
    }
  }
}

TEST(SweepSpec, FromIniParsesAxisEntries) {
  const IniFile ini = IniFile::ParseString(
      "[sweep]\n"
      "axis.l1.size_bytes = 32768, 65536\n"
      "axis.core.sched_policy = gto, lrr\n");
  const SweepSpec spec = SweepSpec::FromIni(ini);
  ASSERT_EQ(spec.axes().size(), 2u);
  EXPECT_EQ(spec.NumPoints(), 4u);
  // Axes come back sorted by key.
  EXPECT_EQ(spec.axes()[0].key, "core.sched_policy");
  EXPECT_EQ(spec.axes()[1].key, "l1.size_bytes");
  EXPECT_THROW(SweepSpec::FromIni(IniFile::ParseString("[gpu]\nnum_sms=4\n")),
               SimError);
}

TEST(SweepSpec, UnknownAxisKeyThrowsUpFront) {
  SweepSpec spec;
  spec.AddAxis("l1.size_bites", {"32768"});  // typo'd key
  EXPECT_THROW(spec.Expand(SmallGpu()), SimError);
}

TEST(SweepSpec, InvalidCombinationsAreCountedOrThrow) {
  SweepSpec spec;
  // 48000 is not a multiple of line_bytes * assoc -> Validate() fails.
  spec.AddAxis("l1.size_bytes", {"32768", "48000"});
  const auto exp = spec.Expand(SmallGpu(), /*skip_invalid=*/true);
  EXPECT_EQ(exp.points.size(), 1u);
  EXPECT_EQ(exp.skipped_invalid, 1u);
  EXPECT_THROW(spec.Expand(SmallGpu(), /*skip_invalid=*/false), SimError);
}

TEST(SweepSpec, ExpandCappedStridesEvenlyAndDeterministically) {
  SweepSpec spec;
  spec.AddAxis("l1.size_bytes", {"32768", "65536"});
  spec.AddAxis("gpu.num_sms", {"2", "4"});
  spec.AddAxis("core.sched_policy", {"gto", "lrr"});
  const auto full = spec.Expand(SmallGpu());
  const auto capped = spec.ExpandCapped(SmallGpu(), 4);
  ASSERT_EQ(full.points.size(), 8u);
  ASSERT_EQ(capped.points.size(), 4u);
  // Even stride over the canonical order, indices rewritten contiguous.
  for (std::size_t i = 0; i < capped.points.size(); ++i) {
    EXPECT_EQ(capped.points[i].index, i);
    EXPECT_EQ(capped.points[i].cfg_hash, full.points[i * 2].cfg_hash);
    EXPECT_EQ(capped.points[i].label, full.points[i * 2].label);
  }
  // Cap >= size is a no-op; cap 0 means uncapped.
  EXPECT_EQ(spec.ExpandCapped(SmallGpu(), 100).points.size(), 8u);
  EXPECT_EQ(spec.ExpandCapped(SmallGpu(), 0).points.size(), 8u);
}

// ---------------------------------------------------------------------------
// Pareto frontier and area proxy

TEST(Pareto, FrontierIsOrderIndependentAndKeepsTies) {
  const std::vector<dse::Objective> objs = {
      {10, 5}, {5, 10}, {10, 10}, {7, 7}, {10, 5}};
  const auto front = dse::ParetoFrontier(objs);
  EXPECT_TRUE(front[0]);   // best area
  EXPECT_TRUE(front[1]);   // best cycles
  EXPECT_FALSE(front[2]);  // dominated by {10,5} and {7,7}
  EXPECT_TRUE(front[3]);   // trade-off point
  EXPECT_TRUE(front[4]);   // exact tie of [0]: both stay
  // Reversed input marks the same objective values as frontier members.
  std::vector<dse::Objective> rev(objs.rbegin(), objs.rend());
  const auto rfront = dse::ParetoFrontier(rev);
  for (std::size_t i = 0; i < objs.size(); ++i) {
    EXPECT_EQ(front[i], rfront[objs.size() - 1 - i]) << i;
  }
}

TEST(Pareto, AreaProxyRanksResourceGrowth) {
  const GpuConfig base = SmallGpu();
  GpuConfig big_l1 = base;
  big_l1.l1.size_bytes = 2 * base.l1.size_bytes;
  GpuConfig more_sms = base;
  more_sms.num_sms = 2 * base.num_sms;
  GpuConfig big_l2 = base;
  big_l2.l2.size_bytes = 2 * base.l2.size_bytes;
  EXPECT_GT(dse::AreaProxy(big_l1), dse::AreaProxy(base));
  EXPECT_GT(dse::AreaProxy(more_sms), dse::AreaProxy(base));
  EXPECT_GT(dse::AreaProxy(big_l2), dse::AreaProxy(base));
  // Cycle-accurate-only knobs do not change silicon cost.
  GpuConfig lrr = base;
  lrr.sched_policy = SchedPolicy::kLrr;
  EXPECT_EQ(dse::AreaProxy(lrr), dse::AreaProxy(base));
}

// ---------------------------------------------------------------------------
// Screen-rung dedup: SM's analytical-memory estimate does not move with
// the knobs ScreenSignature normalizes away. Only the replacement
// policies are unread at that level; the scheduler policy is read (GEMM
// moves with it), and SM happens not to.

TEST(DseEngine, AnalyticalScreenIgnoresCycleAccurateOnlyKnobs) {
  ClearGlobalCaches();
  const Application app = SmallApp("SM");
  const GpuConfig base = SmallGpu();
  const Cycle ref =
      RunSimulation(app, base, SimLevel::kSwiftSimMemory).total_cycles;

  GpuConfig variant = base;
  variant.sched_policy = SchedPolicy::kLrr;
  variant.l1.replacement = ReplacementPolicy::kFifo;
  variant.l2.replacement = ReplacementPolicy::kRandom;
  ASSERT_NE(variant.CanonicalHash(), base.CanonicalHash());
  EXPECT_EQ(
      RunSimulation(app, variant, SimLevel::kSwiftSimMemory).total_cycles,
      ref);
  // And a knob the screen does see moves the estimate.
  GpuConfig fewer_sms = base;
  fewer_sms.num_sms = 2;
  EXPECT_NE(
      RunSimulation(app, fewer_sms, SimLevel::kSwiftSimMemory).total_cycles,
      ref);
}

// ---------------------------------------------------------------------------
// Engine decision gates

dse::DseOptions FastOptions() {
  dse::DseOptions opt;
  opt.threads = 1;
  opt.refine_rung = false;
  opt.min_keep = 1;
  opt.keep_fraction = 0.25;
  opt.max_promote = 2;
  // Basic as the final level keeps the decision-matrix tests quick; the
  // reference-match gate below exercises kDetailed.
  opt.final_level = SimLevel::kSwiftSimBasic;
  return opt;
}

/// Decision fingerprint of a sweep outcome, keyed by cfg_hash so it can
/// be compared across enumeration orders.
std::map<std::uint64_t, std::string> DecisionMap(
    const dse::SweepReport& rep) {
  std::map<std::uint64_t, std::string> out;
  for (const auto& po : rep.points) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "s=%llu f=%llu p=%d fr=%d ",
                  static_cast<unsigned long long>(po.screen_cycles),
                  static_cast<unsigned long long>(po.final_cycles),
                  po.promoted ? 1 : 0, po.frontier ? 1 : 0);
    out[po.cfg_hash] = buf + po.retired_by;
  }
  return out;
}

TEST(DseEngine, DecisionsAreWorkerCountIndependent) {
  const auto exp = SmallSweep();
  const std::vector<Application> apps = {SmallApp("SM")};
  std::map<std::uint64_t, std::string> ref;
  for (const unsigned threads : {0u, 1u, 2u, 4u}) {
    ClearGlobalCaches();
    dse::DseOptions opt = FastOptions();
    opt.threads = threads;
    const auto rep = dse::RunSweep(apps, exp.points, opt);
    // threads = 0 runs one lane: ParallelFor would read 0 as "the whole
    // pool", so the engine clamps it.
    EXPECT_EQ(rep.screen_lanes,
              std::min<std::size_t>(rep.screen_sims, std::max(1u, threads)))
        << "threads=" << threads;
    const auto dec = DecisionMap(rep);
    if (ref.empty()) {
      ref = dec;
    } else {
      EXPECT_EQ(dec, ref) << "threads=" << threads;
    }
  }
}

TEST(DseEngine, DecisionsAreEnumerationOrderIndependent) {
  const auto exp = SmallSweep();
  const std::vector<Application> apps = {SmallApp("SM")};
  ClearGlobalCaches();
  const auto ref = DecisionMap(dse::RunSweep(apps, exp.points, FastOptions()));

  // Reverse the points (and reindex, as a caller would).
  std::vector<SweepPoint> reversed(exp.points.rbegin(), exp.points.rend());
  for (std::size_t i = 0; i < reversed.size(); ++i) reversed[i].index = i;
  ClearGlobalCaches();
  const auto rev = DecisionMap(dse::RunSweep(apps, reversed, FastOptions()));
  EXPECT_EQ(rev, ref);
}

TEST(DseEngine, DedupMatchesNoDedupDecisions) {
  const auto exp = SmallSweep();
  const std::vector<Application> apps = {SmallApp("SM")};
  ClearGlobalCaches();
  dse::DseOptions opt = FastOptions();
  const auto with_dedup = dse::RunSweep(apps, exp.points, opt);
  // Half the 8 points differ only in scheduler policy: 4 sims cover them.
  EXPECT_EQ(with_dedup.screen_sims, 4u);
  EXPECT_EQ(with_dedup.screen_deduped, 4u);

  ClearGlobalCaches();
  opt.dedup_screen = false;
  const auto without = dse::RunSweep(apps, exp.points, opt);
  EXPECT_EQ(without.screen_sims, exp.points.size());
  EXPECT_EQ(without.screen_deduped, 0u);
  EXPECT_EQ(DecisionMap(with_dedup), DecisionMap(without));
}

TEST(DseEngine, MemoWarmSweepIsBitIdenticalToCold) {
  const auto exp = SmallSweep();
  const std::vector<Application> apps = {SmallApp("BFS")};
  ClearGlobalCaches();
  const auto cold = dse::RunSweep(apps, exp.points, FastOptions());
  EXPECT_EQ(cold.memo_hits, 0u);
  EXPECT_GT(cold.memo_misses, 0u);
  EXPECT_GT(cold.prepass_built, 0u);

  // Same process, warm global caches: every launch replays, every
  // pre-pass is shared, and the decisions do not move.
  const auto warm = dse::RunSweep(apps, exp.points, FastOptions());
  EXPECT_GT(warm.memo_hits, 0u);
  EXPECT_EQ(warm.memo_misses, 0u);
  EXPECT_EQ(warm.prepass_built, 0u);
  EXPECT_EQ(DecisionMap(warm), DecisionMap(cold));

  // On-disk round trip: a fresh cache loaded from the save replays too.
  const std::string path = testing::TempDir() + "dse_memo_roundtrip.bin";
  MemoCache::Global().SaveToFile(path);
  ClearGlobalCaches();
  MemoCache::Global().LoadFromFile(path);
  const auto loaded = dse::RunSweep(apps, exp.points, FastOptions());
  EXPECT_GT(loaded.memo_hits, 0u);
  EXPECT_EQ(loaded.memo_misses, 0u);
  EXPECT_EQ(DecisionMap(loaded), DecisionMap(cold));
  std::remove(path.c_str());
}

TEST(DseEngine, PromotedPointsMatchNoEarlyStoppingReference) {
  const auto exp = SmallSweep();
  const std::vector<Application> apps = {SmallApp("SM")};
  dse::DseOptions opt = FastOptions();
  opt.final_level = SimLevel::kDetailed;  // the acceptance-level gate

  ClearGlobalCaches();
  const auto pruned = dse::RunSweep(apps, exp.points, opt);
  ClearGlobalCaches();
  dse::DseOptions ref_opt = opt;
  ref_opt.early_stopping = false;
  const auto reference = dse::RunSweep(apps, exp.points, ref_opt);
  ASSERT_EQ(reference.promoted, exp.points.size());

  std::map<std::uint64_t, Cycle> ref_cycles;
  for (const auto& po : reference.points) {
    ref_cycles[po.cfg_hash] = po.final_cycles;
  }
  ASSERT_GT(pruned.promoted, 0u);
  EXPECT_LE(pruned.promoted, opt.max_promote);
  for (const auto& po : pruned.points) {
    if (!po.promoted) continue;
    EXPECT_EQ(po.final_cycles, ref_cycles.at(po.cfg_hash)) << po.label;
    EXPECT_EQ(po.level_reached, SimLevel::kDetailed);
  }
}

// ---------------------------------------------------------------------------
// Crash-consistency gates (DESIGN.md §16): the sweep journal must make a
// killed-and-resumed sweep bit-identical to an uninterrupted one, and must
// refuse journals that do not describe this exact sweep.

/// Truncates `path` to its first `keep` journal records (head included),
/// emulating the prefix a crash at that append boundary leaves behind.
void RewriteJournalPrefix(const std::string& path, std::size_t keep) {
  const JournalRecovery rec = ReadJournal(path);
  SS_CHECK(keep <= rec.records.size(), "prefix longer than journal");
  Journal j;
  j.Open(path, /*truncate=*/true, {});
  for (std::size_t i = 0; i < keep; ++i) j.Append(rec.records[i]);
  j.Close();
}

TEST(DseEngine, FullyJournaledSweepResumesWithoutRecomputing) {
  const auto exp = SmallSweep();
  const std::vector<Application> apps = {SmallApp("SM")};
  const std::string path = testing::TempDir() + "/dse_resume_full.journal";
  std::remove(path.c_str());

  ClearGlobalCaches();
  dse::DseOptions opt = FastOptions();
  opt.journal_path = path;
  const auto cold = dse::RunSweep(apps, exp.points, opt);
  EXPECT_GT(cold.journal_appends, 0u);
  EXPECT_GT(cold.journal_bytes, 0u);
  EXPECT_EQ(cold.points_resumed, 0u);

  // A complete journal replays every rung result: no new simulations, no
  // new appends, identical decisions.
  ClearGlobalCaches();
  opt.resume = true;
  const auto resumed = dse::RunSweep(apps, exp.points, opt);
  EXPECT_GT(resumed.points_resumed, 0u);
  EXPECT_EQ(resumed.journal_appends, 0u);
  EXPECT_EQ(resumed.memo_misses, 0u);
  EXPECT_EQ(DecisionMap(resumed), DecisionMap(cold));
  std::remove(path.c_str());
}

TEST(DseEngine, ResumeFromEveryCrashPrefixIsBitIdentical) {
  const auto exp = SmallSweep();
  const std::vector<Application> apps = {SmallApp("SM")};
  const std::string path = testing::TempDir() + "/dse_resume_prefix.journal";
  std::remove(path.c_str());

  ClearGlobalCaches();
  dse::DseOptions opt = FastOptions();
  opt.journal_path = path;
  const auto reference = dse::RunSweep(apps, exp.points, opt);
  const std::size_t records = ReadJournal(path).records.size();
  ASSERT_GT(records, 2u);
  const std::string full = testing::TempDir() + "/dse_resume_prefix.ref";
  std::filesystem::copy_file(path, full,
                             std::filesystem::copy_options::overwrite_existing);

  // Appends are fsync'd in order, so a SIGKILL leaves some record-boundary
  // prefix (plus a torn tail recovery drops). Resume from every one of
  // them — including the empty file a kill-before-head leaves — must
  // reproduce the uninterrupted decisions bit-for-bit.
  dse::DseOptions ropt = opt;
  ropt.resume = true;
  for (std::size_t keep = 0; keep <= records; ++keep) {
    std::filesystem::copy_file(
        full, path, std::filesystem::copy_options::overwrite_existing);
    RewriteJournalPrefix(path, keep);
    ClearGlobalCaches();
    const auto resumed = dse::RunSweep(apps, exp.points, ropt);
    EXPECT_EQ(DecisionMap(resumed), DecisionMap(reference))
        << "resume from " << keep << "/" << records << " records diverged";
  }
  std::remove(path.c_str());
  std::remove(full.c_str());
}

TEST(DseEngine, ResumeRejectsJournalOfADifferentSweep) {
  const auto exp = SmallSweep();
  const std::vector<Application> apps = {SmallApp("SM")};
  const std::string path = testing::TempDir() + "/dse_resume_foreign.journal";
  std::remove(path.c_str());

  ClearGlobalCaches();
  dse::DseOptions opt = FastOptions();
  opt.journal_path = path;
  dse::RunSweep(apps, exp.points, opt);

  // Same journal, different sweep shape: a pruning knob moved. The head
  // identity pins every decision input, so resume must refuse instead of
  // splicing foreign results into this sweep.
  dse::DseOptions other = opt;
  other.resume = true;
  other.keep_fraction = 0.5;
  ClearGlobalCaches();
  EXPECT_THROW(dse::RunSweep(apps, exp.points, other), SimError);

  // Dropping a point changes the identity too.
  std::vector<SweepPoint> fewer(exp.points.begin(), exp.points.end() - 1);
  dse::DseOptions ropt = opt;
  ropt.resume = true;
  ClearGlobalCaches();
  EXPECT_THROW(dse::RunSweep(apps, fewer, ropt), SimError);
  std::remove(path.c_str());
}

TEST(DseEngine, ResumeRejectsTamperedPruneAndUnknownRecords) {
  const auto exp = SmallSweep();
  const std::vector<Application> apps = {SmallApp("SM")};
  const std::string path = testing::TempDir() + "/dse_resume_tamper.journal";
  std::remove(path.c_str());

  ClearGlobalCaches();
  dse::DseOptions opt = FastOptions();
  opt.journal_path = path;
  dse::RunSweep(apps, exp.points, opt);
  const JournalRecovery rec = ReadJournal(path);

  // Flip the screen prune decision: drop its last survivor. Replay
  // recomputes the decision from the journaled rung results, so the
  // mismatch is detected, not silently adopted.
  {
    Journal j;
    j.Open(path, /*truncate=*/true, {});
    for (const std::string& r : rec.records) {
      if (r.rfind("prune screen ", 0) == 0) {
        const std::size_t cut = r.find_last_of(' ');
        std::string bent = r.substr(0, cut);
        // Decrement the survivor count to keep the record well-formed.
        const std::size_t n_at = std::string("prune screen ").size();
        const std::size_t n_end = bent.find(' ', n_at);
        const unsigned long n = std::stoul(bent.substr(n_at, n_end - n_at));
        SS_CHECK(n >= 2, "test sweep pruned to fewer than two survivors");
        bent = "prune screen " + std::to_string(n - 1) +
               bent.substr(n_end);
        j.Append(bent);
      } else {
        j.Append(r);
      }
    }
  }
  dse::DseOptions ropt = opt;
  ropt.resume = true;
  ClearGlobalCaches();
  EXPECT_THROW(dse::RunSweep(apps, exp.points, ropt), SimError);

  // An unknown record kind is a version/corruption problem, never skipped.
  {
    Journal j;
    j.Open(path, /*truncate=*/true, {});
    for (const std::string& r : rec.records) j.Append(r);
    j.Append("checkpoint 42");
  }
  ClearGlobalCaches();
  EXPECT_THROW(dse::RunSweep(apps, exp.points, ropt), SimError);
  std::remove(path.c_str());
}

TEST(DseEngine, PruningIsNeverSilent) {
  const auto exp = SmallSweep();
  const std::vector<Application> apps = {SmallApp("SM")};
  ClearGlobalCaches();
  const auto rep = dse::RunSweep(apps, exp.points, FastOptions());
  EXPECT_GT(rep.retired, 0u);
  EXPECT_EQ(rep.retired + rep.promoted, rep.points.size());
  for (const auto& po : rep.points) {
    if (po.promoted) {
      EXPECT_TRUE(po.retired_by.empty()) << po.label;
    } else {
      EXPECT_FALSE(po.retired_by.empty()) << po.label;
      EXPECT_EQ(po.final_cycles, 0u) << po.label;
    }
  }
}

}  // namespace
}  // namespace swiftsim
