// Cross-launch memoization gates (DESIGN.md §10): fingerprint stability
// and sensitivity, bit-identical replay at the analytical-memory level, no
// replay at the cycle-accurate-memory levels, the --no-memo escape hatch,
// and the on-disk cache round trip.
//
// Per-SM counters are compared in aggregate: fresh repeats rotate CTA
// placement across homogeneous SMs while replay reports the recorded
// launch's deltas, so raw per-SM maps are SM-permutation-equivalent
// rather than equal (documented in memo_cache.h).
#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <latch>
#include <map>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "config/ini.h"
#include "config/presets.h"
#include "swiftsim/memo_cache.h"
#include "swiftsim/simulator.h"
#include "trace/fingerprint.h"
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

/// Collapses "sm<id>[.l1].counter" keys to "sm[.l1].counter" sums and
/// drops the "memo.*" driver telemetry, yielding the SM-permutation-
/// invariant view two exact runs must agree on.
std::map<std::string, std::uint64_t> AggregatedMetrics(
    const std::map<std::string, std::uint64_t>& metrics) {
  std::map<std::string, std::uint64_t> out;
  for (const auto& [key, value] : metrics) {
    if (key.rfind("memo.", 0) == 0) continue;
    std::string name = key;
    if (name.rfind("sm", 0) == 0) {
      std::size_t d = 2;
      while (d < name.size() && std::isdigit(static_cast<unsigned char>(
                                    name[d]))) {
        ++d;
      }
      if (d > 2) name = "sm" + name.substr(d);
    }
    out[name] += value;
  }
  return out;
}

void ExpectIdentical(const SimResult& fresh, const SimResult& memo,
                     const std::string& what) {
  EXPECT_EQ(fresh.total_cycles, memo.total_cycles) << what;
  EXPECT_EQ(fresh.instructions, memo.instructions) << what;
  ASSERT_EQ(fresh.kernels.size(), memo.kernels.size()) << what;
  for (std::size_t k = 0; k < fresh.kernels.size(); ++k) {
    EXPECT_EQ(fresh.kernels[k].cycles, memo.kernels[k].cycles)
        << what << " kernel " << k;
    EXPECT_EQ(fresh.kernels[k].instructions, memo.kernels[k].instructions)
        << what << " kernel " << k;
  }
  EXPECT_EQ(AggregatedMetrics(fresh.metrics), AggregatedMetrics(memo.metrics))
      << what;
}

std::uint64_t Metric(const SimResult& r, const std::string& name) {
  const auto it = r.metrics.find(name);
  return it != r.metrics.end() ? it->second : 0;
}

/// The raw metrics without the "memo.*" driver telemetry: two memo runs
/// that replay the same records agree on this per SM, not only summed.
std::map<std::string, std::uint64_t> LaunchMetrics(const SimResult& r) {
  std::map<std::string, std::uint64_t> out;
  for (const auto& [key, value] : r.metrics) {
    if (key.rfind("memo.", 0) != 0) out.emplace(key, value);
  }
  return out;
}

MemoKey SkeletonKey(const GpuConfig& cfg, SimLevel level) {
  MemoKey key;
  key.cfg_hash = cfg.CanonicalHash();
  key.level = static_cast<std::uint8_t>(level);
  return key;
}

// Bytes requested through operator new on this thread while counting.
thread_local bool g_count_allocs = false;
thread_local std::size_t g_alloc_bytes = 0;

template <typename Fn>
std::size_t AllocatedBytes(Fn&& fn) {
  g_alloc_bytes = 0;
  g_count_allocs = true;
  fn();
  g_count_allocs = false;
  return g_alloc_bytes;
}

TEST(Fingerprint, StableAcrossRebuilds) {
  const Application a = SmallApp("BFS");
  const Application b = SmallApp("BFS");
  ASSERT_EQ(a.kernels.size(), b.kernels.size());
  for (std::size_t k = 0; k < a.kernels.size(); ++k) {
    EXPECT_EQ(FingerprintKernel(*a.kernels[k]),
              FingerprintKernel(*b.kernels[k]));
  }
  EXPECT_EQ(FingerprintApplication(a), FingerprintApplication(b));
}

TEST(Fingerprint, DistinguishesKernelsAndApps) {
  const Application bfs = SmallApp("BFS");
  const Application pr = SmallApp("PAGERANK");
  EXPECT_NE(FingerprintApplication(bfs), FingerprintApplication(pr));
  EXPECT_NE(FingerprintKernel(*bfs.kernels.front()),
            FingerprintKernel(*pr.kernels.front()));
}

/// Two-instruction probe kernel; `addr_perturb` shifts one lane address,
/// `regs` varies a KernelInfo field.
KernelTrace ProbeKernel(std::uint64_t addr_perturb, std::uint32_t regs) {
  KernelInfo info;
  info.name = "fp_probe";
  info.id = 7;
  info.num_ctas = 2;
  info.warps_per_cta = 1;
  info.threads_per_cta = 32;
  info.regs_per_thread = regs;
  WarpTrace w;
  TraceInstr ld;
  ld.pc = 0x10;
  ld.op = Opcode::kLdGlobal;
  ld.dst = 3;
  for (unsigned lane = 0; lane < kWarpSize; ++lane) {
    ld.addrs.push_back(0x1000 + lane * 4 + addr_perturb);
  }
  w.push_back(ld);
  TraceInstr ex;
  ex.pc = 0x18;
  ex.op = Opcode::kExit;
  w.push_back(ex);
  return KernelTrace(info, {CtaTrace{{w}}});
}

TEST(Fingerprint, SensitiveToSingleInstruction) {
  const KernelTrace base = ProbeKernel(0, 32);
  const KernelTrace same = ProbeKernel(0, 32);
  const KernelTrace one_addr = ProbeKernel(0x40, 32);
  EXPECT_EQ(FingerprintKernel(base), FingerprintKernel(same));
  EXPECT_NE(FingerprintKernel(base), FingerprintKernel(one_addr));
}

TEST(Fingerprint, SensitiveToKernelInfo) {
  const KernelTrace base = ProbeKernel(0, 32);
  const KernelTrace more_regs = ProbeKernel(0, 33);
  EXPECT_NE(FingerprintKernel(base), FingerprintKernel(more_regs));
}

TEST(Fingerprint, PinnedGoldenValue) {
  // Guards the on-disk MemoCache format: a silent fingerprint change
  // would orphan every persisted entry. Update deliberately when the
  // algorithm changes.
  EXPECT_EQ(FingerprintKernel(ProbeKernel(0, 32)).ToHex(),
            "fc61bb105012821af124ab8c06d73d7f");
}

TEST(Fingerprint, PinnedRepeatedApplication) {
  // Repeated launches share one trace object, so all but the first launch
  // reuse its cached print; the chained value must not notice. Captured
  // before prints were cached in the trace.
  const Application app = RepeatLaunches(SmallApp("BFS", 0.05), 8);
  EXPECT_EQ(FingerprintApplication(app).ToHex(),
            "59073a78322519c2fc3f9fe5e9912849");
}

TEST(Fingerprint, ConcurrentFirstUseMatchesIndependentBuild) {
  // Eight threads take the first print of one shared, never-hashed app at
  // once: the lazily computed value must be published exactly once and
  // seen whole by every thread.
  const Application shared = SmallApp("BFS", 0.05);
  const Application copy = SmallApp("BFS", 0.05);
  constexpr int kThreads = 8;
  std::latch start(kThreads);
  std::vector<Fingerprint> seen(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      seen[t] = FingerprintApplication(shared);
    });
  }
  for (std::thread& th : threads) th.join();
  const Fingerprint want = FingerprintApplication(copy);
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(seen[t], want) << t;
  ASSERT_EQ(shared.kernels.size(), copy.kernels.size());
  for (std::size_t k = 0; k < shared.kernels.size(); ++k) {
    EXPECT_EQ(FingerprintKernel(*shared.kernels[k]),
              FingerprintKernel(*copy.kernels[k]))
        << k;
  }
}

TEST(CanonicalConfigHash, SensitiveToAnyIniField) {
  const GpuConfig base = SmallGpu();
  GpuConfig timing = base;
  timing.l2.latency += 1;
  GpuConfig tail_timing = base;  // the last field ToIniString writes
  tail_timing.effects.dram_latency_extra += 1;
  // Run settings are not config keys: an INI setting all ten of them
  // keys the same memo/DSE entries as the plain config.
  const GpuConfig run_keys = GpuConfig::FromIni(
      IniFile::ParseString("[sim]\ncycle_skip = false\n"
                           "[memo]\nenabled = false\nmax_entries = 1\n"
                           "max_bytes = 1\n"
                           "[trace]\ncache_dir = traces\n"
                           "[watchdog]\nstall_cycles = 2\n"
                           "wall_seconds = 3\ndump_dir = dumps\n"
                           "[degrade]\non_hang = true\nmax_retries = 4\n"),
      base);
  // Older INIs may still carry [parallel] mode, the removed memo
  // convergence knobs or [trace] parallel_build; stale keys are ignored,
  // so they key the same memo/DSE entries.
  const GpuConfig legacy = GpuConfig::FromIni(
      IniFile::ParseString("[parallel]\nmode = intra\n"), base);
  const GpuConfig legacy_memo = GpuConfig::FromIni(
      IniFile::ParseString("[memo]\ndetailed_convergence = true\n"
                           "convergence_min_repeats = 5\n"
                           "convergence_epsilon = 0.5\n"),
      base);
  const GpuConfig legacy_trace = GpuConfig::FromIni(
      IniFile::ParseString("[trace]\nparallel_build = false\n"), base);
  EXPECT_EQ(base.CanonicalHash(), SmallGpu().CanonicalHash());
  EXPECT_EQ(base.CanonicalHash(), legacy.CanonicalHash());
  EXPECT_EQ(base.CanonicalHash(), legacy_memo.CanonicalHash());
  EXPECT_EQ(base.CanonicalHash(), legacy_trace.CanonicalHash());
  EXPECT_EQ(base.CanonicalHash(), run_keys.CanonicalHash());
  EXPECT_NE(base.CanonicalHash(), timing.CanonicalHash());
  EXPECT_NE(base.CanonicalHash(), tail_timing.CanonicalHash());
}

TEST(CanonicalConfigHash, DoublesKeyToTheLastBit) {
  const GpuConfig base = SmallGpu();
  GpuConfig next = base;
  next.effects.icache_miss_rate =
      std::nextafter(base.effects.icache_miss_rate, 1.0);
  EXPECT_NE(base.CanonicalHash(), next.CanonicalHash());
  const GpuConfig reloaded =
      GpuConfig::FromIni(IniFile::ParseString(next.ToIniString()));
  EXPECT_EQ(reloaded.effects.icache_miss_rate, next.effects.icache_miss_rate);
}

TEST(GeometryHash, IgnoresTimingOnlyFields) {
  const GpuConfig base = SmallGpu();
  GpuConfig timing = base;
  timing.l2.latency += 7;
  timing.dram.latency += 2;
  GpuConfig geometry = base;
  geometry.l1.size_bytes *= 2;
  EXPECT_EQ(MemProfileGeometryHash(base), MemProfileGeometryHash(timing));
  EXPECT_NE(MemProfileGeometryHash(base), MemProfileGeometryHash(geometry));
}

TEST(MemoMemoryLevel, BitIdenticalReplay) {
  const GpuConfig cfg = SmallGpu();
  RunOptions no_memo;
  no_memo.memo = false;
  for (const char* name : {"BFS", "PAGERANK"}) {
    const Application app = RepeatLaunches(SmallApp(name), 6);
    const SimResult fresh =
        RunSimulation(app, cfg, SimLevel::kSwiftSimMemory, no_memo);
    ClearGlobalCaches();
    const SimResult cold =
        RunSimulation(app, cfg, SimLevel::kSwiftSimMemory);
    const SimResult warm =
        RunSimulation(app, cfg, SimLevel::kSwiftSimMemory);
    ExpectIdentical(fresh, cold, std::string(name) + " cold");
    ExpectIdentical(fresh, warm, std::string(name) + " warm");
    EXPECT_GT(Metric(cold, "memo.hits"), 0u) << name;
    EXPECT_EQ(Metric(warm, "memo.misses"), 0u) << name;
    EXPECT_GT(Metric(warm, "memo.replayed_cycles"), 0u) << name;
  }
}

TEST(MemoMemoryLevel, PartialReplayMatchesFreshRun) {
  // A's launches replay and B's miss, so the run builds its model at B's
  // first launch, resumed at the clock the replays reached.
  const GpuConfig cfg = SmallGpu();
  const Application a = SmallApp("HOTSPOT");
  const Application b = SmallApp("NW");
  Application app;
  app.name = "HOTSPOTx4+NW";
  for (int i = 0; i < 4; ++i) {
    app.kernels.insert(app.kernels.end(), a.kernels.begin(), a.kernels.end());
  }
  app.kernels.insert(app.kernels.end(), b.kernels.begin(), b.kernels.end());
  RunOptions no_memo;
  no_memo.memo = false;
  const SimResult fresh =
      RunSimulation(app, cfg, SimLevel::kSwiftSimMemory, no_memo);

  ClearGlobalCaches();
  (void)RunSimulation(app, cfg, SimLevel::kSwiftSimMemory);
  // Keep A's records only: they replayed three times, B's never did.
  MemoCache::Global().SetLimits(a.kernels.size(), 0);
  MemoCache::Global().SetLimits(0, 0);
  const SimResult partial =
      RunSimulation(app, cfg, SimLevel::kSwiftSimMemory);
  EXPECT_EQ(Metric(partial, "memo.hits"), 4 * a.kernels.size());
  EXPECT_EQ(Metric(partial, "memo.misses"), b.kernels.size());
  ExpectIdentical(fresh, partial, "HOTSPOTx4 replayed, then NW");
  ClearGlobalCaches();
}

TEST(MemoMemoryLevel, FullReplayBuildsNoModel) {
  const GpuConfig cfg = Rtx2080TiConfig();
  const Application app = RepeatLaunches(SmallApp("BFS"), 4);
  ClearGlobalCaches();
  (void)RunSimulation(app, cfg, SimLevel::kSwiftSimMemory);
  const std::size_t replay_bytes = AllocatedBytes([&] {
    const SimResult r = RunSimulation(app, cfg, SimLevel::kSwiftSimMemory);
    EXPECT_EQ(Metric(r, "memo.misses"), 0u);
  });
  const MemProfile profile = BuildMemProfile(app, cfg);
  const std::size_t model_bytes = AllocatedBytes([&] {
    GpuModel model(cfg, SelectionFor(SimLevel::kSwiftSimMemory), &profile);
  });
  // The whole replayed run allocates less than one model's construction.
  EXPECT_LT(replay_bytes, model_bytes);
  ClearGlobalCaches();
}

TEST(MemoMemoryLevel, ReplayAppliesToRepeatedLaunchesOnly) {
  const GpuConfig cfg = SmallGpu();
  const Application app = SmallApp("GEMM");  // no repeated kernels
  ClearGlobalCaches();
  const SimResult first =
      RunSimulation(app, cfg, SimLevel::kSwiftSimMemory);
  EXPECT_EQ(Metric(first, "memo.hits"), 0u);
  EXPECT_EQ(Metric(first, "memo.misses"),
            static_cast<std::uint64_t>(app.kernels.size()));
}

TEST(MemoBasicLevel, NoReplayAtCycleAccurateMemory) {
  const GpuConfig cfg = SmallGpu();
  ClearGlobalCaches();
  const Application app = RepeatLaunches(SmallApp("BFS"), 3);
  const SimResult r = RunSimulation(app, cfg, SimLevel::kSwiftSimBasic);
  // Cycle-accurate memory makes repeated launches genuinely differ: the
  // memo layer must stay out of the run entirely.
  EXPECT_EQ(r.metrics.count("memo.hits"), 0u);
  EXPECT_EQ(MemoCache::Global().size(), 0u);
}

TEST(MemoDisabled, NoMemoBypassesEveryLayer) {
  GpuConfig cfg = SmallGpu();
  RunOptions no_memo;
  no_memo.memo = false;
  ClearGlobalCaches();
  const Application app = RepeatLaunches(SmallApp("BFS"), 3);
  const SimResult r =
      RunSimulation(app, cfg, SimLevel::kSwiftSimMemory, no_memo);
  EXPECT_EQ(r.metrics.count("memo.hits"), 0u);
  EXPECT_EQ(MemoCache::Global().size(), 0u);
  EXPECT_EQ(ProfileCache::Global().size(), 0u);
}

TEST(MemoCacheFile, SaveLoadRoundTrip) {
  const GpuConfig cfg = SmallGpu();
  const Application app = RepeatLaunches(SmallApp("PAGERANK"), 4);
  ClearGlobalCaches();
  const SimResult cold =
      RunSimulation(app, cfg, SimLevel::kSwiftSimMemory);
  ASSERT_GT(MemoCache::Global().size(), 0u);
  const std::string path = testing::TempDir() + "memo_cache_roundtrip.txt";
  MemoCache::Global().SaveToFile(path);
  MemoCache::Global().Clear();
  MemoCache::Global().LoadFromFile(path);
  const SimResult warm =
      RunSimulation(app, cfg, SimLevel::kSwiftSimMemory);
  EXPECT_EQ(Metric(warm, "memo.misses"), 0u);
  ExpectIdentical(cold, warm, "after reload");
  std::remove(path.c_str());
}

TEST(MemoCacheFile, WarmRunFromReloadedFileMatchesColdRun) {
  const GpuConfig cfg = SmallGpu();
  const Application app = RepeatLaunches(SmallApp("BFS"), 4);
  const MemoKey skeleton_key = SkeletonKey(cfg, SimLevel::kSwiftSimMemory);
  ClearGlobalCaches();
  const SimResult cold =
      RunSimulation(app, cfg, SimLevel::kSwiftSimMemory);
  const std::string path = testing::TempDir() + "memo_cache_warm.txt";
  MemoCache::Global().SaveToFile(path);
  MemoCache::Global().Clear();
  MemoCache::Global().LoadFromFile(path);
  std::remove(path.c_str());
  // The file holds no skeleton: the first warm run builds one fresh model
  // for it, the second reuses the stored one.
  ASSERT_EQ(MemoCache::Global().Skeleton(skeleton_key), nullptr);
  const SimResult warm =
      RunSimulation(app, cfg, SimLevel::kSwiftSimMemory);
  const auto skeleton = MemoCache::Global().Skeleton(skeleton_key);
  ASSERT_NE(skeleton, nullptr);
  const SimResult again =
      RunSimulation(app, cfg, SimLevel::kSwiftSimMemory);
  EXPECT_EQ(MemoCache::Global().Skeleton(skeleton_key), skeleton);

  EXPECT_EQ(Metric(warm, "memo.misses"), 0u);
  ExpectIdentical(cold, warm, "reloaded");
  EXPECT_EQ(LaunchMetrics(cold), LaunchMetrics(warm));
  EXPECT_EQ(warm.metrics, again.metrics);
  ClearGlobalCaches();
}

TEST(MemoCacheFile, RejectsUnknownFormat) {
  const std::string path = testing::TempDir() + "memo_cache_bad.txt";
  FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs("not-a-memo-cache\n", f);
  std::fclose(f);
  MemoCache cache;
  EXPECT_THROW(cache.LoadFromFile(path), SimError);
  std::remove(path.c_str());
}

TEST(ProfileCache, SharedAcrossGeometryEqualConfigs) {
  const GpuConfig base = SmallGpu();
  GpuConfig timing = base;
  timing.dram.latency += 4;
  GpuConfig geometry = base;
  geometry.l1.size_bytes *= 2;
  const Application app = SmallApp("BFS");
  ProfileCache cache;
  const auto first = cache.GetOrBuild(app, base);
  const auto same = cache.GetOrBuild(app, timing);
  const auto other = cache.GetOrBuild(app, geometry);
  EXPECT_FALSE(first.hit);
  EXPECT_TRUE(same.hit);
  EXPECT_EQ(first.profile.get(), same.profile.get());
  EXPECT_FALSE(other.hit);
  EXPECT_NE(first.profile.get(), other.profile.get());
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 2u);
}

MemoKey EvictKey(std::uint64_t n) {
  MemoKey key;
  key.cfg_hash = 0x1234;
  key.context = n;
  key.level = 2;
  return key;
}

LaunchRecord EvictRecord() {
  LaunchRecord rec;
  rec.cycles = 100;
  rec.instructions = 50;
  rec.metric_deltas.emplace_back("sm0.issued_instrs", 50);
  return rec;
}

TEST(MemoEviction, EntryCapHolds) {
  MemoCache cache;
  cache.SetLimits(/*max_entries=*/3, /*max_bytes=*/0);
  for (std::uint64_t n = 0; n < 8; ++n) {
    cache.RecordLaunch(EvictKey(n), EvictRecord());
  }
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.evictions(), 5u);
}

TEST(MemoEviction, LeastReplayedEvictedFirst) {
  MemoCache cache;
  for (std::uint64_t n = 0; n < 4; ++n) {
    cache.RecordLaunch(EvictKey(n), EvictRecord());
  }
  // Keys 0 and 2 earn their slots with replays; 1 and 3 never hit.
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(cache.TryReplay(EvictKey(0)).has_value());
    EXPECT_TRUE(cache.TryReplay(EvictKey(2)).has_value());
  }
  cache.SetLimits(/*max_entries=*/2, /*max_bytes=*/0);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.evictions(), 2u);
  EXPECT_TRUE(cache.TryReplay(EvictKey(0)).has_value());
  EXPECT_TRUE(cache.TryReplay(EvictKey(2)).has_value());
  EXPECT_FALSE(cache.TryReplay(EvictKey(1)).has_value());
  EXPECT_FALSE(cache.TryReplay(EvictKey(3)).has_value());
}

TEST(MemoEviction, ReplayTieBreaksLeastRecent) {
  MemoCache cache;
  for (std::uint64_t n = 0; n < 3; ++n) {
    cache.RecordLaunch(EvictKey(n), EvictRecord());
  }
  // Equal replay counts; touch order 1, 2, 0 makes key 1 least recent.
  EXPECT_TRUE(cache.TryReplay(EvictKey(1)).has_value());
  EXPECT_TRUE(cache.TryReplay(EvictKey(2)).has_value());
  EXPECT_TRUE(cache.TryReplay(EvictKey(0)).has_value());
  cache.SetLimits(/*max_entries=*/2, /*max_bytes=*/0);
  EXPECT_FALSE(cache.TryReplay(EvictKey(1)).has_value());
  EXPECT_TRUE(cache.TryReplay(EvictKey(2)).has_value());
  EXPECT_TRUE(cache.TryReplay(EvictKey(0)).has_value());
}

TEST(MemoEviction, ByteCapHolds) {
  MemoCache cache;
  for (std::uint64_t n = 0; n < 6; ++n) {
    cache.RecordLaunch(EvictKey(n), EvictRecord());
  }
  ASSERT_GT(cache.bytes(), 0u);
  const std::uint64_t per_entry = cache.bytes() / cache.size();
  cache.SetLimits(/*max_entries=*/0, /*max_bytes=*/3 * per_entry);
  EXPECT_LE(cache.bytes(), 3 * per_entry);
  EXPECT_GT(cache.evictions(), 0u);
  EXPECT_LE(cache.size(), 3u);
}

TEST(MemoEviction, UnboundedByDefault) {
  MemoCache cache;
  for (std::uint64_t n = 0; n < 64; ++n) {
    cache.RecordLaunch(EvictKey(n), EvictRecord());
  }
  EXPECT_EQ(cache.size(), 64u);
  EXPECT_EQ(cache.evictions(), 0u);
}

TEST(MemoEviction, CappedRunStaysExact) {
  // End-to-end: a tiny entry cap forces constant churn yet every replayed
  // result must stay bit-identical to the fresh run.
  ClearGlobalCaches();
  const GpuConfig cfg = SmallGpu();
  RunOptions fresh_run;
  fresh_run.memo = false;
  MemoCache::Global().SetLimits(/*max_entries=*/1, /*max_bytes=*/0);
  ProfileCache::Global().SetMaxEntries(1);
  const Application app = RepeatLaunches(SmallApp("BFS"), 4);
  const SimResult fresh =
      RunSimulation(app, cfg, SimLevel::kSwiftSimMemory, fresh_run);
  const SimResult memo = RunSimulation(app, cfg, SimLevel::kSwiftSimMemory);
  ExpectIdentical(fresh, memo, "capped memo run");
  MemoCache::Global().SetLimits(0, 0);
  ProfileCache::Global().SetMaxEntries(0);
  ClearGlobalCaches();
}

TEST(MemoConcurrency, FullReplaysMatchSerialResults) {
  GpuConfig wide = Rtx2080TiConfig();
  wide.num_sms = 68;
  GpuConfig narrow = wide;
  narrow.num_sms = 35;
  const GpuConfig* configs[] = {&wide, &narrow};
  const Application app = RepeatLaunches(SmallApp("BFS"), 4);
  ClearGlobalCaches();
  SimResult serial[2];
  for (int c = 0; c < 2; ++c) {
    (void)RunSimulation(app, *configs[c], SimLevel::kSwiftSimMemory);
    serial[c] = RunSimulation(app, *configs[c], SimLevel::kSwiftSimMemory);
    EXPECT_EQ(Metric(serial[c], "memo.misses"), 0u);
  }
  // Reload the records without their skeletons, so the threads also race
  // to build and store them.
  const std::string path = testing::TempDir() + "memo_cache_threads.txt";
  MemoCache::Global().SaveToFile(path);
  MemoCache::Global().Clear();
  MemoCache::Global().LoadFromFile(path);
  std::remove(path.c_str());

  constexpr int kThreads = 4;
  std::latch start(kThreads);
  std::vector<SimResult> got(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      got[t] = RunSimulation(app, *configs[t % 2], SimLevel::kSwiftSimMemory);
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    const SimResult& want = serial[t % 2];
    const std::string what = "thread " + std::to_string(t);
    EXPECT_EQ(got[t].total_cycles, want.total_cycles) << what;
    EXPECT_EQ(got[t].instructions, want.instructions) << what;
    ASSERT_EQ(got[t].kernels.size(), want.kernels.size()) << what;
    for (std::size_t k = 0; k < want.kernels.size(); ++k) {
      EXPECT_EQ(got[t].kernels[k].cycles, want.kernels[k].cycles) << what;
    }
    EXPECT_EQ(got[t].metrics, want.metrics) << what;
  }
  ClearGlobalCaches();
}

TEST(MemoSkeleton, CountedInBytesAndDroppedByClear) {
  MemoCache cache;
  cache.StoreSkeleton(EvictKey(0),
                      {{"l2.0.hits", 0}, {"sm0.issued_instrs", 0}});
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_GT(cache.bytes(), 0u);
  // Keyed by config hash and level only.
  const auto skeleton = cache.Skeleton(EvictKey(0));
  ASSERT_NE(skeleton, nullptr);
  EXPECT_EQ(cache.Skeleton(EvictKey(1)), skeleton);
  EXPECT_EQ(skeleton->size(), 2u);
  cache.Clear();
  EXPECT_EQ(cache.bytes(), 0u);
  EXPECT_EQ(cache.Skeleton(EvictKey(0)), nullptr);
}

TEST(MemoSkeleton, EvictedWithItsConfigsLastEntry) {
  MemoCache cache;
  MemoKey other = EvictKey(1);
  other.cfg_hash = 0x5678;
  cache.RecordLaunch(EvictKey(0), EvictRecord());
  cache.RecordLaunch(other, EvictRecord());
  cache.StoreSkeleton(EvictKey(0), {{"sm0.issued_instrs", 0}});
  cache.StoreSkeleton(other, {{"sm0.issued_instrs", 0}});
  EXPECT_TRUE(cache.TryReplay(EvictKey(0)).has_value());
  cache.SetLimits(/*max_entries=*/1, /*max_bytes=*/0);
  EXPECT_NE(cache.Skeleton(EvictKey(0)), nullptr);
  EXPECT_EQ(cache.Skeleton(other), nullptr);
  // A byte cap nothing fits under empties the cache, skeletons included.
  cache.SetLimits(/*max_entries=*/0, /*max_bytes=*/1);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.bytes(), 0u);
  EXPECT_EQ(cache.Skeleton(EvictKey(0)), nullptr);
}

TEST(ProfileCacheEviction, LruCapHolds) {
  const Application bfs = SmallApp("BFS");
  const Application pr = SmallApp("PAGERANK");
  const Application sm = SmallApp("SM");
  const GpuConfig cfg = SmallGpu();
  ProfileCache cache;
  cache.SetMaxEntries(2);
  (void)cache.GetOrBuild(bfs, cfg);
  (void)cache.GetOrBuild(pr, cfg);
  EXPECT_TRUE(cache.GetOrBuild(bfs, cfg).hit);  // bfs now most recent
  (void)cache.GetOrBuild(sm, cfg);              // evicts pr (LRU)
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_TRUE(cache.GetOrBuild(bfs, cfg).hit);
  EXPECT_TRUE(cache.GetOrBuild(sm, cfg).hit);
  EXPECT_FALSE(cache.GetOrBuild(pr, cfg).hit);
}

}  // namespace
}  // namespace swiftsim

// Counts what the tests above ask AllocatedBytes to measure; allocation
// itself is plain malloc/free, so gcc's new/free pairing warning is moot.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void* operator new(std::size_t n) {
  if (swiftsim::g_count_allocs) swiftsim::g_alloc_bytes += n;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
