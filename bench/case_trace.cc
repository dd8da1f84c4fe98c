// Trace-footprint and streaming-generation bench (DESIGN.md §14).
//
// Per app it measures:
//   - columnar trace bytes and bytes/instr, against the AoS baseline of
//     sizeof(TraceInstr) per instruction (what the pre-columnar storage
//     paid for every record, addresses inline);
//   - cold generation wall time (variants filled on the shared pool);
//   - compact on-disk cache round-trip: write, then load and fingerprint-
//     check the reloaded application against the generated one.
//
// --smoke turns the measurements into a CI gate: every app must compress
// to <= 1/3 of the AoS bytes/instr, and every cache reload must be
// bit-identical.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>

#include "swiftsim_bench.h"
#include "trace/fingerprint.h"

namespace swiftsim::bench {

namespace {

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

int RunTrace(Bench& b) {
  const BenchOptions& opt = b.opt();
  const bool smoke = b.Has("--smoke");

  WorkloadScale scale;
  scale.scale = opt.scale;
  scale.seed = opt.seed;

  const std::filesystem::path cache_dir =
      opt.trace_cache_dir.empty()
          ? std::filesystem::path("results") / "trace_cache_bench"
          : std::filesystem::path(opt.trace_cache_dir);
  TraceBuildOptions cache_opts;
  cache_opts.cache_dir = cache_dir.string();

  bool gate_ok = true;
  std::printf("%-10s %12s %10s %10s %9s %9s %9s\n", "app", "instrs", "bytes",
              "B/instr", "vs AoS", "build[s]", "load[s]");
  for (const std::string& name : opt.apps) {
    double t0 = Now();
    const Application app = BuildWorkload(name, scale);
    const double build_s = Now() - t0;

    // On-disk cache round-trip: cold write, warm fingerprint-checked load.
    std::error_code ec;
    const Fingerprint key = WorkloadBuildKey(name, scale);
    std::filesystem::remove(cache_dir / (name + "-" + key.ToHex() + ".sstc"),
                            ec);
    bool hit = false;
    BuildWorkloadCached(name, scale, cache_opts, &hit);
    t0 = Now();
    const Application loaded =
        BuildWorkloadCached(name, scale, cache_opts, &hit);
    const double load_s = Now() - t0;
    if (!hit || FingerprintApplication(loaded) != FingerprintApplication(app)) {
      std::printf("ERROR: %s cache reload is not bit-identical\n",
                  name.c_str());
      return EXIT_FAILURE;
    }

    const std::uint64_t instrs = app.TotalInstrs();
    const std::uint64_t bytes = TraceBytesOf(app);
    const double bpi =
        instrs > 0 ? static_cast<double>(bytes) / static_cast<double>(instrs)
                   : 0.0;
    const double reduction = bpi > 0 ? sizeof(TraceInstr) / bpi : 0.0;
    std::printf("%-10s %12llu %10llu %10.2f %8.1fx %9.3f %9.3f\n",
                name.c_str(), static_cast<unsigned long long>(instrs),
                static_cast<unsigned long long>(bytes), bpi, reduction,
                build_s, load_s);
    if (smoke && reduction < 3.0) {
      std::printf("FAIL: %s bytes/instr reduction %.1fx < 3x\n", name.c_str(),
                  reduction);
      gate_ok = false;
    }

    Record r;
    r.app = name;
    r.level = "columnar";
    r.instructions = instrs;
    r.wall_s = build_s;
    r.threads = opt.threads;
    r.Count("cache_load_s", load_s);
    r.Count("trace_bytes", static_cast<double>(bytes));
    r.Count("peak_rss_kb", static_cast<double>(PeakRssKb()));
    b.Append(r);
  }
  std::filesystem::remove_all(cache_dir);

  std::printf("%-10s AoS baseline %zu B/instr\n", "SUITE", sizeof(TraceInstr));
  return gate_ok ? EXIT_SUCCESS : EXIT_FAILURE;
}

}  // namespace swiftsim::bench
