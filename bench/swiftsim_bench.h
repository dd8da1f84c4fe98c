// `swiftsim_bench <case> [flags]`: one driver for every reproduction of
// the paper's tables, figures and ablations and for the perf and chaos
// gates. The driver parses the flags a case declares, prints its header
// and hands the case a Bench; each case measures, prints and appends its
// records (bench_common.h) to --json, by default results/<case>.jsonl.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "bench_common.h"

namespace swiftsim::bench {

/// What a case receives from the driver.
class Bench {
 public:
  Bench(std::string name, BenchOptions opt,
        std::map<std::string, std::string> flags)
      : name_(std::move(name)), opt_(std::move(opt)),
        flags_(std::move(flags)) {}

  const BenchOptions& opt() const { return opt_; }

  /// The requested workloads, built on first use (so a case that skips
  /// or fails validation builds nothing).
  const std::vector<Application>& Apps();
  /// Wall time of each app's build, in Apps() order.
  const std::vector<double>& BuildSeconds();

  /// The case's own flags: a switch is present or not; a value flag
  /// parses as the named type, or `fallback` when it was not given.
  bool Has(const std::string& flag) const { return flags_.count(flag) != 0; }
  std::string String(const std::string& flag,
                     const std::string& fallback) const;
  std::uint64_t Uint(const std::string& flag, std::uint64_t fallback) const;
  unsigned Unsigned(const std::string& flag, unsigned fallback) const;
  double Double(const std::string& flag, double fallback) const;

  /// True, after printing SKIP, when --smoke was given on a host with
  /// fewer than 4 hardware threads: a --smoke gate's speedup floor means
  /// nothing there. Cases whose --smoke gate times something return 77.
  bool SkipTimedSmoke() const;

  /// Stamps `r` with the case, options and host and appends it to --json.
  void Append(Record r) const;

  /// Runs `app` through the run pipeline under opt().run, appends its
  /// record (with `arm` as its level when given) and returns it.
  Record Run(const Application& app, const GpuConfig& cfg, SimLevel level,
             const std::string& arm = "") const;

 private:
  std::string name_;
  BenchOptions opt_;
  std::map<std::string, std::string> flags_;
  std::vector<Application> apps_;
  std::vector<double> build_seconds_;
  bool built_ = false;
};

// One function per case, each in its own case_<name>.cc. The return value
// is the process exit code (77 = skipped on this host).
int RunTable1(Bench& b);
int RunTable2(Bench& b);
int RunFig4(Bench& b);
int RunFig5(Bench& b);
int RunFig6(Bench& b);
int RunAblationHybrid(Bench& b);
int RunAblationDse(Bench& b);
int RunAblationSampling(Bench& b);
int RunHotpath(Bench& b);
int RunMemo(Bench& b);
int RunDse(Bench& b);
int RunTrace(Bench& b);
int RunService(Bench& b);

}  // namespace swiftsim::bench
