// perfbench: the repository benchmark runner. One process runs one workload
// once; run.py builds it, makes the run's directories, tags the record with
// the host and build, and prints the result line.
//
//   perfbench --workload oneshot|dse-sweep|service --seed N --seconds S
//             --trace 0|1 --tmp DIR --out DIR --swiftsimd PATH
//
// The worker budget is the number of CPUs the process may run on; it is
// passed explicitly to every entry point that takes one.
//
// Prints one JSON object on stdout: correct, attempted, failed, metrics
// (the end-to-end set, or with --trace 1 the per-layer set), threads and
// failures.
// With --trace 1 it also writes DIR/trace.json (Chrome trace events) and
// DIR/layers.tsv (per-layer self time).
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common/json.h"
#include "harness.h"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define PERFBENCH_SANITIZED 1
#else
#define PERFBENCH_SANITIZED 0
#endif

namespace {

using perfbench::Options;

[[noreturn]] void Usage(const std::string& why) {
  std::fprintf(stderr, "perfbench: %s\n", why.c_str());
  std::exit(2);
}

Options ParseArgs(int argc, char** argv) {
  Options opt;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(flag + " needs a value");
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        opt.workload = value;
      } else if (flag == "--seed") {
        opt.seed = std::stoull(value);
        have_seed = true;
      } else if (flag == "--seconds") {
        opt.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") Usage("--trace takes 0 or 1");
        opt.trace = value == "1";
      } else if (flag == "--tmp") {
        opt.tmp_dir = value;
      } else if (flag == "--out") {
        opt.out_dir = value;
      } else if (flag == "--swiftsimd") {
        opt.swiftsimd = value;
      } else {
        Usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      Usage("bad value for " + flag + ": " + value);
    }
  }
  if (opt.workload.empty() || !have_seed) {
    Usage("--workload and --seed are required");
  }
  if (!(opt.seconds > 0)) Usage("--seconds must be positive");
  if (opt.tmp_dir.empty() || opt.out_dir.empty()) {
    Usage("--tmp and --out are required");
  }
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  if (PERFBENCH_SANITIZED) {
    std::fprintf(stderr,
                 "perfbench: refusing to report timings from a sanitizer build\n");
    return 3;
  }
  Options opt = ParseArgs(argc, argv);
  opt.threads = perfbench::UsableCpus();
  perfbench::Tracer tracer;
  tracer.set_run_id(opt.workload + "-seed" + std::to_string(opt.seed));

  perfbench::RunResult result;
  try {
    if (opt.workload == "oneshot") {
      result = perfbench::RunOneshot(opt, tracer);
    } else if (opt.workload == "dse-sweep") {
      result = perfbench::RunDseSweep(opt, tracer);
    } else if (opt.workload == "service") {
      if (opt.swiftsimd.empty()) Usage("service needs --swiftsimd");
      result = perfbench::RunService(opt, tracer);
    } else {
      Usage("unknown workload " + opt.workload);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", opt.workload.c_str(),
                 e.what());
    return 1;
  }

  if (opt.trace) {
    tracer.WriteTraceEvents(opt.out_dir + "/trace.json");
    tracer.WriteSelfTimeTable(opt.out_dir + "/layers.tsv");
  }

  const auto& names =
      opt.trace ? perfbench::PerLayerMetrics() : perfbench::EndToEndMetrics();
  swiftsim::JsonWriter w;
  w.BeginObject();
  w.Key("correct").Bool(result.failed == 0 && result.attempted > 0);
  w.Key("attempted").Uint(result.attempted);
  w.Key("failed").Uint(result.failed);
  w.Key("metrics").BeginObject();
  for (const auto& [name, unit] : names) {
    auto it = result.metrics.find(name);
    if (it == result.metrics.end() || it->second.unit != unit) {
      std::fprintf(stderr, "perfbench: %s did not report %s [%s]\n",
                   opt.workload.c_str(), name.c_str(), unit.c_str());
      return 1;
    }
    w.Key(name).BeginObject();
    w.Key("value").Double(it->second.value);
    w.Key("unit").String(unit);
    w.EndObject();
  }
  w.EndObject();
  w.Key("threads").Uint(opt.threads);
  w.Key("failures").BeginArray();
  for (const std::string& f : result.failures) w.String(f);
  w.EndArray();
  w.EndObject();
  std::printf("%s\n", w.str().c_str());
  return 0;
}
