#include "harness.h"

#include <malloc.h>
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "analytical/cache_prepass.h"
#include "bench_common.h"
#include "common/json.h"
#include "common/stats.h"
#include "common/thread_pool.h"
#include "swiftsim/memo_cache.h"
#include "workloads/workload.h"

namespace perfbench {

using swiftsim::Application;
using swiftsim::GpuConfig;
using swiftsim::SimLevel;

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// --- Spans -----------------------------------------------------------------

Tracer::Tracer() : epoch_(Clock::now()) {}

std::uint64_t Tracer::NextId() {
  std::lock_guard<std::mutex> lock(mu_);
  return next_id_++;
}

void Tracer::Record(std::uint64_t id, const std::string& name,
                    std::uint64_t parent, Clock::time_point start,
                    Clock::time_point end, unsigned tid) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(mu_);
  SpanRecord r;
  r.id = id;
  r.parent = parent;
  r.name = name;
  r.start_s = Seconds(epoch_, start);
  r.end_s = Seconds(epoch_, end);
  r.tid = tid;
  spans_.push_back(std::move(r));
}

void Tracer::WriteTraceEvents(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  swiftsim::JsonWriter w;
  w.BeginObject().Key("displayTimeUnit").String("ms");
  w.Key("traceEvents").BeginArray();
  for (const SpanRecord& s : spans_) {
    const std::string layer = s.name.substr(0, s.name.find('.'));
    w.BeginObject();
    w.Key("name").String(s.name);
    w.Key("cat").String(layer);
    w.Key("ph").String("X");
    w.Key("ts").Double(s.start_s * 1e6);
    w.Key("dur").Double((s.end_s - s.start_s) * 1e6);
    w.Key("pid").Uint(1);
    w.Key("tid").Uint(s.tid);
    w.Key("args").BeginObject();
    w.Key("id").Uint(s.id);
    w.Key("parent").Uint(s.parent);
    w.Key("run").String(run_id_);
    w.EndObject();
    w.EndObject();
  }
  w.EndArray().EndObject();
  std::ofstream f(path);
  f << w.str() << "\n";
  if (!f) throw std::runtime_error("cannot write " + path);
}

std::map<std::string, double> Tracer::WriteSelfTimeTable(
    const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::uint64_t, double> child_time;
  for (const SpanRecord& s : spans_) {
    if (s.parent != 0) child_time[s.parent] += s.end_s - s.start_s;
  }
  std::map<std::string, double> self;
  std::map<std::string, double> total;
  std::map<std::string, std::uint64_t> count;
  for (const SpanRecord& s : spans_) {
    const std::string layer = s.name.substr(0, s.name.find('.'));
    const double dur = s.end_s - s.start_s;
    auto it = child_time.find(s.id);
    self[layer] += std::max(0.0, dur - (it == child_time.end() ? 0 : it->second));
    total[layer] += dur;
    ++count[layer];
  }
  std::ofstream f(path);
  f << "layer\tspans\ttotal_s\tself_s\n";
  for (const auto& [layer, s] : self) {
    f << layer << "\t" << count[layer] << "\t" << total[layer] << "\t" << s
      << "\n";
  }
  if (!f) throw std::runtime_error("cannot write " + path);
  return self;
}

namespace {
/// Small per-thread index: the trace-event `tid`, so spans from pool
/// workers land on their own tracks.
unsigned ThreadIndex() {
  static std::atomic<unsigned> next{0};
  thread_local const unsigned index = next++;
  return index;
}
}  // namespace

Span::Span(Tracer& tracer, const char* name, std::uint64_t parent)
    : tracer_(tracer), name_(name), parent_(parent), start_(Clock::now()) {
  if (tracer_.enabled()) id_ = tracer_.NextId();
}

Span::~Span() { End(); }

double Span::End() {
  if (seconds_ >= 0) return seconds_;
  const Clock::time_point end = Clock::now();
  seconds_ = Seconds(start_, end);
  if (id_ != 0) tracer_.Record(id_, name_, parent_, start_, end, ThreadIndex());
  return seconds_;
}

// --- Statistics ------------------------------------------------------------

double Median(std::vector<double> v) {
  return swiftsim::Quantile(std::move(v), 0.5);
}

unsigned UsableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof set, &set) != 0) {
    throw std::runtime_error("sched_getaffinity failed");
  }
  return static_cast<unsigned>(std::max(1, CPU_COUNT(&set)));
}

double PeakRssMb(const std::string& pid) {
  std::ifstream f("/proc/" + pid + "/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream is(line.substr(6));
      double kb = 0;
      is >> kb;
      return kb / 1024.0;
    }
  }
  throw std::runtime_error("no VmHWM in /proc/" + pid + "/status");
}

void ResetPeakRss() {
  ::malloc_trim(0);
  std::ofstream f("/proc/self/clear_refs");
  f << "5";  // "5": reset the peak resident set size
  f.close();
  if (!f) throw std::runtime_error("cannot reset VmHWM via /proc/self/clear_refs");
}

void Rounds::Add(double seconds, bool was_traced) {
  wall.push_back(seconds);
  (was_traced ? traced : untraced).push_back(seconds);
}

double Rounds::OverheadPct() const {
  if (traced.empty() || untraced.empty()) return 0;
  return 100.0 * (Median(traced) / Median(untraced) - 1.0);
}

// --- Inputs ----------------------------------------------------------------

std::uint64_t DeriveSeed(std::uint64_t seed, std::uint64_t salt) {
  // splitmix64 finaliser over the pair.
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + salt + 0x632be59bd9b4e019ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

namespace {

Reference RunReference(const Application& app, const GpuConfig& cfg,
                       SimLevel level, Tracer& tracer, std::uint64_t parent) {
  Span span(tracer, "reference.app", parent);
  std::unique_ptr<swiftsim::MemProfile> profile;
  if (swiftsim::SelectionFor(level).mem == swiftsim::MemModelKind::kAnalytical) {
    Span pre(tracer, "reference.prepass", span.id());
    profile = std::make_unique<swiftsim::MemProfile>(
        swiftsim::BuildMemProfile(app, cfg));
  }
  swiftsim::GpuModel model(cfg, swiftsim::SelectionFor(level), profile.get());
  Reference ref;
  for (const auto& kernel : app.kernels) {
    Span k(tracer, "reference.kernel", span.id());
    ref.cycles += model.RunKernel(*kernel);
  }
  ref.instructions = model.TotalIssuedInstrs();
  ref.metrics = model.metrics().Snapshot();
  return ref;
}

/// Sums "<module_prefix><digits>.<counter>" over a metrics map, e.g.
/// "sm3.l1.hits" for ("sm", "l1.hits") or "l2.7.hits" for ("l2.", "hits").
std::uint64_t SumMetric(const std::map<std::string, std::uint64_t>& m,
                        const std::string& module_prefix,
                        const std::string& counter) {
  std::uint64_t sum = 0;
  for (const auto& [name, value] : m) {
    if (name.size() <= module_prefix.size() + counter.size() + 1) continue;
    if (name.compare(0, module_prefix.size(), module_prefix) != 0) continue;
    const std::size_t at = name.size() - counter.size();
    if (name.compare(at, std::string::npos, counter) != 0) continue;
    if (name[at - 1] != '.') continue;
    const auto first = name.begin() + static_cast<long>(module_prefix.size());
    const auto last = name.begin() + static_cast<long>(at - 1);
    if (std::all_of(first, last, [](char c) { return c >= '0' && c <= '9'; })) {
      sum += value;
    }
  }
  return sum;
}

}  // namespace

// --- Serial references -----------------------------------------------------

std::vector<Reference> RunReferences(const std::vector<Application>& apps,
                                     const GpuConfig& cfg, SimLevel level,
                                     unsigned threads, Tracer& tracer) {
  Span span(tracer, "reference.batch");
  std::vector<Reference> refs(apps.size());
  swiftsim::ThreadPool::Shared().ParallelFor(
      apps.size(), threads, [&](std::size_t i) {
        refs[i] = RunReference(apps[i], cfg, level, tracer, span.id());
      });
  return refs;
}

const std::vector<std::string>& AppMix() {
  static const std::vector<std::string> kMix = {"BFS", "PAGERANK", "SM",
                                                "NW",  "GEMM",     "SRAD"};
  return kMix;
}

void MeasureAccuracy(RunResult* out, unsigned threads, Tracer& tracer) {
  Span span(tracer, "reference.accuracy");
  std::vector<Application> apps;
  for (const std::string& name : AppMix()) {
    apps.push_back(swiftsim::BuildWorkload(name, {kMixScale, 0x5eed5eedULL}));
  }
  const GpuConfig cfg;
  const SimLevel levels[] = {SimLevel::kSilicon, SimLevel::kDetailed,
                             SimLevel::kSwiftSimBasic,
                             SimLevel::kSwiftSimMemory};
  // refs[level][app], all four levels in one parallel batch.
  std::vector<std::vector<Reference>> refs(4, std::vector<Reference>(apps.size()));
  swiftsim::ThreadPool::Shared().ParallelFor(
      4 * apps.size(), threads, [&](std::size_t k) {
        refs[k / apps.size()][k % apps.size()] = RunReference(
            apps[k % apps.size()], cfg, levels[k / apps.size()], tracer,
            span.id());
      });

  const char* const err_names[] = {"err_detailed_pct", "err_basic_pct",
                                   "err_memory_pct"};
  const auto cycles = [&](int level) {
    std::vector<double> v;
    for (const Reference& r : refs[level]) v.push_back(static_cast<double>(r.cycles));
    return v;
  };
  for (int l = 1; l < 4; ++l) {
    out->Set(err_names[l - 1],
             100.0 * swiftsim::MeanAbsRelError(cycles(l), cycles(0)), "%");
  }

  std::map<std::string, std::uint64_t> m;  // detailed level, summed
  std::uint64_t skipped = 0, ca_cycles = 0;
  for (std::size_t i = 0; i < apps.size(); ++i) {
    for (const auto& [k, v] : refs[1][i].metrics) m[k] += v;
    for (int l : {1, 2}) {  // the cycle-accurate-memory levels
      skipped += refs[l][i].metrics.at("driver.cycles_skipped");
      ca_cycles += refs[l][i].cycles;
    }
  }
  const auto ratio = [](std::uint64_t a, std::uint64_t b) {
    return b == 0 ? 0.0 : static_cast<double>(a) / static_cast<double>(b);
  };
  const auto count = [](std::uint64_t v) { return static_cast<double>(v); };
  out->Set("sim.skip_share", ratio(skipped, ca_cycles), "ratio");
  out->Set("core.issued_instrs", count(SumMetric(m, "sm", "issued_instrs")),
           "count");
  out->Set("core.stall_cycles", count(SumMetric(m, "sm", "stall_cycles")),
           "count");
  out->Set("mem.l1_hit_rate",
           ratio(SumMetric(m, "sm", "l1.hits"), SumMetric(m, "sm", "l1.accesses")),
           "ratio");
  out->Set("mem.l2_hit_rate",
           ratio(SumMetric(m, "l2.", "hits"), SumMetric(m, "l2.", "accesses")),
           "ratio");
  out->Set("mem.reservation_fails",
           count(SumMetric(m, "sm", "l1.reservation_fails") +
                 SumMetric(m, "l2.", "reservation_fails")),
           "count");
  out->Set("mem.dram_bytes", count(SumMetric(m, "dram.", "bytes")), "B");
  out->Set("mem.noc_inject_stalls", count(m["noc.req.inject_stalls"]), "count");
}

std::vector<Application> BuildApps(const std::vector<AppSpec>& specs,
                                   Tracer& tracer, std::vector<double>* walls) {
  std::vector<Application> apps;
  Span s(tracer, "workloads.build_mix");
  for (const AppSpec& spec : specs) {
    Span b(tracer, "workloads.build", s.id());
    apps.push_back(swiftsim::BuildWorkload(spec.name, spec.scale));
  }
  walls->push_back(s.End());
  return apps;
}

void ResetGlobalCaches() {
  swiftsim::MemoCache::Global().Clear();
  swiftsim::ProfileCache::Global().Clear();
}

// --- Result ----------------------------------------------------------------

void RunResult::Check(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  if (failures.size() < 8) failures.push_back(what);
}

void SetAppSetLayers(RunResult* out, const std::vector<Application>& apps,
                     double build_s) {
  std::uint64_t instrs = 0;
  std::uint64_t bytes = 0;
  for (const Application& app : apps) {
    instrs += app.TotalInstrs();
    bytes += swiftsim::bench::TraceBytesOf(app);
  }
  out->Set("workloads.build_s", build_s, "s");
  out->Set("workloads.instrs", static_cast<double>(instrs), "count");
  out->Set("trace.bytes_per_instr",
           static_cast<double>(bytes) / static_cast<double>(instrs), "B/instr");
}

void SetMemoLayer(RunResult* out, std::uint64_t hits, std::uint64_t misses,
                  std::uint64_t cycles_avoided) {
  out->Set("memo.hits", static_cast<double>(hits), "count");
  out->Set("memo.misses", static_cast<double>(misses), "count");
  out->Set("memo.hit_ratio",
           hits + misses == 0 ? 0.0
                              : static_cast<double>(hits) /
                                    static_cast<double>(hits + misses),
           "ratio");
  out->Set("memo.cycles_avoided", static_cast<double>(cycles_avoided), "count");
}

const std::vector<std::pair<std::string, std::string>>& EndToEndMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kNames = {
      {"setup_s", "s"},          {"wall_s", "s"},
      {"sim_ips", "instr/s"},    {"peak_rss_mb", "MB"},
      {"err_detailed_pct", "%"}, {"err_basic_pct", "%"},
      {"err_memory_pct", "%"},
  };
  return kNames;
}

const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kNames = {
      {"workloads.build_s", "s"},
      {"workloads.instrs", "count"},
      {"trace.bytes_per_instr", "B/instr"},
      {"analytical.prepass_s", "s"},
      {"analytical.prepass_built", "count"},
      {"analytical.prepass_shared", "count"},
      {"sim.detailed_s", "s"},
      {"sim.basic_s", "s"},
      {"sim.memory_s", "s"},
      {"sim.ns_per_instr.detailed", "ns/instr"},
      {"sim.ns_per_instr.basic", "ns/instr"},
      {"sim.ns_per_instr.memory", "ns/instr"},
      {"sim.detailed_ips", "instr/s"},
      {"sim.basic_ips", "instr/s"},
      {"sim.memory_ips", "instr/s"},
      {"sim.skip_share", "ratio"},
      {"core.alu_frontend_s", "s"},
      {"mem.ca_s", "s"},
      {"core.issued_instrs", "count"},
      {"core.stall_cycles", "count"},
      {"mem.l1_hit_rate", "ratio"},
      {"mem.l2_hit_rate", "ratio"},
      {"mem.reservation_fails", "count"},
      {"mem.dram_bytes", "B"},
      {"mem.noc_inject_stalls", "count"},
      {"memo.hits", "count"},
      {"memo.misses", "count"},
      {"memo.hit_ratio", "ratio"},
      {"memo.cycles_avoided", "count"},
      {"parallel.mt_speedup", "x"},
      {"parallel.detailed_mt_ips", "instr/s"},
      {"parallel.tg_rounds", "count"},
      {"parallel.tg_steals", "count"},
      {"parallel.lane_util_pct", "%"},
      {"dse.points_per_s", "1/s"},
      {"dse.screen_s", "s"},
      {"dse.refine_s", "s"},
      {"dse.final_s", "s"},
      {"dse.screen_sims", "count"},
      {"dse.screen_deduped", "count"},
      {"dse.promoted", "count"},
      {"dse.retired", "count"},
      {"service.req_per_s", "1/s"},
      {"service.requests", "count"},
      {"service.latency_p50_s", "s"},
      {"service.latency_p99_s", "s"},
      {"service.queue_p50_s", "s"},
      {"service.queue_p99_s", "s"},
      {"service.sim_p50_s", "s"},
      {"service.sim_p99_s", "s"},
      {"service.transport_p50_s", "s"},
      {"service.coalesced", "count"},
      {"service.app_cache_hit_ratio", "ratio"},
      {"service.rejected", "count"},
      {"trace_overhead_pct", "%"},
  };
  return kNames;
}

void BypassLayer(RunResult* out, const std::string& layer_prefix) {
  for (const auto& [name, unit] : PerLayerMetrics()) {
    if (name.rfind(layer_prefix, 0) == 0) out->Set(name, 0.0, unit);
  }
}

}  // namespace perfbench
