#include "swiftsim/memo_cache.h"

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <sstream>

#include <unistd.h>

#include "common/status.h"

namespace swiftsim {

std::uint64_t MemoCache::ApproxBytes(const MemoKey& /*key*/,
                                     const Entry& entry) {
  std::uint64_t bytes = sizeof(MemoKey) + sizeof(Entry);
  for (const auto& [name, value] : entry.rec.metric_deltas) {
    bytes += name.size() + sizeof(value) + sizeof(std::string);
  }
  return bytes;
}

void MemoCache::EnforceLimitsLocked() {
  const auto over = [&] {
    return (max_entries_ != 0 && entries_.size() > max_entries_) ||
           (max_bytes_ != 0 && total_bytes_ > max_bytes_);
  };
  while (over() && !entries_.empty()) {
    // Victim: fewest replays, then least recently used. A frequently
    // replayed entry saves a full simulation every hit; a never-hit entry
    // only occupies memory.
    auto victim = entries_.begin();
    for (auto it = std::next(entries_.begin()); it != entries_.end(); ++it) {
      if (it->second.replays < victim->second.replays ||
          (it->second.replays == victim->second.replays &&
           it->second.last_use < victim->second.last_use)) {
        victim = it;
      }
    }
    total_bytes_ -= victim->second.approx_bytes;
    entries_.erase(victim);
    ++evictions_;
  }
}

std::optional<LaunchRecord> MemoCache::TryReplay(const MemoKey& key) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = entries_.find(key);
  if (it == entries_.end() || !it->second.ready) return std::nullopt;
  ++it->second.replays;
  it->second.last_use = ++use_clock_;
  return it->second.rec;
}

void MemoCache::RecordLaunch(const MemoKey& key, LaunchRecord rec,
                             bool exact, unsigned min_repeats,
                             double epsilon) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry& e = entries_[key];
  total_bytes_ -= e.approx_bytes;
  e.last_use = ++use_clock_;
  const auto finish = [&] {
    e.approx_bytes = ApproxBytes(key, e);
    total_bytes_ += e.approx_bytes;
    EnforceLimitsLocked();
  };
  if (e.ready) {  // already promoted (e.g. a racing driver)
    finish();
    return;
  }
  ++e.simulated;
  if (exact) {
    e.rec = std::move(rec);
    e.ready = true;
    finish();
    return;
  }
  // Convergence mode: promote once the last two simulated launches agree
  // within epsilon relative cycles (and at least min_repeats ran). The
  // promoted record is the latest launch — the converged steady state.
  const bool converged =
      e.simulated >= min_repeats && e.prev_cycles > 0 &&
      std::fabs(static_cast<double>(rec.cycles) -
                static_cast<double>(e.prev_cycles)) <=
          epsilon * static_cast<double>(e.prev_cycles);
  e.prev_cycles = rec.cycles;
  if (converged) {
    e.rec = std::move(rec);
    e.ready = true;
  }
  finish();
}

void MemoCache::SetLimits(std::uint64_t max_entries, std::uint64_t max_bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  max_entries_ = max_entries;
  max_bytes_ = max_bytes;
  EnforceLimitsLocked();
}

std::size_t MemoCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

std::uint64_t MemoCache::bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_bytes_;
}

std::uint64_t MemoCache::evictions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return evictions_;
}

void MemoCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
  total_bytes_ = 0;
}

namespace {
constexpr char kMemoFileMagic[] = "swiftsim-memo-v1";
}  // namespace

void MemoCache::SaveToFile(const std::string& path) const {
  // Write-temp-then-rename, like the compact trace cache: a reader (or a
  // daemon loading on startup) never sees a torn file, and a crashed save
  // leaves the previous snapshot intact. The temp name is made unique per
  // process and call so concurrent savers cannot clobber each other's
  // in-progress file — last rename wins with a complete snapshot.
  static std::atomic<std::uint64_t> save_seq{0};
  std::ostringstream tmp_name;
  tmp_name << path << ".tmp." << static_cast<long>(::getpid()) << "."
           << save_seq.fetch_add(1, std::memory_order_relaxed);
  const std::string tmp = tmp_name.str();
  {
    std::ofstream out(tmp, std::ios::trunc);
    SS_CHECK(out.good(), "cannot open memo cache file '" + tmp + "'");
    out << kMemoFileMagic << "\n";
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (const auto& [key, entry] : entries_) {
        if (!entry.ready) continue;
        out << key.kernel_fp.hi << " " << key.kernel_fp.lo << " "
            << key.cfg_hash << " " << key.context << " "
            << static_cast<unsigned>(key.level) << " " << entry.rec.cycles
            << " " << entry.rec.instructions << " "
            << entry.rec.metric_deltas.size() << "\n";
        for (const auto& [name, value] : entry.rec.metric_deltas) {
          out << name << " " << value << "\n";
        }
      }
    }
    SS_CHECK(out.good(), "error writing memo cache file '" + tmp + "'");
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    SS_CHECK(false, "rename '" + tmp + "' -> '" + path + "' failed");
  }
}

void MemoCache::LoadFromFile(const std::string& path) {
  std::ifstream in(path);
  SS_CHECK(in.good(), "cannot read memo cache file '" + path + "'");
  std::string magic;
  std::getline(in, magic);
  SS_CHECK(magic == kMemoFileMagic,
           "memo cache file '" + path + "' has unknown format '" + magic +
               "'");
  std::lock_guard<std::mutex> lock(mu_);
  MemoKey key;
  unsigned level = 0;
  std::size_t ndeltas = 0;
  while (in >> key.kernel_fp.hi >> key.kernel_fp.lo >> key.cfg_hash >>
         key.context >> level) {
    Entry entry;
    entry.ready = true;
    SS_CHECK(in >> entry.rec.cycles >> entry.rec.instructions >> ndeltas,
             "truncated memo cache file '" + path + "'");
    key.level = static_cast<std::uint8_t>(level);
    entry.rec.metric_deltas.reserve(ndeltas);
    for (std::size_t i = 0; i < ndeltas; ++i) {
      std::string name;
      std::uint64_t value = 0;
      SS_CHECK(in >> name >> value,
               "truncated memo cache file '" + path + "'");
      entry.rec.metric_deltas.emplace_back(std::move(name), value);
    }
    entry.approx_bytes = ApproxBytes(key, entry);
    const auto [it, inserted] =
        entries_.emplace(key, std::move(entry));  // existing entries win
    if (inserted) total_bytes_ += it->second.approx_bytes;
  }
  EnforceLimitsLocked();
}

MemoCache& MemoCache::Global() {
  static MemoCache* cache = new MemoCache();
  return *cache;
}

ProfileCache::Fetch ProfileCache::GetOrBuild(const Application& app,
                                             const GpuConfig& cfg,
                                             bool parallel_builder,
                                             unsigned num_threads) {
  const auto t0 = std::chrono::steady_clock::now();
  Key key;
  key.app_fp = FingerprintApplication(app);
  key.geometry = MemProfileGeometryHash(cfg);
  key.parallel = parallel_builder;
  Fetch fetch;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = entries_.find(key);
    if (it != entries_.end()) {
      ++hits_;
      it->second.last_use = ++use_clock_;
      fetch.profile = it->second.profile;
      fetch.hit = true;
    }
  }
  if (!fetch.profile) {
    // Build outside the lock: concurrent batch drivers (RunAppsParallel)
    // must not serialize distinct apps' pre-passes. Racing builders of
    // the same key waste work but stay correct — first insert wins.
    auto built = std::make_shared<const MemProfile>(
        parallel_builder ? BuildMemProfileParallel(app, cfg, num_threads)
                         : BuildMemProfile(app, cfg));
    std::lock_guard<std::mutex> lock(mu_);
    const auto [it, inserted] = entries_.emplace(key, Slot{});
    if (inserted) it->second.profile = std::move(built);
    it->second.last_use = ++use_clock_;
    ++misses_;
    fetch.profile = it->second.profile;
    EnforceLimitLocked();
  }
  const auto t1 = std::chrono::steady_clock::now();
  fetch.seconds = std::chrono::duration<double>(t1 - t0).count();
  return fetch;
}

std::size_t ProfileCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

std::uint64_t ProfileCache::hits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return hits_;
}

std::uint64_t ProfileCache::misses() const {
  std::lock_guard<std::mutex> lock(mu_);
  return misses_;
}

std::uint64_t ProfileCache::evictions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return evictions_;
}

void ProfileCache::SetMaxEntries(std::uint64_t max_entries) {
  std::lock_guard<std::mutex> lock(mu_);
  max_entries_ = max_entries;
  EnforceLimitLocked();
}

void ProfileCache::EnforceLimitLocked() {
  while (max_entries_ != 0 && entries_.size() > max_entries_) {
    auto victim = entries_.begin();
    for (auto it = std::next(entries_.begin()); it != entries_.end(); ++it) {
      if (it->second.last_use < victim->second.last_use) victim = it;
    }
    entries_.erase(victim);  // shared_ptr keeps in-use profiles alive
    ++evictions_;
  }
}

void ProfileCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
  hits_ = 0;
  misses_ = 0;
}

ProfileCache& ProfileCache::Global() {
  static ProfileCache* cache = new ProfileCache();
  return *cache;
}

bool MemoReplayApplicable(const GpuConfig& cfg, SimLevel level) {
  if (SelectionFor(level).mem == MemModelKind::kAnalytical) return true;
  return cfg.memo.detailed_convergence;
}

SimResult RunApplicationMemo(const Application& app, const GpuConfig& cfg,
                             SimLevel level, const MemProfile* profile,
                             MemoCache& cache) {
  cache.SetLimits(cfg.memo.max_entries, cfg.memo.max_bytes);
  const std::uint64_t evictions_before = cache.evictions();
  GpuModel model(cfg, SelectionFor(level), profile);

  struct {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t replayed_cycles = 0;
    std::uint64_t replayed_instrs = 0;
  } stats;
  model.metrics().Register("memo", "hits", &stats.hits);
  model.metrics().Register("memo", "misses", &stats.misses);
  model.metrics().Register("memo", "replayed_cycles",
                           &stats.replayed_cycles);
  model.metrics().Register("memo", "replayed_instrs",
                           &stats.replayed_instrs);

  const bool exact = SelectionFor(level).mem == MemModelKind::kAnalytical;
  MemoKey key;
  key.cfg_hash = cfg.CanonicalHash();
  key.context = FingerprintApplication(app).Fold();
  key.level = static_cast<std::uint8_t>(level);

  SimResult result;
  result.app = app.name;
  result.kernels.reserve(app.kernels.size());
  std::map<std::string, std::uint64_t> replayed_deltas;
  const auto t0 = std::chrono::steady_clock::now();
  for (const auto& kernel : app.kernels) {
    key.kernel_fp = FingerprintKernel(*kernel);

    if (auto rec = cache.TryReplay(key)) {
      model.SyncClock(model.now() + rec->cycles);
      KernelResult kr;
      kr.name = kernel->info().name;
      kr.cycles = rec->cycles;
      kr.instructions = rec->instructions;
      result.kernels.push_back(kr);
      for (const auto& [name, value] : rec->metric_deltas) {
        replayed_deltas[name] += value;
      }
      ++stats.hits;
      stats.replayed_cycles += rec->cycles;
      stats.replayed_instrs += rec->instructions;
      continue;
    }
    ++stats.misses;
    const auto before = model.metrics().Snapshot();
    const std::uint64_t instrs_before = model.TotalIssuedInstrs();
    const Cycle cycles = model.RunKernel(*kernel);
    KernelResult kr;
    kr.name = kernel->info().name;
    kr.cycles = cycles;
    kr.instructions = model.TotalIssuedInstrs() - instrs_before;
    result.kernels.push_back(kr);

    LaunchRecord rec;
    rec.cycles = cycles;
    rec.instructions = kr.instructions;
    const auto after = model.metrics().Snapshot();
    for (const auto& [name, value] : after) {
      if (name.rfind("memo.", 0) == 0) continue;  // driver, not launch
      const auto bit = before.find(name);
      const std::uint64_t delta =
          value - (bit != before.end() ? bit->second : 0);
      if (delta != 0) rec.metric_deltas.emplace_back(name, delta);
    }
    cache.RecordLaunch(key, std::move(rec), exact,
                       cfg.memo.convergence_min_repeats,
                       cfg.memo.convergence_epsilon);
  }
  const auto t1 = std::chrono::steady_clock::now();
  result.total_cycles = model.now();
  result.instructions = model.TotalIssuedInstrs() + stats.replayed_instrs;
  result.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  result.metrics = model.metrics().Snapshot();
  for (const auto& [name, value] : replayed_deltas) {
    result.metrics[name] += value;
  }
  // Eviction telemetry as a per-run delta: the cache is process-global,
  // so absolute counts would leak earlier runs into this result.
  result.metrics["memo.evictions"] = cache.evictions() - evictions_before;
  return result;
}

}  // namespace swiftsim
