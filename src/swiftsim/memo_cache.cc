#include "swiftsim/memo_cache.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <sstream>

#include <unistd.h>

#include "common/status.h"

namespace swiftsim {

namespace {

template <typename Metrics>
std::uint64_t MetricBytes(const Metrics& metrics) {
  std::uint64_t bytes = 0;
  for (const auto& [name, value] : metrics) {
    bytes += name.size() + sizeof(value) + sizeof(std::string);
  }
  return bytes;
}

}  // namespace

std::uint64_t MemoCache::ApproxBytes(const MemoKey& /*key*/,
                                     const Entry& entry) {
  return sizeof(MemoKey) + sizeof(Entry) +
         MetricBytes(entry.rec.metric_deltas);
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
    const SkeletonKey config{victim->first.cfg_hash, victim->first.level};
    total_bytes_ -= victim->second.approx_bytes;
    entries_.erase(victim);
    ++evictions_;
    // A skeleton only serves replays of its config's entries.
    const bool last = std::none_of(
        entries_.begin(), entries_.end(), [&](const auto& e) {
          return e.first.cfg_hash == config.first &&
                 e.first.level == config.second;
        });
    if (const auto sk = skeletons_.find(config);
        last && sk != skeletons_.end()) {
      total_bytes_ -= sk->second.approx_bytes;
      skeletons_.erase(sk);
    }
  }
  // Skeletons left without entries (their first launch never recorded).
  if (over()) {
    for (const auto& [config, slot] : skeletons_) {
      total_bytes_ -= slot.approx_bytes;
    }
    skeletons_.clear();
  }
}

std::optional<ReplayedLaunch> MemoCache::TryReplay(const MemoKey& key,
                                                   MetricMap* deltas) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = entries_.find(key);
  if (it == entries_.end()) return std::nullopt;
  ++it->second.replays;
  it->second.last_use = ++use_clock_;
  const LaunchRecord& rec = it->second.rec;
  if (deltas != nullptr) AddMetrics(rec.metric_deltas, deltas);
  return ReplayedLaunch{rec.cycles, rec.instructions};
}

void MemoCache::RecordLaunch(const MemoKey& key, LaunchRecord rec) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto [it, inserted] = entries_.try_emplace(key);
  Entry& e = it->second;
  e.last_use = ++use_clock_;
  if (inserted) {
    e.rec = std::move(rec);
    e.approx_bytes = ApproxBytes(key, e);
    total_bytes_ += e.approx_bytes;
  }
  EnforceLimitsLocked();
}

std::shared_ptr<const MetricMap> MemoCache::Skeleton(
    const MemoKey& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = skeletons_.find({key.cfg_hash, key.level});
  return it != skeletons_.end() ? it->second.metrics : nullptr;
}

void MemoCache::StoreSkeleton(const MemoKey& key, MetricMap metrics) {
  SkeletonSlot slot;
  slot.approx_bytes = sizeof(SkeletonSlot) + MetricBytes(metrics);
  slot.metrics = std::make_shared<const MetricMap>(std::move(metrics));
  std::lock_guard<std::mutex> lock(mu_);
  const auto [it, inserted] =
      skeletons_.try_emplace({key.cfg_hash, key.level}, std::move(slot));
  if (!inserted) return;
  total_bytes_ += it->second.approx_bytes;
  EnforceLimitsLocked();
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
  skeletons_.clear();
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
                                             const GpuConfig& cfg) {
  const auto t0 = std::chrono::steady_clock::now();
  Key key;
  key.app_fp = FingerprintApplication(app);
  key.geometry = MemProfileGeometryHash(cfg);
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
    auto built =
        std::make_shared<const MemProfile>(BuildMemProfile(app, cfg));
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

}  // namespace swiftsim
