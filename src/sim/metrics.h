// The Metrics Gatherer (paper §III-C): modules register named counters;
// the gatherer snapshots them all after simulation so architects can read
// overall performance and per-component bottleneck metrics.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace swiftsim {

class MetricsGatherer {
 public:
  /// Registers a live counter variable (must outlive this) under
  /// "module.counter".
  void Register(const std::string& module, const std::string& counter,
                const std::uint64_t* var);

  /// Reads every registered counter.
  std::map<std::string, std::uint64_t> Snapshot() const;

  std::size_t size() const { return sources_.size(); }

 private:
  std::map<std::string, const std::uint64_t*> sources_;
};

class SmCore;

/// Registers one SM's standard counters (and its L1's, when the SM owns a
/// cycle-accurate L1) under "sm<id>[.l1]".
void RegisterSmMetrics(MetricsGatherer& gatherer, const SmCore& sm);

}  // namespace swiftsim
