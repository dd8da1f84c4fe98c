#include "sim/metrics.h"

#include "common/status.h"
#include "sim/sm.h"

namespace swiftsim {

void MetricsGatherer::Register(const std::string& module,
                               const std::string& counter, Source source) {
  const auto [it, inserted] =
      sources_.try_emplace(module + "." + counter, std::move(source));
  SS_CHECK(inserted, "duplicate metric '" + it->first + "'");
}

void MetricsGatherer::Register(const std::string& module,
                               const std::string& counter,
                               const std::uint64_t* var) {
  Register(module, counter, [var] { return *var; });
}

std::map<std::string, std::uint64_t> MetricsGatherer::Snapshot() const {
  std::map<std::string, std::uint64_t> out;
  // sources_ is in key order, so every insert lands at the end.
  for (const auto& [key, source] : sources_) {
    out.emplace_hint(out.end(), key, source());
  }
  return out;
}

void RegisterSmMetrics(MetricsGatherer& gatherer, const SmCore& sm) {
  const std::string mod = "sm" + std::to_string(sm.id());
  const SmStats* st = &sm.stats();
  gatherer.Register(mod, "issued_instrs", &st->issued_instrs);
  gatherer.Register(mod, "issued_mem", &st->issued_mem);
  gatherer.Register(mod, "active_cycles", &st->active_cycles);
  gatherer.Register(mod, "stall_cycles", &st->stall_cycles);
  gatherer.Register(mod, "completed_ctas", &st->completed_ctas);
  if (const CacheStats* l1 = sm.l1_stats()) {
    gatherer.Register(mod + ".l1", "accesses", &l1->accesses);
    gatherer.Register(mod + ".l1", "hits", &l1->hits);
    gatherer.Register(mod + ".l1", "misses", &l1->misses);
    gatherer.Register(mod + ".l1", "sector_misses", &l1->sector_misses);
    gatherer.Register(mod + ".l1", "reservation_fails",
                      &l1->reservation_fails);
    gatherer.Register(mod + ".l1", "bank_conflicts", &l1->bank_conflicts);
  }
}

}  // namespace swiftsim
