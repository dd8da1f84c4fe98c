#include "config/sweep_spec.h"

#include <algorithm>

#include "common/status.h"
#include "common/strutil.h"
#include "config/ini.h"

namespace swiftsim {

void SweepSpec::AddAxis(const std::string& key,
                        std::vector<std::string> values) {
  SS_REQUIRE(!key.empty(), "sweep axis needs a config key");
  SS_REQUIRE(!values.empty(),
             "sweep axis '" + key + "' needs at least one value");
  for (const auto& v : values) {
    SS_REQUIRE(!v.empty(), "sweep axis '" + key + "' has an empty value");
  }
  const auto pos = std::lower_bound(
      axes_.begin(), axes_.end(), key,
      [](const SweepAxis& a, const std::string& k) { return a.key < k; });
  SS_REQUIRE(pos == axes_.end() || pos->key != key,
             "duplicate sweep axis '" + key + "'");
  axes_.insert(pos, SweepAxis{key, std::move(values)});
}

SweepSpec SweepSpec::FromIni(const IniFile& ini) {
  static constexpr std::string_view kPrefix = "sweep.axis.";
  SweepSpec spec;
  for (const std::string& key : ini.Keys()) {
    if (!StartsWith(key, kPrefix)) continue;
    const std::string cfg_key = key.substr(kPrefix.size());
    spec.AddAxis(cfg_key, Split(ini.GetString(key), ','));
  }
  SS_REQUIRE(!spec.axes_.empty(),
             "sweep spec declares no axes (expected sweep.axis.<key> entries)");
  return spec;
}

SweepSpec SweepSpec::FromFile(const std::string& path) {
  return FromIni(IniFile::ParseFile(path));
}

std::size_t SweepSpec::NumPoints() const {
  if (axes_.empty()) return 0;
  std::size_t n = 1;
  for (const auto& axis : axes_) n *= axis.values.size();
  return n;
}

SweepSpec::Expansion SweepSpec::Expand(const GpuConfig& base,
                                       bool skip_invalid) const {
  SS_REQUIRE(!axes_.empty(), "cannot expand a sweep spec with no axes");
  // Unknown axis keys would silently no-op through FromIni (it reads only
  // the keys it knows); reject them instead.
  const std::set<std::string>& known = GpuConfig::IniKeys();
  for (const auto& axis : axes_) {
    SS_REQUIRE(known.count(axis.key) != 0,
               "sweep axis '" + axis.key + "' is not a GpuConfig key");
  }

  Expansion out;
  out.points.reserve(NumPoints());
  std::vector<std::size_t> odometer(axes_.size(), 0);
  for (;;) {
    IniFile overrides;
    std::string label;
    for (std::size_t a = 0; a < axes_.size(); ++a) {
      const std::string& value = axes_[a].values[odometer[a]];
      overrides.Set(axes_[a].key, value);
      if (!label.empty()) label += ' ';
      label += axes_[a].key + '=' + value;
    }
    try {
      SweepPoint pt;
      pt.index = out.points.size();
      pt.label = std::move(label);
      pt.cfg = GpuConfig::FromIni(overrides, base);
      pt.cfg_hash = pt.cfg.CanonicalHash();
      out.points.push_back(std::move(pt));
    } catch (const SimError& e) {
      if (!skip_invalid) {
        throw SimError("sweep point '" + label + "': " + e.what());
      }
      ++out.skipped_invalid;
    }
    // Odometer step, last axis fastest.
    std::size_t a = axes_.size();
    while (a > 0) {
      --a;
      if (++odometer[a] < axes_[a].values.size()) break;
      odometer[a] = 0;
      if (a == 0) return out;
    }
  }
}

SweepSpec::Expansion SweepSpec::ExpandCapped(const GpuConfig& base,
                                             std::size_t max_points,
                                             bool skip_invalid) const {
  Expansion full = Expand(base, skip_invalid);
  if (max_points == 0 || full.points.size() <= max_points) return full;
  Expansion out;
  out.skipped_invalid = full.skipped_invalid;
  out.points.reserve(max_points);
  // Even stride over canonical order: point i samples position
  // floor(i * total / max_points), touching every axis region instead of
  // truncating to a prefix of the product.
  const std::size_t total = full.points.size();
  for (std::size_t i = 0; i < max_points; ++i) {
    SweepPoint pt = std::move(full.points[i * total / max_points]);
    pt.index = i;
    out.points.push_back(std::move(pt));
  }
  return out;
}

}  // namespace swiftsim
