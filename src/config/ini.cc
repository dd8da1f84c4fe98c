#include "config/ini.h"

#include <fstream>
#include <sstream>

#include "common/status.h"
#include "common/strutil.h"

namespace swiftsim {

namespace {
// Strips an unquoted trailing comment beginning with '#' or ';'.
std::string_view StripComment(std::string_view line) {
  for (std::size_t i = 0; i < line.size(); ++i) {
    if (line[i] == '#' || line[i] == ';') return line.substr(0, i);
  }
  return line;
}
}  // namespace

IniFile IniFile::ParseString(std::string_view text) {
  IniFile ini;
  std::string section;
  std::size_t line_no = 0;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string_view::npos) eol = text.size();
    std::string_view raw = text.substr(pos, eol - pos);
    pos = eol + 1;
    ++line_no;

    std::string_view line = Trim(StripComment(raw));
    if (line.empty()) {
      if (pos > text.size()) break;
      continue;
    }
    if (line.front() == '[') {
      SS_REQUIRE(line.back() == ']', "unterminated section header at line " +
                                         std::to_string(line_no));
      section = std::string(Trim(line.substr(1, line.size() - 2)));
      SS_REQUIRE(!section.empty(),
                 "empty section name at line " + std::to_string(line_no));
      continue;
    }
    const std::size_t eq = line.find('=');
    SS_REQUIRE(eq != std::string_view::npos,
               "expected 'key = value' at line " + std::to_string(line_no));
    std::string key(Trim(line.substr(0, eq)));
    std::string value(Trim(line.substr(eq + 1)));
    SS_REQUIRE(!key.empty(), "empty key at line " + std::to_string(line_no));
    if (!section.empty()) key = section + "." + key;
    ini.values_[key] = value;
    if (pos > text.size()) break;
  }
  return ini;
}

IniFile IniFile::ParseFile(const std::string& path) {
  std::ifstream in(path);
  SS_REQUIRE(in.good(), "cannot open config file '" + path + "'");
  std::ostringstream os;
  os << in.rdbuf();
  return ParseString(os.str());
}

bool IniFile::Has(const std::string& key) const {
  return values_.count(key) != 0;
}

std::string IniFile::GetString(const std::string& key) const {
  auto it = values_.find(key);
  SS_REQUIRE(it != values_.end(), "missing config key '" + key + "'");
  return it->second;
}

std::int64_t IniFile::GetInt(const std::string& key) const {
  return ParseInt(GetString(key), key);
}

std::uint64_t IniFile::GetUint(const std::string& key) const {
  return ParseUint(GetString(key), key);
}

double IniFile::GetDouble(const std::string& key) const {
  return ParseDouble(GetString(key), key);
}

bool IniFile::GetBool(const std::string& key) const {
  return ParseBool(GetString(key), key);
}

std::string IniFile::GetString(const std::string& key,
                               const std::string& dflt) const {
  return Has(key) ? GetString(key) : dflt;
}

std::int64_t IniFile::GetInt(const std::string& key, std::int64_t dflt) const {
  return Has(key) ? GetInt(key) : dflt;
}

std::uint64_t IniFile::GetUint(const std::string& key,
                               std::uint64_t dflt) const {
  return Has(key) ? GetUint(key) : dflt;
}

double IniFile::GetDouble(const std::string& key, double dflt) const {
  return Has(key) ? GetDouble(key) : dflt;
}

bool IniFile::GetBool(const std::string& key, bool dflt) const {
  return Has(key) ? GetBool(key) : dflt;
}

void IniFile::Set(const std::string& key, const std::string& value) {
  values_[key] = value;
}

std::vector<std::string> IniFile::Keys() const {
  std::vector<std::string> keys;
  keys.reserve(values_.size());
  for (const auto& [k, v] : values_) keys.push_back(k);
  return keys;
}

std::string IniFile::ToString() const {
  std::ostringstream os;
  for (const auto& [k, v] : values_) os << k << " = " << v << "\n";
  return os.str();
}

}  // namespace swiftsim
