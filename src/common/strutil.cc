#include "common/strutil.h"

#include <cctype>
#include <charconv>
#include <cstdlib>
#include <limits>

#include "common/status.h"

namespace swiftsim {

namespace {
bool IsSpace(char c) {
  return std::isspace(static_cast<unsigned char>(c)) != 0;
}
}  // namespace

std::string_view Trim(std::string_view s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && IsSpace(s[b])) ++b;
  while (e > b && IsSpace(s[e - 1])) --e;
  return s.substr(b, e - b);
}

std::vector<std::string> Split(std::string_view s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == sep) {
      out.emplace_back(Trim(s.substr(start, i - start)));
      start = i + 1;
    }
  }
  return out;
}

std::vector<std::string> SplitWs(std::string_view s) {
  std::vector<std::string> out;
  std::size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && IsSpace(s[i])) ++i;
    std::size_t start = i;
    while (i < s.size() && !IsSpace(s[i])) ++i;
    if (i > start) out.emplace_back(s.substr(start, i - start));
  }
  return out;
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

namespace {
// Parse failures are the input's fault: the message names the text and
// what it was for, not a source location.
template <typename T>
T ParseIntegral(std::string_view s, std::string_view context) {
  std::string_view t = Trim(s);
  if (t.empty()) throw SimError("empty integer for " + std::string(context));
  int base = 10;
  bool negative = false;
  if (!t.empty() && (t[0] == '+' || t[0] == '-')) {
    negative = t[0] == '-';
    t.remove_prefix(1);
  }
  if (t.size() > 2 && t[0] == '0' && (t[1] == 'x' || t[1] == 'X')) {
    base = 16;
    t.remove_prefix(2);
  }
  T value{};
  auto [ptr, ec] = std::from_chars(t.data(), t.data() + t.size(), value, base);
  if (ec != std::errc() || ptr != t.data() + t.size()) {
    throw SimError("malformed integer '" + std::string(s) + "' for " +
                   std::string(context));
  }
  if (negative) {
    if constexpr (std::is_signed_v<T>) {
      return static_cast<T>(-value);
    } else {
      throw SimError("negative value '" + std::string(s) +
                     "' for unsigned " + std::string(context));
    }
  }
  return value;
}
}  // namespace

std::int64_t ParseInt(std::string_view s, std::string_view context) {
  return ParseIntegral<std::int64_t>(s, context);
}

std::uint64_t ParseUint(std::string_view s, std::string_view context) {
  return ParseIntegral<std::uint64_t>(s, context);
}

unsigned ParseUnsigned(std::string_view s, std::string_view context) {
  const std::uint64_t v = ParseUint(s, context);
  if (v > std::numeric_limits<unsigned>::max()) {
    throw SimError("'" + std::string(Trim(s)) + "' does not fit unsigned " +
                   std::string(context));
  }
  return static_cast<unsigned>(v);
}

double ParseDouble(std::string_view s, std::string_view context) {
  std::string t(Trim(s));
  if (t.empty()) throw SimError("empty double for " + std::string(context));
  char* end = nullptr;
  const double v = std::strtod(t.c_str(), &end);
  if (end != t.c_str() + t.size()) {
    throw SimError("malformed double '" + t + "' for " +
                   std::string(context));
  }
  return v;
}

bool ParseBool(std::string_view s, std::string_view context) {
  const std::string t = ToLower(Trim(s));
  if (t == "1" || t == "true") return true;
  if (t == "0" || t == "false") return false;
  throw SimError("malformed boolean '" + std::string(s) + "' for " +
                 std::string(context));
}

std::string ToLower(std::string_view s) {
  std::string out(s);
  for (char& c : out) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return out;
}

}  // namespace swiftsim
