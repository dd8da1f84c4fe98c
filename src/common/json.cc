#include "common/json.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>

#include "common/status.h"

namespace swiftsim {

bool JsonValue::AsBool() const {
  SS_CHECK(kind_ == Kind::kBool, "JSON value is not a boolean");
  return bool_;
}

double JsonValue::AsDouble() const {
  SS_CHECK(kind_ == Kind::kNumber, "JSON value is not a number");
  return num_;
}

std::uint64_t JsonValue::AsUint() const {
  SS_CHECK(kind_ == Kind::kNumber && has_unum_,
           "JSON value is not an unsigned integer");
  return unum_;
}

std::int64_t JsonValue::AsInt() const {
  SS_CHECK(kind_ == Kind::kNumber && has_inum_,
           "JSON value is not an integer");
  return inum_;
}

const std::string& JsonValue::AsString() const {
  SS_CHECK(kind_ == Kind::kString, "JSON value is not a string");
  return str_;
}

const std::vector<std::pair<std::string, JsonValue>>& JsonValue::Members()
    const {
  SS_CHECK(kind_ == Kind::kObject, "JSON value is not an object");
  return members_;
}

const JsonValue* JsonValue::Find(const std::string& key) const {
  for (const auto& [name, value] : Members()) {
    if (name == key) return &value;
  }
  return nullptr;
}

/// Recursive-descent parser over a bounded input. Depth is checked on
/// every container entry, so hostile nesting fails before recursion can
/// exhaust the stack.
class JsonParser {
 public:
  JsonParser(std::string_view text, const JsonLimits& limits)
      : text_(text), limits_(limits) {}

  JsonValue Parse() {
    JsonValue v = ParseValue(0);
    SkipWs();
    Check(pos_ == text_.size(), "trailing bytes after JSON value");
    return v;
  }

 private:
  [[noreturn]] void Fail(const std::string& msg) const {
    throw SimError("JSON parse error at byte " + std::to_string(pos_) +
                   ": " + msg);
  }
  void Check(bool ok, const char* msg) const {
    if (!ok) Fail(msg);
  }

  bool AtEnd() const { return pos_ >= text_.size(); }
  char Peek() const { return text_[pos_]; }
  char Next() {
    Check(!AtEnd(), "unexpected end of input");
    return text_[pos_++];
  }
  void SkipWs() {
    while (!AtEnd()) {
      const char c = Peek();
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }
  void Expect(char c, const char* what) {
    SkipWs();
    if (AtEnd() || Peek() != c) Fail(std::string("expected ") + what);
    ++pos_;
  }
  bool Consume(char c) {
    SkipWs();
    if (AtEnd() || Peek() != c) return false;
    ++pos_;
    return true;
  }
  void ExpectLiteral(const char* lit) {
    for (const char* p = lit; *p != '\0'; ++p) {
      if (AtEnd() || Peek() != *p) Fail(std::string("bad literal, expected '") + lit + "'");
      ++pos_;
    }
  }

  JsonValue ParseValue(unsigned depth) {
    Check(depth <= limits_.max_depth, "nesting depth limit exceeded");
    SkipWs();
    Check(!AtEnd(), "unexpected end of input");
    const char c = Peek();
    switch (c) {
      case '{': return ParseObject(depth);
      case '[': return ParseArray(depth);
      case '"': return ParseString();
      case 't': {
        ExpectLiteral("true");
        JsonValue v;
        v.kind_ = JsonValue::Kind::kBool;
        v.bool_ = true;
        return v;
      }
      case 'f': {
        ExpectLiteral("false");
        JsonValue v;
        v.kind_ = JsonValue::Kind::kBool;
        v.bool_ = false;
        return v;
      }
      case 'n': {
        ExpectLiteral("null");
        return JsonValue();
      }
      default: return ParseNumber();
    }
  }

  JsonValue ParseObject(unsigned depth) {
    Expect('{', "'{'");
    JsonValue v;
    v.kind_ = JsonValue::Kind::kObject;
    SkipWs();
    if (Consume('}')) return v;
    for (;;) {
      SkipWs();
      Check(!AtEnd() && Peek() == '"', "expected member name string");
      JsonValue key = ParseString();
      Expect(':', "':'");
      v.members_.emplace_back(std::move(key.str_), ParseValue(depth + 1));
      if (Consume(',')) continue;
      Expect('}', "',' or '}'");
      return v;
    }
  }

  // No caller reads array elements (no request field is an array), so
  // each one is parsed to validate the input and then dropped.
  JsonValue ParseArray(unsigned depth) {
    Expect('[', "'['");
    JsonValue v;
    v.kind_ = JsonValue::Kind::kArray;
    SkipWs();
    if (Consume(']')) return v;
    for (;;) {
      ParseValue(depth + 1);
      if (Consume(',')) continue;
      Expect(']', "',' or ']'");
      return v;
    }
  }

  void AppendUtf8(std::string* out, unsigned cp) {
    if (cp < 0x80) {
      out->push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xF0 | (cp >> 18)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  unsigned ParseHex4() {
    unsigned cp = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = Next();
      cp <<= 4;
      if (c >= '0' && c <= '9') cp |= static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f') cp |= static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') cp |= static_cast<unsigned>(c - 'A' + 10);
      else Fail("bad \\u escape digit");
    }
    return cp;
  }

  JsonValue ParseString() {
    Expect('"', "'\"'");
    JsonValue v;
    v.kind_ = JsonValue::Kind::kString;
    for (;;) {
      const char c = Next();
      if (c == '"') return v;
      if (static_cast<unsigned char>(c) < 0x20) Fail("raw control character in string");
      if (c != '\\') {
        v.str_.push_back(c);
        continue;
      }
      const char e = Next();
      switch (e) {
        case '"': v.str_.push_back('"'); break;
        case '\\': v.str_.push_back('\\'); break;
        case '/': v.str_.push_back('/'); break;
        case 'b': v.str_.push_back('\b'); break;
        case 'f': v.str_.push_back('\f'); break;
        case 'n': v.str_.push_back('\n'); break;
        case 'r': v.str_.push_back('\r'); break;
        case 't': v.str_.push_back('\t'); break;
        case 'u': {
          unsigned cp = ParseHex4();
          if (cp >= 0xD800 && cp <= 0xDBFF) {  // high surrogate: need pair
            Check(!AtEnd() && Peek() == '\\', "unpaired surrogate");
            ++pos_;
            Check(Next() == 'u', "unpaired surrogate");
            const unsigned lo = ParseHex4();
            Check(lo >= 0xDC00 && lo <= 0xDFFF, "bad low surrogate");
            cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
          } else {
            Check(!(cp >= 0xDC00 && cp <= 0xDFFF), "unpaired surrogate");
          }
          AppendUtf8(&v.str_, cp);
          break;
        }
        default: Fail("bad escape character");
      }
    }
  }

  JsonValue ParseNumber() {
    const std::size_t start = pos_;
    if (!AtEnd() && Peek() == '-') ++pos_;
    bool digits = false;
    while (!AtEnd() && std::isdigit(static_cast<unsigned char>(Peek()))) {
      ++pos_;
      digits = true;
    }
    Check(digits, "expected a value");
    bool fractional = false;
    if (!AtEnd() && Peek() == '.') {
      fractional = true;
      ++pos_;
      bool frac_digits = false;
      while (!AtEnd() && std::isdigit(static_cast<unsigned char>(Peek()))) {
        ++pos_;
        frac_digits = true;
      }
      Check(frac_digits, "bad fraction");
    }
    if (!AtEnd() && (Peek() == 'e' || Peek() == 'E')) {
      fractional = true;
      ++pos_;
      if (!AtEnd() && (Peek() == '+' || Peek() == '-')) ++pos_;
      bool exp_digits = false;
      while (!AtEnd() && std::isdigit(static_cast<unsigned char>(Peek()))) {
        ++pos_;
        exp_digits = true;
      }
      Check(exp_digits, "bad exponent");
    }
    const std::string lit(text_.substr(start, pos_ - start));
    JsonValue v;
    v.kind_ = JsonValue::Kind::kNumber;
    v.num_ = std::strtod(lit.c_str(), nullptr);
    if (!fractional) {
      // Preserve exact 64-bit views for integer literals (seeds, counts).
      errno = 0;
      if (lit[0] != '-') {
        char* end = nullptr;
        const unsigned long long u = std::strtoull(lit.c_str(), &end, 10);
        if (errno == 0 && end != nullptr && *end == '\0') {
          v.unum_ = u;
          v.has_unum_ = true;
          if (u <= static_cast<unsigned long long>(
                       std::numeric_limits<std::int64_t>::max())) {
            v.inum_ = static_cast<std::int64_t>(u);
            v.has_inum_ = true;
          }
        }
      } else {
        char* end = nullptr;
        const long long i = std::strtoll(lit.c_str(), &end, 10);
        if (errno == 0 && end != nullptr && *end == '\0') {
          v.inum_ = i;
          v.has_inum_ = true;
        }
      }
      Check(v.has_unum_ || v.has_inum_, "integer literal out of range");
    }
    return v;
  }

  std::string_view text_;
  JsonLimits limits_;
  std::size_t pos_ = 0;
};

JsonValue ParseJson(std::string_view text, const JsonLimits& limits) {
  SS_CHECK(text.size() <= limits.max_bytes,
           "JSON input of " + std::to_string(text.size()) +
               " bytes exceeds the " + std::to_string(limits.max_bytes) +
               "-byte limit");
  return JsonParser(text, limits).Parse();
}

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

void JsonWriter::Comma() {
  if (!first_.empty()) {
    if (!first_.back()) out_.push_back(',');
    first_.back() = false;
  }
}

JsonWriter& JsonWriter::BeginObject() {
  Comma();
  out_.push_back('{');
  first_.push_back(true);
  return *this;
}

JsonWriter& JsonWriter::EndObject() {
  SS_ASSERT(!first_.empty());
  first_.pop_back();
  out_.push_back('}');
  return *this;
}

JsonWriter& JsonWriter::BeginArray() {
  Comma();
  out_.push_back('[');
  first_.push_back(true);
  return *this;
}

JsonWriter& JsonWriter::EndArray() {
  SS_ASSERT(!first_.empty());
  first_.pop_back();
  out_.push_back(']');
  return *this;
}

JsonWriter& JsonWriter::Key(std::string_view key) {
  Comma();
  out_.push_back('"');
  out_ += JsonEscape(key);
  out_ += "\":";
  // The upcoming value must not emit its own comma.
  if (!first_.empty()) first_.back() = true;
  return *this;
}

JsonWriter& JsonWriter::String(std::string_view v) {
  Comma();
  out_.push_back('"');
  out_ += JsonEscape(v);
  out_.push_back('"');
  return *this;
}

JsonWriter& JsonWriter::Bool(bool v) {
  Comma();
  out_ += v ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::Uint(std::uint64_t v) {
  Comma();
  out_ += std::to_string(v);
  return *this;
}

JsonWriter& JsonWriter::Int(std::int64_t v) {
  Comma();
  out_ += std::to_string(v);
  return *this;
}

JsonWriter& JsonWriter::Double(double v) {
  Comma();
  if (!std::isfinite(v)) v = 0;
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  out_ += buf;
  return *this;
}

JsonWriter& JsonWriter::Raw(std::string_view json) {
  Comma();
  out_ += json;
  return *this;
}

}  // namespace swiftsim
