// Minimal JSON support for the simulation service protocol (DESIGN.md
// §15). The daemon speaks NDJSON — one JSON object per line — so the
// parser targets small, flat request records, not document trees:
//
//   * hard caps on input size and nesting depth (hostile clients must not
//     drive unbounded allocation — same stance as the trace readers);
//   * integers are preserved exactly (a 64-bit seed must round-trip, so a
//     number keeps its unsigned/signed view alongside the double one);
//   * every error is a typed SimError naming the byte offset.
//
// Writing goes through JsonWriter, an append-only object/scalar builder
// that handles escaping; responses are flat, so no tree type is needed on
// the way out.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace swiftsim {

/// One parsed JSON value. Object members keep source order (requests are
/// validated field-by-field with unknown-field errors, and error messages
/// should name the first offender the client wrote).
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  /// Typed accessors; throw SimError naming the expected kind.
  bool AsBool() const;
  double AsDouble() const;
  /// Exact integer views: throw unless the number was written as an
  /// integer literal that fits the requested type (no silent rounding of
  /// 64-bit seeds through double).
  std::uint64_t AsUint() const;
  std::int64_t AsInt() const;
  const std::string& AsString() const;

  /// Object member list in source order.
  const std::vector<std::pair<std::string, JsonValue>>& Members() const;
  /// First member named `key`, or nullptr.
  const JsonValue* Find(const std::string& key) const;

 private:
  friend class JsonParser;

  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double num_ = 0;
  // Exact integer views of a number literal (see AsUint/AsInt).
  std::uint64_t unum_ = 0;
  std::int64_t inum_ = 0;
  bool has_unum_ = false;
  bool has_inum_ = false;
  std::string str_;
  std::vector<std::pair<std::string, JsonValue>> members_;
};

struct JsonLimits {
  std::size_t max_bytes = 1 << 20;  // whole-input cap
  unsigned max_depth = 16;          // nesting cap (requests are flat)
};

/// Parses one complete JSON value (trailing whitespace allowed, anything
/// else is an error). Throws SimError with the byte offset on malformed
/// input or violated limits.
JsonValue ParseJson(std::string_view text, const JsonLimits& limits = {});

/// Escapes `s` for inclusion in a JSON string literal (no surrounding
/// quotes added).
std::string JsonEscape(std::string_view s);

/// Flat append-only JSON writer: the response/record serializer. Values
/// are written in call order; object/array nesting via Begin/End pairs.
class JsonWriter {
 public:
  JsonWriter& BeginObject();
  JsonWriter& EndObject();
  JsonWriter& BeginArray();
  JsonWriter& EndArray();

  /// Starts a named member inside an object (call before a value or
  /// Begin*). Outside an object, keys are invalid.
  JsonWriter& Key(std::string_view key);

  JsonWriter& String(std::string_view v);
  JsonWriter& Bool(bool v);
  JsonWriter& Uint(std::uint64_t v);
  JsonWriter& Int(std::int64_t v);
  /// Doubles print with enough precision to round-trip; NaN/Inf (invalid
  /// JSON) serialize as 0 with no error — response fields are wall-clock
  /// seconds and ratios, where 0 is the honest degenerate value.
  JsonWriter& Double(double v);

  /// Splices an already-serialized JSON fragment as one value.
  JsonWriter& Raw(std::string_view json);

  const std::string& str() const { return out_; }

 private:
  void Comma();

  std::string out_;
  std::vector<bool> first_;  // per open scope: no value written yet
};

}  // namespace swiftsim
