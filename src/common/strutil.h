// String helpers shared by the config and trace parsers.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace swiftsim {

/// Removes leading/trailing ASCII whitespace.
std::string_view Trim(std::string_view s);

/// Splits on `sep`, trimming each piece; empty pieces are kept.
std::vector<std::string> Split(std::string_view s, char sep);

/// Splits on arbitrary whitespace runs; empty pieces are dropped.
std::vector<std::string> SplitWs(std::string_view s);

/// True if `s` begins with `prefix`.
bool StartsWith(std::string_view s, std::string_view prefix);

/// Parses an integer (decimal, or hex with 0x prefix). Throws SimError with
/// `context` in the message on malformed input.
std::int64_t ParseInt(std::string_view s, std::string_view context);
std::uint64_t ParseUint(std::string_view s, std::string_view context);

/// ParseUint for an `unsigned` destination: a value above UINT_MAX throws
/// SimError naming `context` instead of wrapping.
unsigned ParseUnsigned(std::string_view s, std::string_view context);

/// Parses a double. Throws SimError on malformed input.
double ParseDouble(std::string_view s, std::string_view context);

/// Parses a boolean: accepts 0/1/true/false (case-insensitive).
bool ParseBool(std::string_view s, std::string_view context);

/// Lower-cases ASCII.
std::string ToLower(std::string_view s);

}  // namespace swiftsim
