// Small string helpers shared by banner classifiers and report renderers.
#pragma once

#include <charconv>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace ofh::util {

std::vector<std::string> split(std::string_view text, char sep);
std::string_view trim(std::string_view text);
std::string to_lower(std::string_view text);
bool contains(std::string_view haystack, std::string_view needle);
bool icontains(std::string_view haystack, std::string_view needle);
bool starts_with(std::string_view text, std::string_view prefix);

// Saturating decimal parse of an optionally-signed integer. Attacker-facing
// header fields go through these instead of atoi/atol, whose behavior is
// undefined on out-of-range input: leading whitespace is skipped, parsing
// stops at the first non-digit, and out-of-range values clamp to the limits
// of the return type. Returns fallback when no digits are present.
std::int64_t parse_i64(std::string_view text, std::int64_t fallback = 0);
// As parse_i64 but for non-negative sizes; negative values parse as fallback.
std::uint64_t parse_u64(std::string_view text, std::uint64_t fallback = 0);

// Strict parse for command-line numbers: the whole text must be one
// decimal number that fits T (no sign on unsigned T, no whitespace, no
// trailing garbage), else nullopt. Tools print usage on nullopt instead of
// quietly running with 0 or a default.
template <typename T>
std::optional<T> parse_number(std::string_view text) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end || text.empty()) return std::nullopt;
  return value;
}

// Renders n with thousands separators, e.g. 1832893 -> "1,832,893".
std::string with_commas(std::uint64_t n);

// Fixed-precision percentage "12.3%".
std::string percent(double fraction, int decimals = 1);

// Hex encoding of a byte sequence, lowercase, no separators.
std::string hex(const std::vector<std::uint8_t>& data);

}  // namespace ofh::util
