// Checked numeric parsing for the example binaries' command-line flags,
// modelled on the line protocol's parse_int (src/service/protocol.cpp):
// the whole argument must be one number inside the flag's range.  A
// missing value (null `text`, the flag was last on the command line),
// empty text, trailing characters ("4x") and out-of-range values all give
// nullopt, so the caller reports a usage error instead of truncating.
#pragma once

#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <optional>

namespace asipfb::examples {

/// Base-10 integer in [lo, hi].
inline std::optional<long long> parse_int_flag(const char* text, long long lo,
                                               long long hi) {
  if (text == nullptr) return std::nullopt;
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(text, &end, 10);
  if (errno != 0 || end == text || *end != '\0' || v < lo || v > hi) {
    return std::nullopt;
  }
  return v;
}

/// Unsigned 64-bit integer in any strtoull base-0 spelling (decimal, 0x
/// hex, 0 octal); a leading '-' is refused rather than wrapped.
inline std::optional<std::uint64_t> parse_u64_flag(const char* text) {
  if (text == nullptr) return std::nullopt;
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 0);
  if (errno != 0 || end == text || *end != '\0' || text[0] == '-') {
    return std::nullopt;
  }
  return v;
}

/// Floating-point number.
inline std::optional<double> parse_double_flag(const char* text) {
  if (text == nullptr) return std::nullopt;
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(text, &end);
  if (errno != 0 || end == text || *end != '\0') return std::nullopt;
  return v;
}

}  // namespace asipfb::examples
