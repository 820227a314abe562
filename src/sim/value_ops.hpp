// Shared value semantics of the simulator: bit-cast helpers, the defined
// float->int conversion, and intrinsic evaluation.
//
// The interpreter's handlers and Machine's global readers and writers
// (sim/machine.cpp) share these, so the scalar semantics live in one
// place.  Anything that rounds, truncates, or calls libm routes through
// these functions.
#pragma once

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>

#include "ir/opcode.hpp"

namespace asipfb::sim {

inline std::int32_t as_i32(std::uint32_t bits) {
  return static_cast<std::int32_t>(bits);
}
inline std::uint32_t from_i32(std::int32_t v) {
  return static_cast<std::uint32_t>(v);
}

inline float as_f32(std::uint32_t bits) { return std::bit_cast<float>(bits); }
inline std::uint32_t from_f32(float f) { return std::bit_cast<std::uint32_t>(f); }

/// Truncating float->int conversion with defined out-of-range behaviour.
inline std::int32_t fp_to_int(float f) {
  if (std::isnan(f) || f >= 2147483648.0f || f < -2147483648.0f) return 0;
  return static_cast<std::int32_t>(f);
}

/// Evaluates an intrinsic on a raw register value: the semantics of the
/// interpreter's Intrin handler.
/// Returns false for a malformed (None) kind.
inline bool eval_intrinsic(ir::IntrinsicKind k, std::uint32_t in_bits,
                           std::uint32_t& out) {
  using enum ir::IntrinsicKind;
  const float x = k == IAbs ? 0.0f : as_f32(in_bits);
  switch (k) {
    case Sin: out = from_f32(std::sin(x)); return true;
    case Cos: out = from_f32(std::cos(x)); return true;
    case Sqrt: out = from_f32(std::sqrt(x)); return true;
    case FAbs: out = from_f32(std::fabs(x)); return true;
    case IAbs: out = from_i32(std::abs(as_i32(in_bits))); return true;
    case Exp: out = from_f32(std::exp(x)); return true;
    case Log: out = from_f32(std::log(x)); return true;
    case Floor: out = from_f32(std::floor(x)); return true;
    case None: return false;
  }
  return false;
}

}  // namespace asipfb::sim
