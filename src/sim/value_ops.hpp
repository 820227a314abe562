// Shared value semantics of the simulator: bit-cast helpers, the defined
// float->int conversion, and intrinsic evaluation.
//
// Both engines (the interpreter in sim/machine.cpp, the JIT's
// out-of-line intrinsic helper in sim/jit.cpp) must produce bit-identical
// results, so the scalar semantics live here exactly once.  Anything that
// rounds, truncates, or calls libm routes through these functions; an engine
// with a private copy would be one refactor away from divergence.
#pragma once

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>

#include "ir/opcode.hpp"

namespace asipfb::sim {

inline std::int32_t as_i32(std::uint32_t bits) {
  return static_cast<std::int32_t>(bits);
}
inline std::uint32_t from_i32(std::int32_t v) {
  return static_cast<std::uint32_t>(v);
}

inline float as_f32(std::uint32_t bits) {
  float f = 0.0f;
  std::memcpy(&f, &bits, sizeof f);
  return f;
}

inline std::uint32_t from_f32(float f) {
  std::uint32_t u = 0;
  std::memcpy(&u, &f, sizeof u);
  return u;
}

/// Truncating float->int conversion with defined out-of-range behaviour.
inline std::int32_t fp_to_int(float f) {
  if (std::isnan(f) || f >= 2147483648.0f || f < -2147483648.0f) return 0;
  return static_cast<std::int32_t>(f);
}

/// Evaluates an intrinsic on a raw register value: the semantics of the
/// interpreter's Intrin handler and of the JIT's intrinsic helper.
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
