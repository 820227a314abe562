// Instructions of the 3-address IR.
//
// An instruction is a single "fat" value type: one opcode plus every payload
// any opcode may need (register operands, immediates, branch targets, callee,
// intrinsic kind).  The profiler annotates each instruction with its dynamic
// execution count; transformations preserve/scale that annotation so the
// sequence analysis can weight occurrences without re-simulation.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "ir/opcode.hpp"
#include "ir/type.hpp"

namespace asipfb::ir {

/// Virtual register id; types are recorded per-function.
struct Reg {
  std::uint32_t id = 0;

  friend bool operator==(Reg a, Reg b) { return a.id == b.id; }
  friend bool operator!=(Reg a, Reg b) { return a.id != b.id; }
  friend bool operator<(Reg a, Reg b) { return a.id < b.id; }
};

/// Index of a basic block within its function.
using BlockId = std::uint32_t;
inline constexpr BlockId kNoBlock = 0xffffffffu;

/// Index of a function within its module.
using FuncId = std::uint32_t;
inline constexpr FuncId kNoFunc = 0xffffffffu;

/// Unique (per function) instruction identity, stable across transformations.
using InstrId = std::uint32_t;
inline constexpr InstrId kNoInstr = 0xffffffffu;

/// One 3-address instruction.
struct Instr {
  Opcode op = Opcode::Br;
  std::optional<Reg> dst;       ///< Destination register, if the op defines one.
  std::vector<Reg> args;        ///< Register operands (order significant).

  std::int32_t imm_i = 0;       ///< MovI value; AddrGlobal index; AddrLocal offset.
  float imm_f = 0.0f;           ///< MovF value.
  IntrinsicKind intrinsic = IntrinsicKind::None;  ///< For Opcode::Intrin.
  FuncId callee = kNoFunc;      ///< For Opcode::Call.
  BlockId target0 = kNoBlock;   ///< Br target; CondBr taken target.
  BlockId target1 = kNoBlock;   ///< CondBr fall-through target.

  std::uint64_t exec_count = 0; ///< Dynamic execution count (from profiling).
  InstrId id = kNoInstr;        ///< Unique within the owning function.
  InstrId origin = kNoInstr;    ///< Pre-transformation ancestor (self if original).

  /// Set by the ASIP rewriter (asip/rewrite.hpp) on the trailing operations
  /// of a fused chained instruction: the op still executes (semantics are
  /// unchanged) but retires in the same cycle as its chain leader, so the
  /// simulator does not charge it a cycle.
  bool fused_follower = false;

  [[nodiscard]] bool is_terminator() const { return info(op).is_terminator; }
  [[nodiscard]] ChainClass chain_class() const { return info(op).chain_class; }

  /// True when this instruction computes a pure value (no memory/control
  /// effects) — candidates for code motion without memory disambiguation.
  [[nodiscard]] bool is_pure() const { return pure(op); }
};

/// Calls `f` on each branch target of `instr` its opcode's row counts:
/// target0, then target1, a repeated target once per field.  `f` may
/// assign through a non-const `instr`'s targets.
template <typename InstrT, typename F>
void for_each_target(InstrT& instr, F&& f) {
  const int n = info(instr.op).num_targets;
  if (n > 0) f(instr.target0);
  if (n > 1) f(instr.target1);
}

/// Convenience factory functions keep call sites terse and fill the payload
/// fields that matter for each shape of instruction.
namespace make {

Instr binary(Opcode op, Reg dst, Reg lhs, Reg rhs);
Instr unary(Opcode op, Reg dst, Reg src);
Instr movi(Reg dst, std::int32_t value);
Instr movf(Reg dst, float value);
Instr copy(Reg dst, Reg src);
Instr addr_global(Reg dst, std::int32_t global_index);
Instr addr_local(Reg dst, std::int32_t frame_offset);
Instr load(Opcode op, Reg dst, Reg addr);
Instr store(Opcode op, Reg addr, Reg value);
Instr intrin(IntrinsicKind kind, Reg dst, std::vector<Reg> args);
Instr br(BlockId target);
Instr cond_br(Reg cond, BlockId if_true, BlockId if_false);
Instr ret();
Instr ret_value(Reg value);
Instr call(std::optional<Reg> dst, FuncId callee, std::vector<Reg> args);

}  // namespace make

}  // namespace asipfb::ir
