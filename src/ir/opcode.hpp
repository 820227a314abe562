// Opcodes of the 3-address IR and their static traits.
//
// One table row per opcode is the only statement of what the opcode is:
// its mnemonic, register operand count, the type of each fixed operand
// and of its result, how many branch targets it carries, whether it ends
// a block, has side effects, reads memory or can trap, and its *chain
// operator class* — the alphabet the paper's sequence analysis reports
// ("multiply-add", "fload-fmultiply", "add-shift-add", ...).  Opcodes with
// class None never participate in chainable sequences (constants, copies,
// control flow).  The verifier, the simulator's decoder, the optimizer
// and the CFG (ir::for_each_target, BasicBlock::successors()) read these
// facts from the row; the predicates below derive the memory classes from
// it.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>

#include "ir/type.hpp"

namespace asipfb::ir {

enum class Opcode : std::uint8_t {
  // Integer arithmetic / logic.
  Add, Sub, Mul, Div, Rem, Neg,
  Shl, Shr,
  And, Or, Xor, Not,
  // Float arithmetic.
  FAdd, FSub, FMul, FDiv, FNeg,
  // Integer comparisons (produce i32 0/1).
  CmpEq, CmpNe, CmpLt, CmpLe, CmpGt, CmpGe,
  // Float comparisons (produce i32 0/1).
  FCmpEq, FCmpNe, FCmpLt, FCmpLe, FCmpGt, FCmpGe,
  // Conversions.
  IntToFp, FpToInt,
  // Constant materialization and copies.
  MovI, MovF, Copy,
  // Address formation (word-addressed flat memory).
  AddrGlobal, AddrLocal,
  // Memory access.
  Load, Store, FLoad, FStore,
  // Math intrinsics (sin/cos/sqrt/...), evaluated by the simulator.
  Intrin,
  // Control flow.
  Br, CondBr, Ret, Call,
};

constexpr int kNumOpcodes = static_cast<int>(Opcode::Call) + 1;

/// Chain operator classes — the sequence alphabet of the paper.
enum class ChainClass : std::uint8_t {
  Add, Subtract, Multiply, Divide, Shift, Logic, Compare,
  Load, Store,
  FAdd, FSub, FMultiply, FDivide, FCompare, FLoad, FStore,
  None,  ///< Not eligible for chaining.
};

/// Math intrinsics the BenchC front end recognizes as builtins.
enum class IntrinsicKind : std::uint8_t {
  None, Sin, Cos, Sqrt, FAbs, IAbs, Exp, Log, Floor,
};

/// The type the table gives an operand position or an opcode's result.
enum class TypeRule : std::uint8_t {
  None,      ///< No value: no result, or no operand at this position.
  I32,       ///< Always an i32.
  F32,       ///< Always an f32.
  PerInstr,  ///< Set by the instruction: Copy's operand, Intrin's kind,
             ///< Call's callee (which may return nothing).
};

/// Static description of one opcode.
struct OpcodeInfo {
  Opcode op;                ///< The opcode this row describes.
  std::string_view name;    ///< Mnemonic used by the printer.
  int num_args;             ///< Register operand count; -1 = set by the
                            ///< instruction (Intrin, Ret, Call).
  std::array<TypeRule, 2> arg_types;  ///< Type of each operand below num_args.
  TypeRule result;          ///< Type of the destination register.
  int num_targets;          ///< Branch targets carried: target0, then target1.
  bool is_terminator;       ///< Must be the last instruction of a block.
  bool has_side_effects;    ///< Writes memory / transfers control / calls.
  bool reads_memory;        ///< Loads a word from memory.
  bool can_trap;            ///< May fault (division, memory access).
  ChainClass chain_class;   ///< Sequence-alphabet class (None = unchainable).

  /// Defines a destination register (a Call only when its callee returns
  /// a value).
  [[nodiscard]] constexpr bool has_result() const { return result != TypeRule::None; }
};

/// The table: row i describes opcode i (opcode.cpp).
extern const std::array<OpcodeInfo, kNumOpcodes> kOpcodeTable;

/// Trait lookup; total over all opcodes.
[[nodiscard]] inline const OpcodeInfo& info(Opcode op) {
  return kOpcodeTable[static_cast<std::size_t>(op)];
}

[[nodiscard]] inline std::string_view to_string(Opcode op) {
  return info(op).name;
}

/// Paper-style lower-case name of a chain class ("multiply", "fload", ...).
[[nodiscard]] std::string_view to_string(ChainClass c);

[[nodiscard]] std::string_view to_string(IntrinsicKind k);

/// The operand and result type of an intrinsic: i32 for IAbs, f32 for the
/// rest.
[[nodiscard]] constexpr Type intrinsic_type(IntrinsicKind k) {
  return k == IntrinsicKind::IAbs ? Type::I32 : Type::F32;
}

/// True for opcodes that may be hoisted above a conditional branch:
/// pure, non-trapping value computations.
[[nodiscard]] inline bool speculable(Opcode op) {
  const auto& i = info(op);
  return i.has_result() && !i.has_side_effects && !i.can_trap;
}

/// True for loads (Load, FLoad).
[[nodiscard]] inline bool reads_memory(Opcode op) { return info(op).reads_memory; }

/// True for the ops no memory access may cross: those that write memory or
/// may (Store, FStore, Call).
[[nodiscard]] inline bool is_memory_barrier(Opcode op) {
  const auto& i = info(op);
  return i.has_side_effects && !i.is_terminator;
}

/// True for the ops that read or write memory.
[[nodiscard]] inline bool accesses_memory(Opcode op) {
  return reads_memory(op) || is_memory_barrier(op);
}

/// True for value computations with no memory or control effect.
[[nodiscard]] inline bool pure(Opcode op) {
  const auto& i = info(op);
  return !i.has_side_effects && !i.reads_memory;
}

/// True if the opcode is eligible to appear inside a chained sequence.
[[nodiscard]] inline bool chainable(Opcode op) {
  return info(op).chain_class != ChainClass::None;
}

}  // namespace asipfb::ir
