// Execution-oriented program representation for the simulator.
//
// The analysis IR (ir::Instr) is built for transformation: heap-allocated
// operand vectors, optional destinations, block-relative branch targets,
// per-instruction annotations.  Interpreting it directly makes every
// dynamic operation pay for that flexibility.  A sim::Program is the same
// module flattened once into a contiguous array of fixed-size DecodedInstr
// records: operands are small integer register slots, Br/CondBr targets
// are flat instruction indices, globals' base addresses and callee entry
// points are pre-resolved, and variable-length payloads (call arguments,
// parameter registers) live in shared side pools.
//
// A Program is decoded once per module (sim/decode.hpp) and reused across
// any number of runs; Machine (sim/machine.hpp) executes it.  Profiling
// runs count into a dense side-table indexed by flat instruction id and
// flush back into ir::Instr::exec_count afterwards, so the analysis
// pipeline sees exactly the annotations the direct interpreter produced.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ir/function.hpp"

namespace asipfb::sim {

/// Register slot within the current frame, or "none" for dst.
inline constexpr std::uint32_t kNoSlot = 0xffffffffu;

/// One flattened instruction: fixed 32-byte record, no indirection.
struct DecodedInstr {
  ir::Opcode op = ir::Opcode::Br;
  ir::IntrinsicKind intrinsic = ir::IntrinsicKind::None;
  std::uint8_t cycle_cost = 1;   ///< 0 for fused followers (asip/rewrite.hpp).
  std::uint8_t num_args = 0;     ///< Ret: 0/1; Call: argument count.
  std::uint32_t dst = kNoSlot;   ///< Destination register slot, if any.
  std::uint32_t a = 0;           ///< First register operand slot.
  std::uint32_t b = 0;           ///< Second register operand slot.
  std::int32_t imm_i = 0;        ///< MovI value; AddrLocal frame offset.
  float imm_f = 0.0f;            ///< MovF value.
  std::uint32_t aux0 = 0;  ///< Br/CondBr taken target (flat); Call callee index;
                           ///< AddrGlobal pre-resolved base address.
  std::uint32_t aux1 = 0;  ///< CondBr fall-through target (flat); Call offset
                           ///< into Program::call_arg_slots.
};
static_assert(sizeof(DecodedInstr) == 32);

/// Per-function execution metadata.
struct DecodedFunction {
  std::string name;               ///< For fault messages.
  std::uint32_t entry = 0;        ///< Flat index of the first instruction.
  std::uint32_t entry_block = 0;  ///< Counting block of `entry`.
  std::uint32_t num_regs = 0;     ///< Virtual register count (frame size).
  std::uint32_t frame_words = 0;  ///< Local memory frame size, in words.
  std::uint32_t params_offset = 0;  ///< Into Program::param_slots.
  std::uint32_t num_params = 0;
};

/// A decoded module.  Valid only while the source ir::Module is alive and
/// structurally unmodified (the profile back-map points into its blocks).
struct Program {
  std::vector<DecodedInstr> code;        ///< All functions, concatenated.
  std::vector<DecodedFunction> functions;  ///< Indexed like ir::Module::functions.
  std::vector<std::uint32_t> param_slots;    ///< Parameter register slots, pooled.
  std::vector<std::uint32_t> call_arg_slots;  ///< Call argument slots, pooled.
  std::vector<ir::Instr*> source;  ///< Flat id -> IR instruction (profile flush).
  std::uint32_t globals_end = 0;   ///< Module global layout size, in words.

  // Counting blocks: maximal straight-line runs of flat code (a new block
  // starts at each function entry and after each terminator).  Control can
  // only enter a block at its first instruction — via a branch, a call, or
  // run() — so a profiled run bumps one counter per control transfer
  // instead of one per dynamic instruction, and expands block counts to
  // per-instruction counts afterwards.
  std::vector<std::uint32_t> block_of;     ///< Flat id -> counting block.
  std::vector<std::uint32_t> block_start;  ///< Block -> first flat id; plus
                                           ///< one past-the-end sentinel.

  /// Index of the named function, or kNoFunc.
  [[nodiscard]] ir::FuncId find_function(std::string_view name) const;

  /// Adds `counters[i]` (one per flat instruction) onto the source module's
  /// exec_count annotations.  Counts accumulate, matching a direct
  /// interpreter that bumps exec_count live — including across the
  /// multi-dataset profiling of pipeline::prepare_multi().
  void flush_profile(const std::uint64_t* counters) const;
};

}  // namespace asipfb::sim
