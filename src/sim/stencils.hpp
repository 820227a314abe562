// x86-64 stencil emission for the copy-and-patch JIT (sim/jit.hpp).
//
// The JIT compiles the decoded sim::Program one record at a time:
// every DecodedInstr gets a fixed-shape machine-code stencil with its
// operand slots, immediates, and cycle cost patched in as displacements
// and immediate bytes, and its branch targets back-patched as rel32 jumps
// once every record's native offset is known.  "Copy and patch" here is
// implemented as emitter functions over a tiny x86-64 assembler rather
// than memcpy'd byte templates — the shape per opcode is still fixed, the
// operands are still patched into the same byte positions, and the
// emitters double as the single readable description of each stencil.
//
// Register plan (all callee-saved, so intrinsic helper calls need no
// save/restore of the machine state):
//
//   rbx  current frame's register window (JitContext::fr)
//   r12  memory_.data()
//   r13  remaining-step countdown (max_steps - steps executed so far)
//   r14  memory word count (OOB limit)
//   r15  JitContext*
//   rbp  cycle accumulator
//   edx  current flat instruction index, re-set by every stencil before
//        its step check — any exit to the host reads it as the exact
//        fault/call/ret attribution point
//
// Every stencil begins with the same bookkeeping the interpreter's
// dispatch macro performs per instruction — set edx to the flat ip,
// `sub r13, 1` + borrow check against the step limit, add the record's
// cycle cost to rbp — so step-limit faults land before the instruction's
// effects with exact attribution, bit-identical to the interpreter.
// Calls, returns, and faults exit through a shared epilogue back into the
// host loop (Machine::exec_jit), which performs the frame machinery the
// interpreter's Call/Ret handlers perform and re-enters at any flat
// instruction via the per-record native-offset table.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/program.hpp"

namespace asipfb::sim {

/// Machine code for one decoded program, plus the flat-ip -> native-offset
/// side table used to (re-)enter at any instruction and to attribute
/// faults.  Offsets are relative to the buffer start; offset 0 is the
/// entry thunk (saves callee-saved registers, loads the register plan from
/// the JitContext, and tail-jumps to the requested stencil).
struct StencilProgram {
  std::vector<std::uint8_t> code;
  std::vector<std::uint32_t> native_off;  ///< One per flat instruction.
};

/// Emits stencils for every record of `program`.  Returns false if any
/// record cannot be stenciled — the caller falls back to the interpreter.
[[nodiscard]] bool emit_stencils(const Program& program, StencilProgram& out);

}  // namespace asipfb::sim
