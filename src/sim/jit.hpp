// Baseline copy-and-patch JIT for the simulator.
//
// The second of the simulator's two engines (the interpreter is the
// first): sim::Program records are compiled one-to-one into per-opcode
// machine-code stencils (sim/stencils.hpp) living in an mmap'd W^X buffer
// — emitted writable, then flipped to read+execute.  Straight-line code
// and branches run natively; calls, returns, and faults exit into a host
// loop (Machine::exec_jit, jit.cpp) that performs exactly the
// interpreter's frame machinery and re-enters native code at any flat
// instruction through a per-record native-offset table.
//
// The JIT is semantically invisible: outputs, steps, cycles, oob_loads,
// fault messages, and per-instruction exec_count attribution are
// bit-identical to the interpreter oracle (tests/sim/jit_test.cpp pins
// this; the corpus differential and the gauntlet battery extend it across
// generated populations).  On unsupported architectures, on mmap/mprotect
// failure, or under ASIPFB_NO_JIT, Machine::run silently falls back to the
// interpreter — same results, slower.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/program.hpp"

namespace asipfb::sim {

/// Default for SimOptions::jit: on, unless the ASIPFB_NO_JIT environment
/// variable is set (non-empty).  The env override lets CI run every
/// sim-touching suite on the interpreter without code changes.  Cached
/// once per process.
[[nodiscard]] bool jit_default();

/// True when this build can JIT at all (x86-64 with mmap).  Other targets
/// always fall back to the interpreter; results are identical.
[[nodiscard]] bool jit_supported();

/// Test hook: force the next JitProgram::compile calls to fail, so the
/// graceful-fallback path is testable on hosts where mmap works.
void jit_test_force_compile_failure(bool fail);

/// The mutable state shared between native code and the host loop.  Field
/// offsets are baked into the stencils (sim/stencils.cpp static_asserts
/// them), so this layout is part of the JIT ABI.
struct JitContext {
  std::uint32_t* fr = nullptr;    ///< Current frame's register window.
  std::uint32_t* mem = nullptr;   ///< memory_.data().
  std::uint64_t mem_words = 0;    ///< OOB limit for loads/stores.
  std::uint64_t* bc = nullptr;    ///< Counting-block counters.
  std::uint64_t steps_left = 0;   ///< max_steps minus steps executed.
  std::uint64_t cycles = 0;
  std::uint64_t oob_loads = 0;
  std::uint32_t frame_base = 0;   ///< Current frame's local-memory base.
  std::uint32_t dirty_end = 0;    ///< One past the highest word stored to.
  std::uint32_t exit_ip = 0;      ///< Flat ip at the last native exit.
  std::uint32_t fault_aux = 0;    ///< Faulting store's address.
};

/// Why native code returned to the host loop.  Values are baked into the
/// exit stubs (sim/stencils.cpp).
enum class JitExit : std::uint32_t {
  kRet = 0,        ///< A Ret record: host pops the frame (or finishes).
  kCall = 1,       ///< A Call record: host pushes the callee frame.
  kStepLimit = 2,  ///< "step limit exceeded" at exit_ip.
  kDivZero = 3,    ///< "division by zero in <fn>" at exit_ip.
  kRemZero = 4,    ///< "remainder by zero in <fn>" at exit_ip.
  kStoreOob = 5,   ///< "out-of-bounds store in <fn> at address <fault_aux>".
  kBadIntrinsic = 6,  ///< "malformed intrinsic" at exit_ip.
};

/// Out-of-line intrinsic evaluation for the Intrin stencil: same libm
/// calls as the interpreter's handler, via sim/value_ops.hpp, so results
/// stay bit-identical.  extern "C" so its address can be baked into
/// stencils as a plain imm64.
extern "C" std::uint32_t asipfb_jit_intrinsic(std::uint32_t kind,
                                              std::uint32_t bits) noexcept;

/// A compiled program: the executable W^X buffer plus the flat-ip ->
/// native-offset table.  Lives alongside the Machine's decoded Program
/// and is built lazily on the first jit run.
class JitProgram {
 public:
  /// Compiles `program`.  Returns nullptr — interpreter
  /// fallback — when the target is unsupported, any record cannot be
  /// stenciled, or executable memory cannot be obtained.
  [[nodiscard]] static std::unique_ptr<JitProgram> compile(const Program& program);

  ~JitProgram();
  JitProgram(const JitProgram&) = delete;
  JitProgram& operator=(const JitProgram&) = delete;

  /// Runs native code starting at flat instruction `ip` until it exits;
  /// returns the exit kind (ctx->exit_ip holds the exiting record).
  [[nodiscard]] JitExit enter(JitContext* ctx, std::uint32_t ip) const {
    const auto* base = static_cast<const std::uint8_t*>(exec_);
    return static_cast<JitExit>(entry_(ctx, base + native_off_[ip]));
  }

 private:
  using EntryFn = std::uint32_t (*)(JitContext*, const void*);

  JitProgram() = default;

  void* exec_ = nullptr;  ///< mmap'd buffer, PROT_READ|PROT_EXEC once built.
  std::size_t exec_len_ = 0;
  EntryFn entry_ = nullptr;
  std::vector<std::uint32_t> native_off_;
};

}  // namespace asipfb::sim
