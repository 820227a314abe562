// Runtime half of the JIT: buffer management, the out-of-line
// intrinsic helper, and the host loop that owns the frame machinery.
// The stencil emitter lives in sim/stencils.cpp.
#include "sim/jit.hpp"

#include <cstdlib>
#include <cstring>
#include <string>

#include "sim/machine.hpp"
#include "sim/stencils.hpp"
#include "sim/value_ops.hpp"

#if defined(__x86_64__) && defined(__linux__)
#include <sys/mman.h>
#define ASIPFB_JIT_SUPPORTED 1
#else
#define ASIPFB_JIT_SUPPORTED 0
#endif

namespace asipfb::sim {

namespace {
bool g_force_compile_failure = false;
}  // namespace

bool jit_default() {
  // Cached once: the engine choice must not flip mid-process when tests
  // mutate the environment, and getenv is not free on the run() path.
  static const bool enabled = [] {
    const char* v = std::getenv("ASIPFB_NO_JIT");
    return v == nullptr || *v == '\0';
  }();
  return enabled;
}

bool jit_supported() { return ASIPFB_JIT_SUPPORTED != 0; }

void jit_test_force_compile_failure(bool fail) { g_force_compile_failure = fail; }

extern "C" std::uint32_t asipfb_jit_intrinsic(std::uint32_t kind,
                                              std::uint32_t bits) noexcept {
  // The Intrin stencil compiles a None kind into an unconditional fault
  // exit, so every call here carries a valid kind.
  std::uint32_t out = 0;
  (void)eval_intrinsic(static_cast<ir::IntrinsicKind>(kind), bits, out);
  return out;
}

std::unique_ptr<JitProgram> JitProgram::compile(const Program& program) {
#if ASIPFB_JIT_SUPPORTED
  if (g_force_compile_failure) return nullptr;
  StencilProgram stencils;
  if (!emit_stencils(program, stencils)) return nullptr;
  if (stencils.code.empty()) return nullptr;
  // W^X: emit into plain memory, map an anonymous writable buffer, copy,
  // then flip it to read+execute.  Any failure is a clean interpreter
  // fallback, never an error.
  const std::size_t len = stencils.code.size();
  void* buf = ::mmap(nullptr, len, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (buf == MAP_FAILED) return nullptr;
  std::memcpy(buf, stencils.code.data(), len);
  if (::mprotect(buf, len, PROT_READ | PROT_EXEC) != 0) {
    ::munmap(buf, len);
    return nullptr;
  }
  auto jp = std::unique_ptr<JitProgram>(new JitProgram());
  jp->exec_ = buf;
  jp->exec_len_ = len;
  jp->entry_ = reinterpret_cast<EntryFn>(buf);
  jp->native_off_ = std::move(stencils.native_off);
  return jp;
#else
  (void)program;
  return nullptr;
#endif
}

JitProgram::~JitProgram() {
#if ASIPFB_JIT_SUPPORTED
  if (exec_ != nullptr) ::munmap(exec_, exec_len_);
#endif
}

// Machine::jit_ lives behind a forward declaration in machine.hpp; the
// destructor must be emitted where JitProgram is complete.
Machine::~Machine() = default;

const JitProgram* Machine::jit_code() {
  // One compile attempt per machine: a failed attempt (unsupported target,
  // unmappable memory, forced test failure) pins the interpreter fallback
  // for the machine's lifetime instead of retrying every run.
  if (!jit_build_attempted_) {
    jit_build_attempted_ = true;
    jit_ = JitProgram::compile(program_);
  }
  return jit_.get();
}

bool Machine::jit_ready() { return jit_code() != nullptr; }

SimResult Machine::exec_jit(const SimOptions& options, ir::FuncId entry,
                            bool profile) {
  const JitProgram& jp = *jit_;
  const DecodedInstr* const code = program_.code.data();
  const DecodedFunction* const funcs = program_.functions.data();
  const std::size_t mem_words = memory_.size();

  // The executing function's name, for fault messages (cold paths only).
  auto where = [&]() -> const std::string& {
    return funcs[frames_.back().func].name;
  };

  // Entry frame: the same checks, in the same order, with the same
  // messages as the interpreter's exec<>.
  frames_.clear();
  const DecodedFunction& ef = funcs[entry];
  if (0 > options.max_call_depth) throw SimError("call depth exceeded");
  if (ef.num_params != 0) throw SimError("argument count mismatch");
  std::uint32_t sp = globals_end_;
  if (static_cast<std::size_t>(sp) + ef.frame_words > mem_words) {
    throw SimError("frame stack overflow in " + ef.name);
  }
  frames_.push_back(Frame{entry, 0, 0, sp, kNoSlot});
  sp += ef.frame_words;
  regs_.assign(ef.num_regs, 0);

  // Native code bumps counting-block counters unconditionally (one branch
  // shape serves both modes); unprofiled runs point the counters at a
  // same-shaped scratch array that is never read.
  std::uint64_t* bc = nullptr;
  if (profile) {
    bc = block_counts_.data();
  } else {
    jit_scratch_counts_.resize(program_.block_start.size() - 1);
    bc = jit_scratch_counts_.data();
  }
  ++bc[ef.entry_block];

  std::uint32_t reg_base = 0;
  std::uint32_t reg_top = ef.num_regs;

  JitContext ctx;
  ctx.fr = regs_.data();
  ctx.mem = memory_.data();
  ctx.mem_words = mem_words;
  ctx.bc = bc;
  ctx.steps_left = options.max_steps;
  ctx.cycles = 0;
  ctx.oob_loads = 0;
  ctx.frame_base = globals_end_;
  ctx.dirty_end = globals_end_;

  std::uint32_t ip = ef.entry;
  for (;;) {
    const JitExit exit = jp.enter(&ctx, ip);
    const std::uint32_t at = ctx.exit_ip;
    switch (exit) {
      case JitExit::kRet: {
        const DecodedInstr& in = code[at];
        const std::uint32_t value =
            in.num_args != 0 ? regs_[reg_base + in.a] : 0u;
        const Frame done = frames_.back();
        frames_.pop_back();
        sp = done.frame_base;
        if (frames_.empty()) {
          frame_dirty_end_ = ctx.dirty_end;
          if (profile) expand_profile();
          SimResult result;
          result.exit_code = as_i32(value);
          result.steps = options.max_steps - ctx.steps_left;
          result.cycles = ctx.cycles;
          result.oob_loads = ctx.oob_loads;
          return result;
        }
        if (done.ret_slot != kNoSlot) regs_[done.ret_slot] = value;
        const Frame& caller = frames_.back();
        reg_base = caller.reg_base;
        reg_top = done.reg_base;
        ctx.fr = regs_.data() + reg_base;
        ctx.frame_base = caller.frame_base;
        ip = done.resume_ip;
        break;
      }
      case JitExit::kCall: {
        const DecodedInstr& in = code[at];
        // Anything below may throw (checks, allocation); the profile fixup
        // needs to know the pending call site.
        fault_ip_ = at;
        const DecodedFunction& cf = funcs[in.aux0];
        if (frames_.size() > static_cast<std::size_t>(options.max_call_depth)) {
          throw SimError("call depth exceeded");
        }
        if (static_cast<std::size_t>(sp) + cf.frame_words > mem_words) {
          throw SimError("frame stack overflow in " + cf.name);
        }
        const std::uint32_t new_base = reg_top;
        const std::size_t need = static_cast<std::size_t>(new_base) + cf.num_regs;
        if (regs_.size() < need) regs_.resize(need);
        std::fill_n(regs_.begin() + new_base, cf.num_regs, 0u);
        const std::uint32_t* const arg_slots =
            program_.call_arg_slots.data() + in.aux1;
        const std::uint32_t* const param_slots =
            program_.param_slots.data() + cf.params_offset;
        std::uint32_t* const all = regs_.data();
        for (std::uint32_t i = 0; i < in.num_args; ++i) {
          all[new_base + param_slots[i]] = all[reg_base + arg_slots[i]];
        }
        frames_.push_back(Frame{in.aux0, at + 1, new_base, sp,
                                in.dst == kNoSlot ? kNoSlot : reg_base + in.dst});
        reg_base = new_base;
        reg_top = new_base + cf.num_regs;
        ctx.frame_base = sp;
        sp += cf.frame_words;
        ctx.fr = all + new_base;  // resize() may have moved the storage.
        ++bc[cf.entry_block];
        ip = cf.entry;
        break;
      }
      case JitExit::kStepLimit:
        fault_ip_ = at;
        throw SimError("step limit exceeded");
      case JitExit::kDivZero:
        fault_ip_ = at;
        throw SimError("division by zero in " + where());
      case JitExit::kRemZero:
        fault_ip_ = at;
        throw SimError("remainder by zero in " + where());
      case JitExit::kStoreOob:
        fault_ip_ = at;
        throw SimError("out-of-bounds store in " + where() + " at address " +
                       std::to_string(ctx.fault_aux));
      case JitExit::kBadIntrinsic:
        fault_ip_ = at;
        throw SimError("malformed intrinsic");
    }
  }
}

}  // namespace asipfb::sim
