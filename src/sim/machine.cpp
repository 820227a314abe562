#include "sim/machine.hpp"

#include <algorithm>

#include "sim/decode.hpp"
#include "sim/value_ops.hpp"

namespace asipfb::sim {

Machine::Machine(ir::Module& module) : module_(module), program_(decode(module)) {
  globals_end_ = program_.globals_end;
  memory_.assign(static_cast<std::size_t>(globals_end_) + kFrameRegionWords, 0);
  frame_dirty_end_ = globals_end_;  // assign() left the frame region zeroed.
  frames_.reserve(64);
  reset_memory();
}

void Machine::reset_memory() {
  // frame_dirty_end_ >= globals_end_ always, so one contiguous fill covers
  // the globals and every frame word any run has stored to.
  std::fill(memory_.begin(), memory_.begin() + frame_dirty_end_, 0);
  frame_dirty_end_ = globals_end_;
  for (const auto& g : module_.globals) {
    for (std::size_t i = 0; i < g.init.size() && i < g.size; ++i) {
      memory_[g.base_address + i] = g.init[i];
    }
  }
}

const ir::GlobalArray& Machine::global_by_name(std::string_view name) const {
  const int index = module_.find_global(name);
  if (index < 0) throw SimError("no such global: " + std::string(name));
  return module_.globals[static_cast<std::size_t>(index)];
}

void Machine::write_global(std::string_view name, std::span<const std::int32_t> values) {
  const auto& g = global_by_name(name);
  if (values.size() > g.size) throw SimError("global too small: " + std::string(name));
  for (std::size_t i = 0; i < values.size(); ++i) {
    memory_[g.base_address + i] = from_i32(values[i]);
  }
}

void Machine::write_global(std::string_view name, std::span<const float> values) {
  const auto& g = global_by_name(name);
  if (values.size() > g.size) throw SimError("global too small: " + std::string(name));
  for (std::size_t i = 0; i < values.size(); ++i) {
    memory_[g.base_address + i] = from_f32(values[i]);
  }
}

std::vector<std::int32_t> Machine::read_global_i32(std::string_view name) const {
  const auto& g = global_by_name(name);
  std::vector<std::int32_t> out(g.size);
  for (std::size_t i = 0; i < g.size; ++i) out[i] = as_i32(memory_[g.base_address + i]);
  return out;
}

std::vector<float> Machine::read_global_f32(std::string_view name) const {
  const auto& g = global_by_name(name);
  std::vector<float> out(g.size);
  for (std::size_t i = 0; i < g.size; ++i) out[i] = as_f32(memory_[g.base_address + i]);
  return out;
}

SimResult Machine::run(const SimOptions& options, std::string_view entry) {
  const ir::FuncId fid = program_.find_function(entry);
  if (fid == ir::kNoFunc) throw SimError("no entry function: " + std::string(entry));
  // Deterministic reuse: every run starts with a pristine frame region.
  // Globals are left alone so inputs written via write_global persist.
  std::fill(memory_.begin() + globals_end_,
            memory_.begin() + frame_dirty_end_, 0);
  frame_dirty_end_ = globals_end_;
  // A faulted run abandons its dirty-region bookkeeping; treat the whole
  // frame region as dirty so the next clear is still correct.
  if (!options.profile) {
    try {
      return exec<false>(options, fid);
    } catch (...) {
      frame_dirty_end_ = static_cast<std::uint32_t>(memory_.size());
      throw;
    }
  }

  // Profiled runs count control transfers into the dense block table,
  // expand to per-instruction counts, and flush into the IR's exec_count
  // annotations afterwards — also on a fault, matching a direct
  // interpreter that bumps exec_count as it goes.
  // resize, not assign: every element is overwritten by expand_profile()
  // before flush on both the success and the fault path.
  profile_.resize(program_.code.size());
  block_counts_.assign(program_.block_start.size() - 1, 0);
  try {
    const SimResult result = exec<true>(options, fid);
    program_.flush_profile(profile_.data());
    return result;
  } catch (...) {
    frame_dirty_end_ = static_cast<std::uint32_t>(memory_.size());
    // fault_ip_ marks the faulting instruction; a pre-loop fault (entry
    // checks) left frames_ empty and the counters all zero, so the
    // expansion and fixup are no-ops then.
    expand_profile();
    fixup_profile(fault_ip_);
    program_.flush_profile(profile_.data());
    throw;
  }
}

template <bool Profile>
SimResult Machine::exec(const SimOptions& options, ir::FuncId entry) {
  // memory_ and the decoded code are distinct allocations nothing else
  // writes through, so the restrict qualifiers are sound; they stop
  // register/memory stores from invalidating the compiler's view of the
  // fetched instruction.
  const DecodedInstr* const __restrict code = program_.code.data();
  const DecodedFunction* const funcs = program_.functions.data();
  std::uint32_t* const __restrict mem = memory_.data();
  const std::size_t mem_words = memory_.size();
  std::uint64_t* const bc = Profile ? block_counts_.data() : nullptr;
  const std::uint32_t* const bof = Profile ? program_.block_of.data() : nullptr;
  const std::uint64_t max_steps = options.max_steps;

  // The executing function's name, for fault messages (cold paths only).
  auto where = [&]() -> const std::string& {
    return funcs[frames_.back().func].name;
  };

  // Entry frame.  The checks mirror those of every call below.
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
  if constexpr (Profile) ++bc[ef.entry_block];

  std::uint32_t ip = ef.entry;
  std::uint32_t reg_base = 0;          ///< Current frame's register window.
  std::uint32_t reg_top = ef.num_regs; ///< First slot past the window.
  // No __restrict here: regs_ is legitimately also written through other
  // pointers (argument copy-in on Call, return-slot store on Ret).
  std::uint32_t frame_base = globals_end_;
  std::uint32_t* fr = regs_.data();
  std::uint64_t steps = 0;
  std::uint64_t cycles = 0;
  std::uint64_t oob_loads = 0;
  std::uint32_t dirty_end = globals_end_;  // Published at return.

  // Dispatch.  With GCC/Clang every handler ends in its own computed goto
  // (threaded dispatch): each opcode gets a private indirect-branch site,
  // which the branch predictor resolves far better than one shared switch
  // branch.  Other compilers run the same handler bodies from a switch in
  // a loop.  ASIPFB_DISPATCH_AT carries the per-operation bookkeeping
  // (cycle charge, step-limit check) in both forms.
#if defined(__GNUC__) || defined(__clang__)
#define ASIPFB_OP(name) L_##name:
#define ASIPFB_DISPATCH_AT(next_ip)                        \
  do {                                                     \
    ip = (next_ip);                                        \
    in = code + ip;                                        \
    cycles += in->cycle_cost;                              \
    if (++steps > max_steps) {                             \
      fault_ip_ = ip;                                      \
      throw SimError("step limit exceeded");               \
    }                                                      \
    goto* kJump[static_cast<std::size_t>(in->op)];         \
  } while (0)
  // Must list every opcode in ir::Opcode declaration order.
  static const void* const kJump[] = {
      &&L_Add, &&L_Sub, &&L_Mul, &&L_Div, &&L_Rem, &&L_Neg,
      &&L_Shl, &&L_Shr,
      &&L_And, &&L_Or, &&L_Xor, &&L_Not,
      &&L_FAdd, &&L_FSub, &&L_FMul, &&L_FDiv, &&L_FNeg,
      &&L_CmpEq, &&L_CmpNe, &&L_CmpLt, &&L_CmpLe, &&L_CmpGt, &&L_CmpGe,
      &&L_FCmpEq, &&L_FCmpNe, &&L_FCmpLt, &&L_FCmpLe, &&L_FCmpGt, &&L_FCmpGe,
      &&L_IntToFp, &&L_FpToInt,
      &&L_MovI, &&L_MovF, &&L_Copy,
      &&L_AddrGlobal, &&L_AddrLocal,
      &&L_Load, &&L_Store, &&L_FLoad, &&L_FStore,
      &&L_Intrin,
      &&L_Br, &&L_CondBr, &&L_Ret, &&L_Call,
  };
  static_assert(sizeof(kJump) / sizeof(kJump[0]) ==
                static_cast<std::size_t>(ir::kNumOpcodes));
#else
#define ASIPFB_OP(name) case ir::Opcode::name:
#define ASIPFB_DISPATCH_AT(next_ip) \
  do {                              \
    ip = (next_ip);                 \
    goto dispatch;                  \
  } while (0)
#endif
#define ASIPFB_NEXT() ASIPFB_DISPATCH_AT(ip + 1)

  const DecodedInstr* __restrict in = nullptr;
  ASIPFB_DISPATCH_AT(ip);

#if !(defined(__GNUC__) || defined(__clang__))
dispatch:
  in = code + ip;
  cycles += in->cycle_cost;
  if (++steps > max_steps) {
    fault_ip_ = ip;
    throw SimError("step limit exceeded");
  }
  switch (in->op) {
#endif

  ASIPFB_OP(Add) { fr[in->dst] = fr[in->a] + fr[in->b]; ASIPFB_NEXT(); }
  ASIPFB_OP(Sub) { fr[in->dst] = fr[in->a] - fr[in->b]; ASIPFB_NEXT(); }
  ASIPFB_OP(Mul) { fr[in->dst] = fr[in->a] * fr[in->b]; ASIPFB_NEXT(); }
  ASIPFB_OP(Div) {
    const std::int64_t a = as_i32(fr[in->a]);
    const std::int64_t b = as_i32(fr[in->b]);
    if (b == 0) {
      fault_ip_ = ip;
      throw SimError("division by zero in " + where());
    }
    fr[in->dst] = from_i32(static_cast<std::int32_t>(a / b));
    ASIPFB_NEXT();
  }
  ASIPFB_OP(Rem) {
    const std::int64_t a = as_i32(fr[in->a]);
    const std::int64_t b = as_i32(fr[in->b]);
    if (b == 0) {
      fault_ip_ = ip;
      throw SimError("remainder by zero in " + where());
    }
    fr[in->dst] = from_i32(static_cast<std::int32_t>(a % b));
    ASIPFB_NEXT();
  }
  ASIPFB_OP(Neg) { fr[in->dst] = 0u - fr[in->a]; ASIPFB_NEXT(); }
  ASIPFB_OP(Shl) { fr[in->dst] = fr[in->a] << (fr[in->b] & 31u); ASIPFB_NEXT(); }
  ASIPFB_OP(Shr) {  // Arithmetic shift, matching C compilers on signed int.
    fr[in->dst] = from_i32(as_i32(fr[in->a]) >> (fr[in->b] & 31u));
    ASIPFB_NEXT();
  }
  ASIPFB_OP(And) { fr[in->dst] = fr[in->a] & fr[in->b]; ASIPFB_NEXT(); }
  ASIPFB_OP(Or) { fr[in->dst] = fr[in->a] | fr[in->b]; ASIPFB_NEXT(); }
  ASIPFB_OP(Xor) { fr[in->dst] = fr[in->a] ^ fr[in->b]; ASIPFB_NEXT(); }
  ASIPFB_OP(Not) { fr[in->dst] = ~fr[in->a]; ASIPFB_NEXT(); }
  ASIPFB_OP(FAdd) { fr[in->dst] = from_f32(as_f32(fr[in->a]) + as_f32(fr[in->b])); ASIPFB_NEXT(); }
  ASIPFB_OP(FSub) { fr[in->dst] = from_f32(as_f32(fr[in->a]) - as_f32(fr[in->b])); ASIPFB_NEXT(); }
  ASIPFB_OP(FMul) { fr[in->dst] = from_f32(as_f32(fr[in->a]) * as_f32(fr[in->b])); ASIPFB_NEXT(); }
  ASIPFB_OP(FDiv) { fr[in->dst] = from_f32(as_f32(fr[in->a]) / as_f32(fr[in->b])); ASIPFB_NEXT(); }
  ASIPFB_OP(FNeg) { fr[in->dst] = from_f32(-as_f32(fr[in->a])); ASIPFB_NEXT(); }
  ASIPFB_OP(CmpEq) { fr[in->dst] = as_i32(fr[in->a]) == as_i32(fr[in->b]) ? 1 : 0; ASIPFB_NEXT(); }
  ASIPFB_OP(CmpNe) { fr[in->dst] = as_i32(fr[in->a]) != as_i32(fr[in->b]) ? 1 : 0; ASIPFB_NEXT(); }
  ASIPFB_OP(CmpLt) { fr[in->dst] = as_i32(fr[in->a]) < as_i32(fr[in->b]) ? 1 : 0; ASIPFB_NEXT(); }
  ASIPFB_OP(CmpLe) { fr[in->dst] = as_i32(fr[in->a]) <= as_i32(fr[in->b]) ? 1 : 0; ASIPFB_NEXT(); }
  ASIPFB_OP(CmpGt) { fr[in->dst] = as_i32(fr[in->a]) > as_i32(fr[in->b]) ? 1 : 0; ASIPFB_NEXT(); }
  ASIPFB_OP(CmpGe) { fr[in->dst] = as_i32(fr[in->a]) >= as_i32(fr[in->b]) ? 1 : 0; ASIPFB_NEXT(); }
  ASIPFB_OP(FCmpEq) { fr[in->dst] = as_f32(fr[in->a]) == as_f32(fr[in->b]) ? 1 : 0; ASIPFB_NEXT(); }
  ASIPFB_OP(FCmpNe) { fr[in->dst] = as_f32(fr[in->a]) != as_f32(fr[in->b]) ? 1 : 0; ASIPFB_NEXT(); }
  ASIPFB_OP(FCmpLt) { fr[in->dst] = as_f32(fr[in->a]) < as_f32(fr[in->b]) ? 1 : 0; ASIPFB_NEXT(); }
  ASIPFB_OP(FCmpLe) { fr[in->dst] = as_f32(fr[in->a]) <= as_f32(fr[in->b]) ? 1 : 0; ASIPFB_NEXT(); }
  ASIPFB_OP(FCmpGt) { fr[in->dst] = as_f32(fr[in->a]) > as_f32(fr[in->b]) ? 1 : 0; ASIPFB_NEXT(); }
  ASIPFB_OP(FCmpGe) { fr[in->dst] = as_f32(fr[in->a]) >= as_f32(fr[in->b]) ? 1 : 0; ASIPFB_NEXT(); }
  ASIPFB_OP(IntToFp) { fr[in->dst] = from_f32(static_cast<float>(as_i32(fr[in->a]))); ASIPFB_NEXT(); }
  ASIPFB_OP(FpToInt) { fr[in->dst] = from_i32(fp_to_int(as_f32(fr[in->a]))); ASIPFB_NEXT(); }
  ASIPFB_OP(MovI) { fr[in->dst] = from_i32(in->imm_i); ASIPFB_NEXT(); }
  ASIPFB_OP(MovF) { fr[in->dst] = from_f32(in->imm_f); ASIPFB_NEXT(); }
  ASIPFB_OP(Copy) { fr[in->dst] = fr[in->a]; ASIPFB_NEXT(); }
  ASIPFB_OP(AddrGlobal) { fr[in->dst] = in->aux0; ASIPFB_NEXT(); }  // Resolved at decode.
  ASIPFB_OP(AddrLocal) {
    fr[in->dst] = frame_base + static_cast<std::uint32_t>(in->imm_i);
    ASIPFB_NEXT();
  }
  ASIPFB_OP(Load) ASIPFB_OP(FLoad) {
    const std::uint32_t addr = fr[in->a];
    if (addr >= mem_words) {
      ++oob_loads;
      fr[in->dst] = 0;  // Speculative-load semantics.
    } else {
      fr[in->dst] = mem[addr];
    }
    ASIPFB_NEXT();
  }
  ASIPFB_OP(Store) ASIPFB_OP(FStore) {
    const std::uint32_t addr = fr[in->a];
    if (addr >= mem_words) {
      fault_ip_ = ip;
      throw SimError("out-of-bounds store in " + where() + " at address " +
                     std::to_string(addr));
    }
    if (addr >= dirty_end) dirty_end = addr + 1;
    mem[addr] = fr[in->b];
    ASIPFB_NEXT();
  }
  ASIPFB_OP(Intrin) {
    if (!eval_intrinsic(in->intrinsic, fr[in->a], fr[in->dst])) {
      fault_ip_ = ip;
      throw SimError("malformed intrinsic");
    }
    ASIPFB_NEXT();
  }
  ASIPFB_OP(Br) {
    const std::uint32_t t = in->aux0;
    if constexpr (Profile) ++bc[bof[t]];
    ASIPFB_DISPATCH_AT(t);
  }
  ASIPFB_OP(CondBr) {
    const std::uint32_t t = fr[in->a] != 0 ? in->aux0 : in->aux1;
    if constexpr (Profile) ++bc[bof[t]];
    ASIPFB_DISPATCH_AT(t);
  }
  ASIPFB_OP(Ret) {
    const std::uint32_t value = in->num_args != 0 ? fr[in->a] : 0u;
    const Frame done = frames_.back();
    frames_.pop_back();
    sp = done.frame_base;
    if (frames_.empty()) {
      frame_dirty_end_ = dirty_end;
      if constexpr (Profile) expand_profile();
      SimResult result;
      result.exit_code = as_i32(value);
      result.steps = steps;
      result.cycles = cycles;
      result.oob_loads = oob_loads;
      return result;
    }
    if (done.ret_slot != kNoSlot) regs_[done.ret_slot] = value;
    const Frame& caller = frames_.back();
    reg_base = caller.reg_base;
    reg_top = done.reg_base;
    frame_base = caller.frame_base;
    fr = regs_.data() + reg_base;
    ASIPFB_DISPATCH_AT(done.resume_ip);
  }
  ASIPFB_OP(Call) {
    // Anything below may throw (checks, allocation); the profile fixup
    // needs to know the pending call site.
    if constexpr (Profile) fault_ip_ = ip;
    const DecodedFunction& cf = funcs[in->aux0];
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
    const std::uint32_t* const arg_slots = program_.call_arg_slots.data() + in->aux1;
    const std::uint32_t* const param_slots =
        program_.param_slots.data() + cf.params_offset;
    std::uint32_t* const all = regs_.data();
    for (std::uint32_t i = 0; i < in->num_args; ++i) {
      all[new_base + param_slots[i]] = all[reg_base + arg_slots[i]];
    }
    frames_.push_back(Frame{in->aux0, ip + 1, new_base, sp,
                            in->dst == kNoSlot ? kNoSlot : reg_base + in->dst});
    reg_base = new_base;
    reg_top = new_base + cf.num_regs;
    frame_base = sp;
    sp += cf.frame_words;
    fr = all + new_base;
    if constexpr (Profile) ++bc[cf.entry_block];
    ASIPFB_DISPATCH_AT(cf.entry);
  }

#if !(defined(__GNUC__) || defined(__clang__))
  }
  throw SimError("corrupt opcode");  // Unreachable: the switch is total.
#endif

#undef ASIPFB_OP
#undef ASIPFB_DISPATCH_AT
#undef ASIPFB_NEXT
}

void Machine::expand_profile() {
  const std::uint32_t* const bof = program_.block_of.data();
  const std::uint64_t* const bc = block_counts_.data();
  for (std::size_t i = 0; i < profile_.size(); ++i) profile_[i] = bc[bof[i]];
}

void Machine::fixup_profile(std::uint32_t stop_ip) {
  for (std::size_t k = frames_.size(); k-- > 0;) {
    const std::uint32_t stop =
        k + 1 < frames_.size() ? frames_[k + 1].resume_ip - 1 : stop_ip;
    const std::uint32_t end = program_.block_start[program_.block_of[stop] + 1];
    // The clamp only matters for a fault before the first instruction ever
    // ran (counters still zero); real partial blocks always count >= 1.
    for (std::uint32_t j = stop + 1; j < end; ++j) {
      if (profile_[j] > 0) --profile_[j];
    }
  }
}

void clear_profile(ir::Module& module) {
  for (auto& fn : module.functions) {
    for (auto& block : fn.blocks) {
      for (auto& instr : block.instrs) instr.exec_count = 0;
    }
  }
}

SimResult profile_run(ir::Module& module) {
  Machine machine(module);
  SimOptions options;
  options.profile = true;
  clear_profile(module);
  return machine.run(options);
}

}  // namespace asipfb::sim
