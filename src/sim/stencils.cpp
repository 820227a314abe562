#include "sim/stencils.hpp"

#include <cstddef>
#include <cstring>

#include "sim/jit.hpp"

namespace asipfb::sim {

namespace {

// The stencils address JitContext fields by fixed displacement off r15;
// pin the layout here so a reordered field cannot silently miscompile.
constexpr std::int32_t kOffFr = offsetof(JitContext, fr);
constexpr std::int32_t kOffMem = offsetof(JitContext, mem);
constexpr std::int32_t kOffMemWords = offsetof(JitContext, mem_words);
constexpr std::int32_t kOffBc = offsetof(JitContext, bc);
constexpr std::int32_t kOffSteps = offsetof(JitContext, steps_left);
constexpr std::int32_t kOffCycles = offsetof(JitContext, cycles);
constexpr std::int32_t kOffOob = offsetof(JitContext, oob_loads);
constexpr std::int32_t kOffFrameBase = offsetof(JitContext, frame_base);
constexpr std::int32_t kOffDirty = offsetof(JitContext, dirty_end);
constexpr std::int32_t kOffExitIp = offsetof(JitContext, exit_ip);
constexpr std::int32_t kOffFaultAux = offsetof(JitContext, fault_aux);
static_assert(kOffFr == 0 && kOffMem == 8 && kOffMemWords == 16 &&
              kOffBc == 24 && kOffSteps == 32 && kOffCycles == 40 &&
              kOffOob == 48 && kOffFrameBase == 56 && kOffDirty == 60 &&
              kOffExitIp == 64 && kOffFaultAux == 68);

// General-purpose registers by hardware number.
enum Gp : std::uint8_t {
  RAX = 0, RCX = 1, RDX = 2, RBX = 3, RSP = 4, RBP = 5, RSI = 6, RDI = 7,
  R12 = 12, R13 = 13, R14 = 14, R15 = 15,
};

// Condition codes (Jcc is 0x0F 0x80+cc, SETcc is 0x0F 0x90+cc).
enum Cc : std::uint8_t {
  kB = 0x2, kAe = 0x3, kE = 0x4, kNe = 0x5, kA = 0x7,
  kP = 0xA, kNp = 0xB, kL = 0xC, kGe = 0xD, kLe = 0xE, kG = 0xF,
};

/// Minimal x86-64 assembler: exactly the instruction forms the stencils
/// need, nothing else.  All memory operands are [base + disp] with
/// disp8/disp32 picked automatically (base is never rsp/r12 in that form,
/// so no SIB is needed), except the dedicated word-indexed [r12 + rax*4]
/// accessors for simulated memory.
class Asm {
 public:
  explicit Asm(std::vector<std::uint8_t>& out) : out_(out) {}

  [[nodiscard]] std::size_t here() const { return out_.size(); }

  void patch32(std::size_t site, std::int32_t value) {
    std::memcpy(out_.data() + site, &value, 4);
  }

  // -- moves ------------------------------------------------------------
  void mov_ri32(Gp r, std::uint32_t imm) {
    rex_opt(0, 0, r);
    u8(0xB8 + (r & 7));
    u32(imm);
  }
  void mov_ri64(Gp r, std::uint64_t imm) {
    rex(1, 0, r);
    u8(0xB8 + (r & 7));
    u64(imm);
  }
  void mov_rr64(Gp dst, Gp src) {
    rex(1, src, dst);
    u8(0x89);
    modrm(3, src, dst);
  }
  void mov_rm32(Gp dst, Gp base, std::int32_t disp) {  // dst <- [base+disp]
    rex_opt(0, dst, base);
    u8(0x8B);
    mem(dst, base, disp);
  }
  void mov_mr32(Gp base, std::int32_t disp, Gp src) {  // [base+disp] <- src
    rex_opt(0, src, base);
    u8(0x89);
    mem(src, base, disp);
  }
  void mov_rm64(Gp dst, Gp base, std::int32_t disp) {
    rex(1, dst, base);
    u8(0x8B);
    mem(dst, base, disp);
  }
  void mov_mr64(Gp base, std::int32_t disp, Gp src) {
    rex(1, src, base);
    u8(0x89);
    mem(src, base, disp);
  }
  void mov_mi32(Gp base, std::int32_t disp, std::uint32_t imm) {
    rex_opt(0, 0, base);
    u8(0xC7);
    mem(static_cast<Gp>(0), base, disp);
    u32(imm);
  }
  /// dst <- [r12 + rax*4]: a simulated-memory word read.
  void mov_r32_memword(Gp dst) {
    rex(0, dst, static_cast<Gp>(R12));
    u8(0x8B);
    modrm(0, dst, 4);
    u8(sib(2, RAX, R12));
  }
  /// [r12 + rax*4] <- src.
  void mov_memword_r32(Gp src) {
    rex(0, src, static_cast<Gp>(R12));
    u8(0x89);
    modrm(0, src, 4);
    u8(sib(2, RAX, R12));
  }

  // -- integer ALU ------------------------------------------------------
  /// op in {0x03 add, 0x2B sub, 0x23 and, 0x0B or, 0x33 xor, 0x3B cmp}:
  /// dst <- dst op [base+disp].
  void alu_rm32(std::uint8_t op, Gp dst, Gp base, std::int32_t disp) {
    rex_opt(0, dst, base);
    u8(op);
    mem(dst, base, disp);
  }
  void imul_rm32(Gp dst, Gp base, std::int32_t disp) {
    rex_opt(0, dst, base);
    u8(0x0F);
    u8(0xAF);
    mem(dst, base, disp);
  }
  void add_eax_i32(std::uint32_t imm) { u8(0x05); u32(imm); }
  void xor_eax_i32(std::uint32_t imm) { u8(0x35); u32(imm); }
  void cmp_eax_i32(std::uint32_t imm) { u8(0x3D); u32(imm); }
  void cmp_mi32(Gp base, std::int32_t disp, std::uint32_t imm) {
    rex_opt(0, 0, base);
    u8(0x81);
    mem(static_cast<Gp>(7), base, disp);
    u32(imm);
  }
  void add_ri64_8(Gp r, std::int8_t imm) { grp1_ri64(0, r, imm); }
  void sub_ri64_8(Gp r, std::int8_t imm) { grp1_ri64(5, r, imm); }
  void add_ri64_32(Gp r, std::int32_t imm) {  // sign-extended imm32
    rex(1, 0, r);
    u8(0x81);
    modrm(3, 0, r);
    u32(static_cast<std::uint32_t>(imm));
  }
  /// add qword [base+disp], imm8 — counter bumps.
  void add_mi64_8(Gp base, std::int32_t disp, std::int8_t imm) {
    rex(1, 0, base);
    u8(0x83);
    mem(static_cast<Gp>(0), base, disp);
    u8(static_cast<std::uint8_t>(imm));
  }
  void neg_r32(Gp r) { grp3_r32(3, r); }
  void not_r32(Gp r) { grp3_r32(2, r); }
  void shl_cl(Gp r) { grp2_cl(4, r); }
  void sar_cl(Gp r) { grp2_cl(7, r); }
  void xor_rr32(Gp dst, Gp src) { alu_rr32(0x31, dst, src); }
  void and_rr32(Gp dst, Gp src) { alu_rr32(0x21, dst, src); }
  void or_rr32(Gp dst, Gp src) { alu_rr32(0x09, dst, src); }
  void test_rr32(Gp a, Gp b) { alu_rr32(0x85, a, b); }
  void cmp_rr64(Gp rm, Gp reg) {  // flags from rm - reg
    rex(1, reg, rm);
    u8(0x39);
    modrm(3, reg, rm);
  }
  void lea_r32(Gp dst, Gp base, std::int32_t disp) {
    rex_opt(0, dst, base);
    u8(0x8D);
    mem(dst, base, disp);
  }
  void setcc(Cc cc, Gp r) {  // r must be al/cl/dl/bl
    u8(0x0F);
    u8(0x90 + cc);
    modrm(3, 0, r);
  }
  void cqo() { u8(0x48); u8(0x99); }
  void idiv_r64(Gp r) {
    rex(1, 0, r);
    u8(0xF7);
    modrm(3, 7, r);
  }
  void movsxd_rm(Gp dst, Gp base, std::int32_t disp) {
    rex(1, dst, base);
    u8(0x63);
    mem(dst, base, disp);
  }
  void movsxd_rr(Gp dst, Gp src) {
    rex(1, dst, src);
    u8(0x63);
    modrm(3, dst, src);
  }

  // -- SSE scalar-float -------------------------------------------------
  void movss_xm(std::uint8_t x, Gp base, std::int32_t disp) {
    sse_mem(0xF3, 0x10, x, base, disp);
  }
  void movss_mx(Gp base, std::int32_t disp, std::uint8_t x) {
    sse_mem(0xF3, 0x11, x, base, disp);
  }
  /// op in {0x58 addss, 0x5C subss, 0x59 mulss, 0x5E divss}.
  void ss_arith(std::uint8_t op, std::uint8_t x, Gp base, std::int32_t disp) {
    sse_mem(0xF3, op, x, base, disp);
  }
  void ucomiss_xm(std::uint8_t x, Gp base, std::int32_t disp) {
    sse_mem(0, 0x2E, x, base, disp);
  }
  void cvtsi2ss_xm(std::uint8_t x, Gp base, std::int32_t disp) {
    sse_mem(0xF3, 0x2A, x, base, disp);
  }
  void cvttss2si_rx(Gp dst, std::uint8_t x) {
    u8(0xF3);
    rex_opt(0, dst, static_cast<Gp>(x));
    u8(0x0F);
    u8(0x2C);
    modrm(3, dst, x);
  }

  // -- control flow -----------------------------------------------------
  void push_r(Gp r) {
    if (r >= 8) u8(0x41);
    u8(0x50 + (r & 7));
  }
  void pop_r(Gp r) {
    if (r >= 8) u8(0x41);
    u8(0x58 + (r & 7));
  }
  void ret() { u8(0xC3); }
  void jmp_r64(Gp r) {
    if (r >= 8) u8(0x41);
    u8(0xFF);
    modrm(3, 4, r);
  }
  void call_r64(Gp r) {
    if (r >= 8) u8(0x41);
    u8(0xFF);
    modrm(3, 2, r);
  }
  /// Emits `jcc rel32` with a zero placeholder; returns the patch site.
  [[nodiscard]] std::size_t jcc32(Cc cc) {
    u8(0x0F);
    u8(0x80 + cc);
    u32(0);
    return here() - 4;
  }
  [[nodiscard]] std::size_t jmp32() {
    u8(0xE9);
    u32(0);
    return here() - 4;
  }
  /// rel32 jump/branch to an already-emitted offset.
  void jmp_to(std::size_t target) { bind(jmp32(), target); }
  void jcc_to(Cc cc, std::size_t target) { bind(jcc32(cc), target); }
  /// Resolves a placeholder produced by jcc32/jmp32 against `target`.
  void bind(std::size_t site, std::size_t target) {
    patch32(site, static_cast<std::int32_t>(target - (site + 4)));
  }

 private:
  void u8(std::uint8_t v) { out_.push_back(v); }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) out_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) out_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void rex(bool w, std::uint8_t reg, std::uint8_t rm) {
    u8(0x40 | (w ? 8 : 0) | ((reg >> 3) << 2) | (rm >> 3));
  }
  void rex_opt(bool w, std::uint8_t reg, std::uint8_t rm) {
    if (w || reg >= 8 || rm >= 8) rex(w, reg, rm);
  }
  void modrm(std::uint8_t mod, std::uint8_t reg, std::uint8_t rm) {
    u8(static_cast<std::uint8_t>((mod << 6) | ((reg & 7) << 3) | (rm & 7)));
  }
  static std::uint8_t sib(std::uint8_t scale, std::uint8_t index, std::uint8_t base) {
    return static_cast<std::uint8_t>((scale << 6) | ((index & 7) << 3) | (base & 7));
  }
  /// [base + disp] with automatic disp8/disp32.  Callers never pass
  /// rsp/r12-class bases here, so no SIB byte is needed; mod >= 1 always,
  /// so rbp/r13-class bases are safe too.
  void mem(Gp reg, Gp base, std::int32_t disp) {
    if (disp >= -128 && disp <= 127) {
      modrm(1, reg, base);
      u8(static_cast<std::uint8_t>(disp));
    } else {
      modrm(2, reg, base);
      u32(static_cast<std::uint32_t>(disp));
    }
  }
  void grp1_ri64(std::uint8_t op, Gp r, std::int8_t imm) {
    rex(1, 0, r);
    u8(0x83);
    modrm(3, op, r);
    u8(static_cast<std::uint8_t>(imm));
  }
  void grp2_cl(std::uint8_t op, Gp r) {
    rex_opt(0, 0, r);
    u8(0xD3);
    modrm(3, op, r);
  }
  void grp3_r32(std::uint8_t op, Gp r) {
    rex_opt(0, 0, r);
    u8(0xF7);
    modrm(3, op, r);
  }
  void alu_rr32(std::uint8_t opbyte, Gp rm, Gp reg) {
    rex_opt(0, reg, rm);
    u8(opbyte);
    modrm(3, reg, rm);
  }
  void sse_mem(std::uint8_t prefix, std::uint8_t op, std::uint8_t x, Gp base,
               std::int32_t disp) {
    if (prefix != 0) u8(prefix);
    rex_opt(0, x, base);
    u8(0x0F);
    u8(op);
    mem(static_cast<Gp>(x), base, disp);
  }

  std::vector<std::uint8_t>& out_;
};

/// Byte displacement of register slot `slot` off the frame window (rbx).
std::int32_t slot_disp(std::uint32_t slot) {
  return static_cast<std::int32_t>(slot * 4u);
}

}  // namespace

bool emit_stencils(const Program& program, StencilProgram& out) {
  out.code.clear();
  out.native_off.assign(program.code.size(), 0);
  Asm a(out.code);

  // --- Entry thunk (offset 0): uint32_t(JitContext* rdi, const void* rsi).
  // Six callee-saved pushes put rsp back at 16-byte alignment minus 8; the
  // extra sub keeps every intrinsic helper call site aligned per the ABI.
  a.push_r(RBX);
  a.push_r(RBP);
  a.push_r(R12);
  a.push_r(R13);
  a.push_r(R14);
  a.push_r(R15);
  a.sub_ri64_8(RSP, 8);
  a.mov_rr64(R15, RDI);
  a.mov_rm64(RBX, R15, kOffFr);
  a.mov_rm64(R12, R15, kOffMem);
  a.mov_rm64(R13, R15, kOffSteps);
  a.mov_rm64(R14, R15, kOffMemWords);
  a.mov_rm64(RBP, R15, kOffCycles);
  a.jmp_r64(RSI);

  // --- Shared epilogue: eax = exit kind, edx = exiting flat ip.
  const std::size_t epilogue = a.here();
  a.mov_mr32(R15, kOffExitIp, RDX);
  a.mov_mr64(R15, kOffSteps, R13);
  a.mov_mr64(R15, kOffCycles, RBP);
  a.add_ri64_8(RSP, 8);
  a.pop_r(R15);
  a.pop_r(R14);
  a.pop_r(R13);
  a.pop_r(R12);
  a.pop_r(RBP);
  a.pop_r(RBX);
  a.ret();

  // --- Shared fault stubs.  edx already holds the faulting ip.
  auto exit_stub = [&](JitExit kind) {
    const std::size_t at = a.here();
    a.mov_ri32(RAX, static_cast<std::uint32_t>(kind));
    a.jmp_to(epilogue);
    return at;
  };
  const std::size_t stub_step = exit_stub(JitExit::kStepLimit);
  const std::size_t stub_div = exit_stub(JitExit::kDivZero);
  const std::size_t stub_rem = exit_stub(JitExit::kRemZero);
  const std::size_t stub_intrin = exit_stub(JitExit::kBadIntrinsic);
  const std::size_t stub_store = a.here();  // eax = faulting address.
  a.mov_mr32(R15, kOffFaultAux, RAX);
  a.mov_ri32(RAX, static_cast<std::uint32_t>(JitExit::kStoreOob));
  a.jmp_to(epilogue);

  // Counting-block bump: one counter add per control transfer, exactly
  // like the interpreter's profiled dispatch.  The bc pointer is loaded
  // from the context each time (profiled runs point it at the real
  // counters, unprofiled runs at a scratch array of the same shape).
  auto bump_block = [&](std::uint32_t target_ip) {
    const std::uint32_t block = program.block_of[target_ip];
    a.mov_rm64(RAX, R15, kOffBc);
    a.add_mi64_8(RAX, static_cast<std::int32_t>(block) * 8, 1);
  };

  // Branch sites patched once every stencil's native offset is known.
  struct Fixup {
    std::size_t site;
    std::uint32_t target_ip;
  };
  std::vector<Fixup> fixups;
  auto jmp_flat = [&](std::uint32_t target_ip) {
    fixups.push_back({a.jmp32(), target_ip});
  };

  // --- One stencil per record -----------------------------------------
  for (std::uint32_t ip = 0; ip < program.code.size(); ++ip) {
    const DecodedInstr& in = program.code[ip];
    out.native_off[ip] = static_cast<std::uint32_t>(a.here());

    // Per-instruction bookkeeping, mirroring ASIPFB_DISPATCH_AT: exact
    // fault ip, step-limit check before any effect, cycle charge.
    a.mov_ri32(RDX, ip);
    a.sub_ri64_8(R13, 1);
    a.jcc_to(kB, stub_step);
    if (in.cycle_cost != 0) {
      if (in.cycle_cost <= 127) {
        a.add_ri64_8(RBP, static_cast<std::int8_t>(in.cycle_cost));
      } else {
        a.add_ri64_32(RBP, in.cycle_cost);
      }
    }

    const std::int32_t da = slot_disp(in.a);
    const std::int32_t db = slot_disp(in.b);
    const std::int32_t dd = slot_disp(in.dst);

    auto int_alu = [&](std::uint8_t op) {  // dst = a op b
      a.mov_rm32(RAX, RBX, da);
      a.alu_rm32(op, RAX, RBX, db);
      a.mov_mr32(RBX, dd, RAX);
    };
    auto int_cmp = [&](Cc cc) {  // dst = (i32)a cc (i32)b ? 1 : 0
      a.xor_rr32(RAX, RAX);
      a.mov_rm32(RCX, RBX, da);
      a.alu_rm32(0x3B, RCX, RBX, db);
      a.setcc(cc, RAX);
      a.mov_mr32(RBX, dd, RAX);
    };
    auto f_arith = [&](std::uint8_t op) {  // dst = a op b (scalar float)
      a.movss_xm(0, RBX, da);
      a.ss_arith(op, 0, RBX, db);
      a.movss_mx(RBX, dd, 0);
    };
    // Ordered float compare via ucomiss: the first operand loaded is the
    // ucomiss destination, so lt/le swap operands and test above/above-eq
    // (CF=1 on unordered makes NaN compare false, like the interpreter).
    auto f_cmp = [&](std::int32_t lhs, std::int32_t rhs, Cc cc) {
      a.xor_rr32(RAX, RAX);
      a.movss_xm(0, RBX, lhs);
      a.ucomiss_xm(0, RBX, rhs);
      a.setcc(cc, RAX);
      a.mov_mr32(RBX, dd, RAX);
    };
    // eq: ZF=1 && PF=0 (unordered raises PF); ne: ZF=0 || PF=1.
    auto f_cmp_eq_ne = [&](bool is_eq) {
      a.xor_rr32(RAX, RAX);
      a.xor_rr32(RCX, RCX);
      a.movss_xm(0, RBX, da);
      a.ucomiss_xm(0, RBX, db);
      a.setcc(is_eq ? kNp : kP, RAX);
      a.setcc(is_eq ? kE : kNe, RCX);
      if (is_eq) {
        a.and_rr32(RAX, RCX);
      } else {
        a.or_rr32(RAX, RCX);
      }
      a.mov_mr32(RBX, dd, RAX);
    };
    // Speculative load: OOB reads 0 and counts, exactly like the
    // interpreter's Load/FLoad handler.
    auto load_word = [&] {
      a.mov_rm32(RAX, RBX, da);
      a.cmp_rr64(RAX, R14);
      const std::size_t to_oob = a.jcc32(kAe);
      a.mov_r32_memword(RAX);
      const std::size_t to_done = a.jmp32();
      a.bind(to_oob, a.here());
      a.add_mi64_8(R15, kOffOob, 1);
      a.xor_rr32(RAX, RAX);
      a.bind(to_done, a.here());
      a.mov_mr32(RBX, dd, RAX);
    };
    auto store_word = [&] {
      a.mov_rm32(RAX, RBX, da);
      a.cmp_rr64(RAX, R14);
      a.jcc_to(kAe, stub_store);  // eax = address, edx = ip.
      a.alu_rm32(0x3B, RAX, R15, kOffDirty);
      const std::size_t skip = a.jcc32(kB);
      a.lea_r32(RCX, RAX, 1);
      a.mov_mr32(R15, kOffDirty, RCX);
      a.bind(skip, a.here());
      a.mov_rm32(RCX, RBX, db);
      a.mov_memword_r32(RCX);
    };

    switch (in.op) {
      case ir::Opcode::Add: int_alu(0x03); break;
      case ir::Opcode::Sub: int_alu(0x2B); break;
      case ir::Opcode::And: int_alu(0x23); break;
      case ir::Opcode::Or: int_alu(0x0B); break;
      case ir::Opcode::Xor: int_alu(0x33); break;
      case ir::Opcode::Mul:
        a.mov_rm32(RAX, RBX, da);
        a.imul_rm32(RAX, RBX, db);
        a.mov_mr32(RBX, dd, RAX);
        break;
      case ir::Opcode::Div:
      case ir::Opcode::Rem:
        // int64 division of sign-extended int32s, truncated back — the
        // interpreter's exact semantics; INT_MIN/-1 cannot overflow the
        // 64-bit idiv.  The zero check precedes cqo, which clobbers the
        // edx fault ip only after the last fault site.
        a.mov_rm32(RAX, RBX, db);
        a.test_rr32(RAX, RAX);
        a.jcc_to(kE, in.op == ir::Opcode::Div ? stub_div : stub_rem);
        a.movsxd_rr(RCX, RAX);
        a.movsxd_rm(RAX, RBX, da);
        a.cqo();
        a.idiv_r64(RCX);
        a.mov_mr32(RBX, dd, in.op == ir::Opcode::Div ? RAX : RDX);
        break;
      case ir::Opcode::Neg:
        a.mov_rm32(RAX, RBX, da);
        a.neg_r32(RAX);
        a.mov_mr32(RBX, dd, RAX);
        break;
      case ir::Opcode::Not:
        a.mov_rm32(RAX, RBX, da);
        a.not_r32(RAX);
        a.mov_mr32(RBX, dd, RAX);
        break;
      case ir::Opcode::Shl:
      case ir::Opcode::Shr:
        // 32-bit shifts mask the count to 5 bits in hardware, matching
        // the interpreter's explicit `& 31u`; Shr is arithmetic.
        a.mov_rm32(RCX, RBX, db);
        a.mov_rm32(RAX, RBX, da);
        if (in.op == ir::Opcode::Shl) {
          a.shl_cl(RAX);
        } else {
          a.sar_cl(RAX);
        }
        a.mov_mr32(RBX, dd, RAX);
        break;
      case ir::Opcode::FAdd: f_arith(0x58); break;
      case ir::Opcode::FSub: f_arith(0x5C); break;
      case ir::Opcode::FMul: f_arith(0x59); break;
      case ir::Opcode::FDiv: f_arith(0x5E); break;
      case ir::Opcode::FNeg:  // IEEE negation is a sign-bit flip, NaNs included.
        a.mov_rm32(RAX, RBX, da);
        a.xor_eax_i32(0x80000000u);
        a.mov_mr32(RBX, dd, RAX);
        break;
      case ir::Opcode::CmpEq: int_cmp(kE); break;
      case ir::Opcode::CmpNe: int_cmp(kNe); break;
      case ir::Opcode::CmpLt: int_cmp(kL); break;
      case ir::Opcode::CmpLe: int_cmp(kLe); break;
      case ir::Opcode::CmpGt: int_cmp(kG); break;
      case ir::Opcode::CmpGe: int_cmp(kGe); break;
      case ir::Opcode::FCmpEq: f_cmp_eq_ne(true); break;
      case ir::Opcode::FCmpNe: f_cmp_eq_ne(false); break;
      case ir::Opcode::FCmpLt: f_cmp(db, da, kA); break;   // b > a
      case ir::Opcode::FCmpLe: f_cmp(db, da, kAe); break;  // b >= a
      case ir::Opcode::FCmpGt: f_cmp(da, db, kA); break;
      case ir::Opcode::FCmpGe: f_cmp(da, db, kAe); break;
      case ir::Opcode::IntToFp:
        a.cvtsi2ss_xm(0, RBX, da);
        a.movss_mx(RBX, dd, 0);
        break;
      case ir::Opcode::FpToInt: {
        // cvttss2si returns the 0x80000000 sentinel for NaN/out-of-range,
        // where fp_to_int (sim/value_ops.hpp) returns 0 — except for
        // exactly -2^31 (raw bits 0xCF000000), which legitimately
        // converts to the sentinel value.
        a.movss_xm(0, RBX, da);
        a.cvttss2si_rx(RAX, 0);
        a.cmp_eax_i32(0x80000000u);
        const std::size_t done1 = a.jcc32(kNe);
        a.cmp_mi32(RBX, da, 0xCF000000u);
        const std::size_t done2 = a.jcc32(kE);
        a.xor_rr32(RAX, RAX);
        a.bind(done1, a.here());
        a.bind(done2, a.here());
        a.mov_mr32(RBX, dd, RAX);
        break;
      }
      case ir::Opcode::MovI:
        a.mov_mi32(RBX, dd, static_cast<std::uint32_t>(in.imm_i));
        break;
      case ir::Opcode::MovF: {
        std::uint32_t bits = 0;
        std::memcpy(&bits, &in.imm_f, 4);
        a.mov_mi32(RBX, dd, bits);
        break;
      }
      case ir::Opcode::Copy:
        a.mov_rm32(RAX, RBX, da);
        a.mov_mr32(RBX, dd, RAX);
        break;
      case ir::Opcode::AddrGlobal:  // Base address resolved at decode.
        a.mov_mi32(RBX, dd, in.aux0);
        break;
      case ir::Opcode::AddrLocal:
        a.mov_rm32(RAX, R15, kOffFrameBase);
        a.add_eax_i32(static_cast<std::uint32_t>(in.imm_i));
        a.mov_mr32(RBX, dd, RAX);
        break;
      case ir::Opcode::Load:
      case ir::Opcode::FLoad:
        load_word();
        break;
      case ir::Opcode::Store:
      case ir::Opcode::FStore:
        store_word();
        break;
      case ir::Opcode::Intrin:
        if (in.intrinsic == ir::IntrinsicKind::None) {
          a.jmp_to(stub_intrin);
          break;
        }
        // Out-of-line helper call: machine state lives in callee-saved
        // registers and rsp is 16-aligned, so only the result matters.
        a.mov_ri32(RDI, static_cast<std::uint32_t>(in.intrinsic));
        a.mov_rm32(RSI, RBX, da);
        a.mov_ri64(RAX, reinterpret_cast<std::uint64_t>(&asipfb_jit_intrinsic));
        a.call_r64(RAX);
        a.mov_mr32(RBX, dd, RAX);
        break;
      case ir::Opcode::Br:
        bump_block(in.aux0);
        jmp_flat(in.aux0);
        break;
      case ir::Opcode::CondBr: {
        a.mov_rm32(RAX, RBX, da);
        a.test_rr32(RAX, RAX);
        const std::size_t to_else = a.jcc32(kE);
        bump_block(in.aux0);
        jmp_flat(in.aux0);
        a.bind(to_else, a.here());
        bump_block(in.aux1);
        jmp_flat(in.aux1);
        break;
      }
      case ir::Opcode::Ret:
        a.mov_ri32(RAX, static_cast<std::uint32_t>(JitExit::kRet));
        a.jmp_to(epilogue);
        break;
      case ir::Opcode::Call:
        a.mov_ri32(RAX, static_cast<std::uint32_t>(JitExit::kCall));
        a.jmp_to(epilogue);
        break;
      default:
        return false;  // Unreachable for well-formed decoded code.
    }
  }

  for (const Fixup& f : fixups) a.bind(f.site, out.native_off[f.target_ip]);
  return true;
}

}  // namespace asipfb::sim
