// Pins which instruction shapes the verifier accepts.
//
// For every opcode the test builds one single-instruction function per
// shape: zero to three operands, each an i32, an f32 or an out-of-range
// register, and a destination that is absent, i32, f32 or out of range.
// Opcodes that read more than their registers are also varied in that
// payload: every intrinsic kind for Intrin; a void, i32, f32 or missing
// callee for Call; a void, i32 or f32 enclosing function for Ret; and in-
// and out-of-range immediates for AddrGlobal and AddrLocal.  The shapes
// `verify` accepts are compared with the list below, so any change to the
// verifier's rules shows up as a diff of that list.
#include "ir/verifier.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "ir/function.hpp"

namespace asipfb::ir {
namespace {

/// What an operand or destination register of a shape holds.
enum class Val { None, I32, F32, OutOfRange };

constexpr Val kOperandVals[] = {Val::I32, Val::F32, Val::OutOfRange};
constexpr Val kDstVals[] = {Val::None, Val::I32, Val::F32, Val::OutOfRange};

std::string to_label(Val v) {
  switch (v) {
    case Val::None: return "none";
    case Val::I32: return "i32";
    case Val::F32: return "f32";
    case Val::OutOfRange: return "out";
  }
  return "?";
}

// Registers of the function under test: r0 (i32) and r1 (f32) are its
// parameters and serve as operands; r2 (i32) and r3 (f32) are free
// destinations.  Register 64 is out of range.
Reg operand_reg(Val v) {
  return v == Val::I32 ? Reg{0} : v == Val::F32 ? Reg{1} : Reg{64};
}

Reg dst_reg(Val v) {
  return v == Val::I32 ? Reg{2} : v == Val::F32 ? Reg{3} : Reg{64};
}

/// Every operand list of length 0 to 3.
std::vector<std::vector<Val>> operand_lists() {
  std::vector<std::vector<Val>> lists = {{}};
  for (std::size_t begin = 0; begin < lists.size(); ++begin) {
    if (lists[begin].size() == 3) continue;
    for (Val v : kOperandVals) {
      auto longer = lists[begin];
      longer.push_back(v);
      lists.push_back(std::move(longer));
    }
  }
  return lists;
}

/// A callee taking (i32, f32) and returning `ret`.
Function callee(std::string name, Type ret) {
  Function fn;
  fn.name = std::move(name);
  fn.return_type = ret;
  fn.params = {fn.new_reg(Type::I32), fn.new_reg(Type::F32)};
  Instr r = ret == Type::Void ? make::ret()
                              : make::ret_value(fn.params[ret == Type::I32 ? 0 : 1]);
  fn.assign_id(r);
  fn.blocks.push_back(BasicBlock{"entry", {r}});
  return fn;
}

/// Function 0 holds `instr` (followed by a `ret` unless it is a terminator;
/// branches go to a block holding one); functions 1-3 are void, i32 and
/// f32 callees.  The module has one global and the function one frame word.
Module module_with(Instr instr, Type return_type) {
  Module m;
  m.name = "shapes";
  GlobalArray g;
  g.name = "g";
  g.size = 1;
  m.globals.push_back(std::move(g));
  Function fn;
  fn.name = "f";
  fn.return_type = return_type;
  fn.frame_words = 1;
  fn.params = {fn.new_reg(Type::I32), fn.new_reg(Type::F32)};
  fn.new_reg(Type::I32);
  fn.new_reg(Type::F32);
  fn.assign_id(instr);
  const bool branch = instr.op == Opcode::Br || instr.op == Opcode::CondBr;
  if (branch) instr.target0 = instr.target1 = 1;
  fn.blocks.push_back(BasicBlock{"entry", {instr}});
  if (!instr.is_terminator() || branch) {
    Instr r = make::ret();
    fn.assign_id(r);
    if (branch) {
      fn.blocks.push_back(BasicBlock{"exit", {r}});
    } else {
      fn.blocks[0].instrs.push_back(r);
    }
  }
  m.functions.push_back(std::move(fn));
  m.functions.push_back(callee("void_callee", Type::Void));
  m.functions.push_back(callee("i32_callee", Type::I32));
  m.functions.push_back(callee("f32_callee", Type::F32));
  return m;
}

/// One payload variant of an opcode: its label and what it sets.
struct Variant {
  std::string label;
  Type return_type = Type::Void;
  IntrinsicKind intrinsic = IntrinsicKind::None;
  FuncId callee = kNoFunc;
  std::int32_t imm = 0;
};

std::vector<Variant> variants(Opcode op) {
  const std::string name(to_string(op));
  std::vector<Variant> out;
  switch (op) {
    case Opcode::Intrin:
      for (int k = 0; k <= static_cast<int>(IntrinsicKind::Floor); ++k) {
        const auto kind = static_cast<IntrinsicKind>(k);
        out.push_back({name + "." + std::string(to_string(kind)), Type::Void, kind});
      }
      break;
    case Opcode::Call:
      out.push_back({name + ".void", Type::Void, IntrinsicKind::None, 1});
      out.push_back({name + ".i32", Type::Void, IntrinsicKind::None, 2});
      out.push_back({name + ".f32", Type::Void, IntrinsicKind::None, 3});
      out.push_back({name + ".missing", Type::Void, IntrinsicKind::None, 99});
      break;
    case Opcode::Ret:
      for (Type t : {Type::Void, Type::I32, Type::F32}) {
        out.push_back({name + "@" + std::string(to_string(t)), t});
      }
      break;
    case Opcode::AddrGlobal:
    case Opcode::AddrLocal:
      for (std::int32_t imm : {-1, 0, 1}) {
        out.push_back({name + "#" + std::to_string(imm), Type::Void,
                       IntrinsicKind::None, kNoFunc, imm});
      }
      break;
    default:
      out.push_back({name});
  }
  return out;
}

std::vector<std::string> accepted_shapes() {
  const auto lists = operand_lists();
  std::vector<std::string> accepted;
  for (int i = 0; i < kNumOpcodes; ++i) {
    const auto op = static_cast<Opcode>(i);
    for (const Variant& v : variants(op)) {
      for (const auto& args : lists) {
        for (Val dst : kDstVals) {
          Instr instr;
          instr.op = op;
          instr.intrinsic = v.intrinsic;
          instr.callee = v.callee;
          instr.imm_i = v.imm;
          std::string label = v.label + " (";
          for (std::size_t a = 0; a < args.size(); ++a) {
            instr.args.push_back(operand_reg(args[a]));
            label += (a == 0 ? "" : ", ") + to_label(args[a]);
          }
          if (dst != Val::None) instr.dst = dst_reg(dst);
          label += ") -> " + to_label(dst);
          if (verify(module_with(instr, v.return_type)).empty()) {
            accepted.push_back(std::move(label));
          }
        }
      }
    }
  }
  return accepted;
}

// The shapes the verifier accepts, in generation order.  If a change to
// the verifier is meant to change this set, replace the list with the one
// the failure message prints.
const std::vector<std::string> kAccepted = {
    "add (i32, i32) -> i32",
    "sub (i32, i32) -> i32",
    "mul (i32, i32) -> i32",
    "div (i32, i32) -> i32",
    "rem (i32, i32) -> i32",
    "neg (i32) -> i32",
    "shl (i32, i32) -> i32",
    "shr (i32, i32) -> i32",
    "and (i32, i32) -> i32",
    "or (i32, i32) -> i32",
    "xor (i32, i32) -> i32",
    "not (i32) -> i32",
    "fadd (f32, f32) -> f32",
    "fsub (f32, f32) -> f32",
    "fmul (f32, f32) -> f32",
    "fdiv (f32, f32) -> f32",
    "fneg (f32) -> f32",
    "cmpeq (i32, i32) -> i32",
    "cmpne (i32, i32) -> i32",
    "cmplt (i32, i32) -> i32",
    "cmple (i32, i32) -> i32",
    "cmpgt (i32, i32) -> i32",
    "cmpge (i32, i32) -> i32",
    "fcmpeq (f32, f32) -> i32",
    "fcmpne (f32, f32) -> i32",
    "fcmplt (f32, f32) -> i32",
    "fcmple (f32, f32) -> i32",
    "fcmpgt (f32, f32) -> i32",
    "fcmpge (f32, f32) -> i32",
    "itof (i32) -> f32",
    "ftoi (f32) -> i32",
    "movi () -> i32",
    "movf () -> f32",
    "copy (i32) -> i32",
    "copy (f32) -> f32",
    "addr_global#0 () -> i32",
    "addr_local#0 () -> i32",
    "load (i32) -> i32",
    "store (i32, i32) -> none",
    "fload (i32) -> f32",
    "fstore (i32, f32) -> none",
    "intrin.sin (f32) -> f32",
    "intrin.cos (f32) -> f32",
    "intrin.sqrt (f32) -> f32",
    "intrin.fabs (f32) -> f32",
    "intrin.iabs (i32) -> i32",
    "intrin.exp (f32) -> f32",
    "intrin.log (f32) -> f32",
    "intrin.floor (f32) -> f32",
    "br () -> none",
    "condbr (i32) -> none",
    "ret@void () -> none",
    "ret@i32 (i32) -> none",
    "ret@f32 (f32) -> none",
    "call.void (i32, f32) -> none",
    "call.i32 (i32, f32) -> none",
    "call.i32 (i32, f32) -> i32",
    "call.f32 (i32, f32) -> none",
    "call.f32 (i32, f32) -> f32",
};

TEST(VerifierShapes, AcceptedSetIsPinned) {
  const auto actual = accepted_shapes();
  std::string replacement;
  for (const auto& shape : actual) replacement += "    \"" + shape + "\",\n";
  EXPECT_EQ(actual, kAccepted) << "accepted shapes changed; the list is now:\n"
                               << replacement;
}

}  // namespace
}  // namespace asipfb::ir
