#include "ir/opcode.hpp"

#include <array>

namespace asipfb::ir {

namespace {

using CC = ChainClass;
using O = Opcode;

// Operand and result types: N none, I i32, F f32, X set by the instruction.
// tgt is the number of branch targets: target0, then target1.
constexpr TypeRule N = TypeRule::None;
constexpr TypeRule I = TypeRule::I32;
constexpr TypeRule F = TypeRule::F32;
constexpr TypeRule X = TypeRule::PerInstr;

}  // namespace

constexpr std::array<OpcodeInfo, kNumOpcodes> kOpcodeTable = {{
    // op            name          args  types   res tgt term   sidefx reads  trap   chain class
    {O::Add,         "add",           2, {I, I}, I,  0,  false, false, false, false, CC::Add},
    {O::Sub,         "sub",           2, {I, I}, I,  0,  false, false, false, false, CC::Subtract},
    {O::Mul,         "mul",           2, {I, I}, I,  0,  false, false, false, false, CC::Multiply},
    {O::Div,         "div",           2, {I, I}, I,  0,  false, false, false, true,  CC::Divide},
    {O::Rem,         "rem",           2, {I, I}, I,  0,  false, false, false, true,  CC::Divide},
    {O::Neg,         "neg",           1, {I, N}, I,  0,  false, false, false, false, CC::Subtract},
    {O::Shl,         "shl",           2, {I, I}, I,  0,  false, false, false, false, CC::Shift},
    {O::Shr,         "shr",           2, {I, I}, I,  0,  false, false, false, false, CC::Shift},
    {O::And,         "and",           2, {I, I}, I,  0,  false, false, false, false, CC::Logic},
    {O::Or,          "or",            2, {I, I}, I,  0,  false, false, false, false, CC::Logic},
    {O::Xor,         "xor",           2, {I, I}, I,  0,  false, false, false, false, CC::Logic},
    {O::Not,         "not",           1, {I, N}, I,  0,  false, false, false, false, CC::Logic},
    {O::FAdd,        "fadd",          2, {F, F}, F,  0,  false, false, false, false, CC::FAdd},
    {O::FSub,        "fsub",          2, {F, F}, F,  0,  false, false, false, false, CC::FSub},
    {O::FMul,        "fmul",          2, {F, F}, F,  0,  false, false, false, false, CC::FMultiply},
    {O::FDiv,        "fdiv",          2, {F, F}, F,  0,  false, false, false, false, CC::FDivide},
    {O::FNeg,        "fneg",          1, {F, N}, F,  0,  false, false, false, false, CC::FSub},
    {O::CmpEq,       "cmpeq",         2, {I, I}, I,  0,  false, false, false, false, CC::Compare},
    {O::CmpNe,       "cmpne",         2, {I, I}, I,  0,  false, false, false, false, CC::Compare},
    {O::CmpLt,       "cmplt",         2, {I, I}, I,  0,  false, false, false, false, CC::Compare},
    {O::CmpLe,       "cmple",         2, {I, I}, I,  0,  false, false, false, false, CC::Compare},
    {O::CmpGt,       "cmpgt",         2, {I, I}, I,  0,  false, false, false, false, CC::Compare},
    {O::CmpGe,       "cmpge",         2, {I, I}, I,  0,  false, false, false, false, CC::Compare},
    {O::FCmpEq,      "fcmpeq",        2, {F, F}, I,  0,  false, false, false, false, CC::FCompare},
    {O::FCmpNe,      "fcmpne",        2, {F, F}, I,  0,  false, false, false, false, CC::FCompare},
    {O::FCmpLt,      "fcmplt",        2, {F, F}, I,  0,  false, false, false, false, CC::FCompare},
    {O::FCmpLe,      "fcmple",        2, {F, F}, I,  0,  false, false, false, false, CC::FCompare},
    {O::FCmpGt,      "fcmpgt",        2, {F, F}, I,  0,  false, false, false, false, CC::FCompare},
    {O::FCmpGe,      "fcmpge",        2, {F, F}, I,  0,  false, false, false, false, CC::FCompare},
    {O::IntToFp,     "itof",          1, {I, N}, F,  0,  false, false, false, false, CC::None},
    {O::FpToInt,     "ftoi",          1, {F, N}, I,  0,  false, false, false, false, CC::None},
    {O::MovI,        "movi",          0, {N, N}, I,  0,  false, false, false, false, CC::None},
    {O::MovF,        "movf",          0, {N, N}, F,  0,  false, false, false, false, CC::None},
    {O::Copy,        "copy",          1, {X, N}, X,  0,  false, false, false, false, CC::None},
    {O::AddrGlobal,  "addr_global",   0, {N, N}, I,  0,  false, false, false, false, CC::None},
    {O::AddrLocal,   "addr_local",    0, {N, N}, I,  0,  false, false, false, false, CC::None},
    {O::Load,        "load",          1, {I, N}, I,  0,  false, false, true,  true,  CC::Load},
    {O::Store,       "store",         2, {I, I}, N,  0,  false, true,  false, true,  CC::Store},
    {O::FLoad,       "fload",         1, {I, N}, F,  0,  false, false, true,  true,  CC::FLoad},
    {O::FStore,      "fstore",        2, {I, F}, N,  0,  false, true,  false, true,  CC::FStore},
    {O::Intrin,      "intrin",       -1, {N, N}, X,  0,  false, false, false, false, CC::None},
    {O::Br,          "br",            0, {N, N}, N,  1,  true,  true,  false, false, CC::None},
    {O::CondBr,      "condbr",        1, {I, N}, N,  2,  true,  true,  false, false, CC::None},
    {O::Ret,         "ret",          -1, {N, N}, N,  0,  true,  true,  false, false, CC::None},
    {O::Call,        "call",         -1, {N, N}, X,  0,  false, true,  false, true,  CC::None},
}};

static_assert(
    [] {
      for (int i = 0; i < kNumOpcodes; ++i) {
        if (kOpcodeTable[i].op != static_cast<Opcode>(i)) return false;
      }
      return true;
    }(),
    "kOpcodeTable row i must describe opcode i");

std::string_view to_string(ChainClass c) {
  switch (c) {
    case ChainClass::Add: return "add";
    case ChainClass::Subtract: return "subtract";
    case ChainClass::Multiply: return "multiply";
    case ChainClass::Divide: return "divide";
    case ChainClass::Shift: return "shift";
    case ChainClass::Logic: return "logic";
    case ChainClass::Compare: return "compare";
    case ChainClass::Load: return "load";
    case ChainClass::Store: return "store";
    case ChainClass::FAdd: return "fadd";
    case ChainClass::FSub: return "fsub";
    case ChainClass::FMultiply: return "fmultiply";
    case ChainClass::FDivide: return "fdivide";
    case ChainClass::FCompare: return "fcompare";
    case ChainClass::FLoad: return "fload";
    case ChainClass::FStore: return "fstore";
    case ChainClass::None: return "none";
  }
  return "?";
}

std::string_view to_string(IntrinsicKind k) {
  switch (k) {
    case IntrinsicKind::None: return "none";
    case IntrinsicKind::Sin: return "sin";
    case IntrinsicKind::Cos: return "cos";
    case IntrinsicKind::Sqrt: return "sqrt";
    case IntrinsicKind::FAbs: return "fabs";
    case IntrinsicKind::IAbs: return "iabs";
    case IntrinsicKind::Exp: return "exp";
    case IntrinsicKind::Log: return "log";
    case IntrinsicKind::Floor: return "floor";
  }
  return "?";
}

}  // namespace asipfb::ir
