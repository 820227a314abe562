#include "ir/opcode.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string>

namespace asipfb::ir {
namespace {

std::vector<Opcode> all_opcodes() {
  std::vector<Opcode> out;
  for (int i = 0; i < kNumOpcodes; ++i) out.push_back(static_cast<Opcode>(i));
  return out;
}

TEST(OpcodeInfo, NamesAreUniqueAndNonEmpty) {
  std::set<std::string> names;
  for (Opcode op : all_opcodes()) {
    const std::string name(to_string(op));
    EXPECT_FALSE(name.empty());
    EXPECT_TRUE(names.insert(name).second) << "duplicate name " << name;
  }
}

TEST(OpcodeInfo, TerminatorsAreExactlyBranchesAndRet) {
  for (Opcode op : all_opcodes()) {
    const bool expected =
        op == Opcode::Br || op == Opcode::CondBr || op == Opcode::Ret;
    EXPECT_EQ(info(op).is_terminator, expected) << to_string(op);
  }
}

TEST(OpcodeInfo, OnlyBranchesCarryTargets) {
  for (Opcode op : all_opcodes()) {
    const int expected = op == Opcode::Br ? 1 : op == Opcode::CondBr ? 2 : 0;
    EXPECT_EQ(info(op).num_targets, expected) << to_string(op);
    EXPECT_TRUE(info(op).num_targets == 0 || info(op).is_terminator) << to_string(op);
  }
}

TEST(OpcodeInfo, ChainClassesMatchPaperAlphabet) {
  EXPECT_EQ(info(Opcode::Add).chain_class, ChainClass::Add);
  EXPECT_EQ(info(Opcode::Sub).chain_class, ChainClass::Subtract);
  EXPECT_EQ(info(Opcode::Mul).chain_class, ChainClass::Multiply);
  EXPECT_EQ(info(Opcode::Shl).chain_class, ChainClass::Shift);
  EXPECT_EQ(info(Opcode::Shr).chain_class, ChainClass::Shift);
  EXPECT_EQ(info(Opcode::CmpLt).chain_class, ChainClass::Compare);
  EXPECT_EQ(info(Opcode::Load).chain_class, ChainClass::Load);
  EXPECT_EQ(info(Opcode::Store).chain_class, ChainClass::Store);
  EXPECT_EQ(info(Opcode::FMul).chain_class, ChainClass::FMultiply);
  EXPECT_EQ(info(Opcode::FLoad).chain_class, ChainClass::FLoad);
  EXPECT_EQ(info(Opcode::FStore).chain_class, ChainClass::FStore);
}

TEST(OpcodeInfo, NonChainableOps) {
  for (Opcode op : {Opcode::MovI, Opcode::MovF, Opcode::Copy, Opcode::Br,
                    Opcode::CondBr, Opcode::Ret, Opcode::Call, Opcode::Intrin,
                    Opcode::IntToFp, Opcode::FpToInt, Opcode::AddrGlobal,
                    Opcode::AddrLocal}) {
    EXPECT_FALSE(chainable(op)) << to_string(op);
  }
}

TEST(OpcodeInfo, ChainableOpsHaveClasses) {
  for (Opcode op : {Opcode::Add, Opcode::Sub, Opcode::Mul, Opcode::Div,
                    Opcode::Shl, Opcode::And, Opcode::CmpEq, Opcode::Load,
                    Opcode::Store, Opcode::FAdd, Opcode::FMul, Opcode::FLoad,
                    Opcode::FStore}) {
    EXPECT_TRUE(chainable(op)) << to_string(op);
  }
}

TEST(OpcodeInfo, SpeculableExcludesTrappingAndEffects) {
  EXPECT_TRUE(speculable(Opcode::Add));
  EXPECT_TRUE(speculable(Opcode::FMul));
  EXPECT_TRUE(speculable(Opcode::MovI));
  EXPECT_TRUE(speculable(Opcode::Copy));
  EXPECT_TRUE(speculable(Opcode::Intrin));
  EXPECT_FALSE(speculable(Opcode::Div)) << "division traps";
  EXPECT_FALSE(speculable(Opcode::Rem));
  EXPECT_FALSE(speculable(Opcode::Load)) << "loads handled separately";
  EXPECT_FALSE(speculable(Opcode::Store));
  EXPECT_FALSE(speculable(Opcode::Call));
  EXPECT_FALSE(speculable(Opcode::Br));
}

TEST(OpcodeInfo, ArityTable) {
  EXPECT_EQ(info(Opcode::Add).num_args, 2);
  EXPECT_EQ(info(Opcode::Neg).num_args, 1);
  EXPECT_EQ(info(Opcode::MovI).num_args, 0);
  EXPECT_EQ(info(Opcode::Store).num_args, 2);
  EXPECT_EQ(info(Opcode::Load).num_args, 1);
  EXPECT_EQ(info(Opcode::Call).num_args, -1);
  EXPECT_EQ(info(Opcode::Ret).num_args, -1);
}

TEST(OpcodeInfo, MemoryClasses) {
  for (Opcode op : all_opcodes()) {
    const bool load = op == Opcode::Load || op == Opcode::FLoad;
    const bool barrier =
        op == Opcode::Store || op == Opcode::FStore || op == Opcode::Call;
    EXPECT_EQ(reads_memory(op), load) << to_string(op);
    EXPECT_EQ(is_memory_barrier(op), barrier) << to_string(op);
    EXPECT_EQ(accesses_memory(op), load || barrier) << to_string(op);
    EXPECT_EQ(pure(op), !load && !barrier && !info(op).is_terminator) << to_string(op);
  }
}

TEST(OpcodeInfo, OperandTypesCoverExactlyTheFixedOperands) {
  for (Opcode op : all_opcodes()) {
    const auto& row = info(op);
    for (int i = 0; i < 2; ++i) {
      EXPECT_EQ(row.arg_types[i] != TypeRule::None, i < row.num_args)
          << to_string(op) << " operand " << i;
    }
  }
  EXPECT_EQ(info(Opcode::FStore).arg_types[1], TypeRule::F32);
  EXPECT_EQ(info(Opcode::FCmpLt).result, TypeRule::I32);
  EXPECT_EQ(info(Opcode::IntToFp).result, TypeRule::F32);
  EXPECT_FALSE(info(Opcode::Store).has_result());
  EXPECT_TRUE(info(Opcode::Copy).has_result());
}

TEST(ChainClassNames, PaperStyleLowercase) {
  EXPECT_EQ(to_string(ChainClass::Multiply), "multiply");
  EXPECT_EQ(to_string(ChainClass::FMultiply), "fmultiply");
  EXPECT_EQ(to_string(ChainClass::FLoad), "fload");
  EXPECT_EQ(to_string(ChainClass::Subtract), "subtract");
  EXPECT_EQ(to_string(ChainClass::Compare), "compare");
}

TEST(IntrinsicNames, AllNamed) {
  for (auto k : {IntrinsicKind::Sin, IntrinsicKind::Cos, IntrinsicKind::Sqrt,
                 IntrinsicKind::FAbs, IntrinsicKind::IAbs, IntrinsicKind::Exp,
                 IntrinsicKind::Log, IntrinsicKind::Floor}) {
    EXPECT_FALSE(std::string(to_string(k)).empty());
    EXPECT_NE(to_string(k), "?");
  }
}

}  // namespace
}  // namespace asipfb::ir
