#include "ir/instr.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "ir/function.hpp"

namespace asipfb::ir {
namespace {

TEST(InstrFactories, Binary) {
  const Instr i = make::binary(Opcode::Add, Reg{2}, Reg{0}, Reg{1});
  EXPECT_EQ(i.op, Opcode::Add);
  ASSERT_TRUE(i.dst.has_value());
  EXPECT_EQ(i.dst->id, 2u);
  ASSERT_EQ(i.args.size(), 2u);
  EXPECT_EQ(i.args[0].id, 0u);
  EXPECT_EQ(i.args[1].id, 1u);
}

TEST(InstrFactories, Constants) {
  const Instr mi = make::movi(Reg{0}, -42);
  EXPECT_EQ(mi.imm_i, -42);
  EXPECT_TRUE(mi.args.empty());
  const Instr mf = make::movf(Reg{1}, 2.5f);
  EXPECT_FLOAT_EQ(mf.imm_f, 2.5f);
}

TEST(InstrFactories, MemoryOps) {
  const Instr ld = make::load(Opcode::FLoad, Reg{3}, Reg{1});
  EXPECT_EQ(ld.op, Opcode::FLoad);
  EXPECT_EQ(ld.args.size(), 1u);
  const Instr st = make::store(Opcode::Store, Reg{1}, Reg{2});
  EXPECT_FALSE(st.dst.has_value());
  ASSERT_EQ(st.args.size(), 2u);
  EXPECT_EQ(st.args[0].id, 1u);  // Address first.
  EXPECT_EQ(st.args[1].id, 2u);  // Value second.
}

TEST(InstrFactories, ControlFlow) {
  const Instr br = make::br(7);
  EXPECT_TRUE(br.is_terminator());
  EXPECT_EQ(br.target0, 7u);

  const Instr cbr = make::cond_br(Reg{0}, 1, 2);
  EXPECT_TRUE(cbr.is_terminator());
  EXPECT_EQ(cbr.target0, 1u);
  EXPECT_EQ(cbr.target1, 2u);
  ASSERT_EQ(cbr.args.size(), 1u);

  EXPECT_TRUE(make::ret().is_terminator());
  EXPECT_EQ(make::ret().args.size(), 0u);
  EXPECT_EQ(make::ret_value(Reg{5}).args.size(), 1u);
}

TEST(InstrFactories, CallShape) {
  const Instr c = make::call(Reg{9}, 3, {Reg{1}, Reg{2}});
  EXPECT_EQ(c.op, Opcode::Call);
  EXPECT_EQ(c.callee, 3u);
  EXPECT_EQ(c.args.size(), 2u);
  EXPECT_TRUE(c.dst.has_value());
  const Instr v = make::call(std::nullopt, 0, {});
  EXPECT_FALSE(v.dst.has_value());
}

TEST(InstrFactories, Intrinsic) {
  const Instr i = make::intrin(IntrinsicKind::Sqrt, Reg{4}, {Reg{3}});
  EXPECT_EQ(i.op, Opcode::Intrin);
  EXPECT_EQ(i.intrinsic, IntrinsicKind::Sqrt);
}

TEST(Instr, PurityClassification) {
  EXPECT_TRUE(make::binary(Opcode::Add, Reg{0}, Reg{1}, Reg{2}).is_pure());
  EXPECT_TRUE(make::movi(Reg{0}, 1).is_pure());
  EXPECT_FALSE(make::load(Opcode::Load, Reg{0}, Reg{1}).is_pure());
  EXPECT_FALSE(make::store(Opcode::Store, Reg{0}, Reg{1}).is_pure());
  EXPECT_FALSE(make::br(0).is_pure());
}

TEST(Instr, ForEachTargetVisitsTheTargetsItsRowCounts) {
  std::vector<BlockId> seen;
  const auto visit = [&](BlockId& t) {
    seen.push_back(t);
    t += 10;
  };
  Instr cond = make::cond_br(Reg{0}, 4, 4);
  for_each_target(cond, visit);
  EXPECT_EQ(seen, (std::vector<BlockId>{4, 4})) << "a repeated target once per field";
  EXPECT_EQ(cond.target0, 14u);
  EXPECT_EQ(cond.target1, 14u);

  seen.clear();
  Instr br = make::br(2);
  br.target1 = 7;  // Not a target of a br.
  for_each_target(br, visit);
  EXPECT_EQ(seen, std::vector<BlockId>{2});
  EXPECT_EQ(br.target1, 7u);

  seen.clear();
  Instr ret = make::ret();
  ret.target0 = 3;
  for_each_target(ret, visit);
  EXPECT_TRUE(seen.empty());
}

/// The successor range of `block`, held in a local and copied out.
std::vector<BlockId> successors_of(const BasicBlock& block) {
  const Successors succs = block.successors();
  return {succs.begin(), succs.end()};
}

TEST(BasicBlock, SuccessorsOfBr) {
  EXPECT_EQ(successors_of({"b", {make::br(3)}}), std::vector<BlockId>{3});
}

TEST(BasicBlock, SuccessorsOfCondBr) {
  EXPECT_EQ(successors_of({"b", {make::cond_br(Reg{0}, 1, 2)}}), (std::vector<BlockId>{1, 2}));
}

TEST(BasicBlock, CondBrSameTargetDeduplicated) {
  EXPECT_EQ(successors_of({"b", {make::cond_br(Reg{0}, 4, 4)}}), std::vector<BlockId>{4});
}

TEST(BasicBlock, RetHasNoSuccessors) {
  EXPECT_TRUE(successors_of({"b", {make::ret()}}).empty());
}

TEST(BasicBlock, EmptyBlockHasNoSuccessors) {
  EXPECT_TRUE(successors_of({"b", {}}).empty());
}

TEST(Function, RegAllocationSequential) {
  Function fn;
  const Reg a = fn.new_reg(Type::I32);
  const Reg b = fn.new_reg(Type::F32);
  EXPECT_EQ(a.id, 0u);
  EXPECT_EQ(b.id, 1u);
  EXPECT_EQ(fn.type_of(a), Type::I32);
  EXPECT_EQ(fn.type_of(b), Type::F32);
}

TEST(Function, AssignIdSetsOrigin) {
  Function fn;
  Instr i = make::movi(fn.new_reg(Type::I32), 5);
  fn.assign_id(i);
  EXPECT_EQ(i.id, 0u);
  EXPECT_EQ(i.origin, 0u);
  Instr j = make::movi(fn.new_reg(Type::I32), 6);
  j.origin = 0;  // Pre-set origin survives.
  fn.assign_id(j);
  EXPECT_EQ(j.id, 1u);
  EXPECT_EQ(j.origin, 0u);
}

TEST(Module, FindFunctionAndGlobal) {
  Module m;
  m.functions.push_back(Function{});
  m.functions.back().name = "main";
  m.globals.push_back(GlobalArray{"x", Type::F32, 10, 0, {}});
  EXPECT_EQ(m.find_function("main"), 0u);
  EXPECT_EQ(m.find_function("nope"), kNoFunc);
  EXPECT_EQ(m.find_global("x"), 0);
  EXPECT_EQ(m.find_global("y"), -1);
}

TEST(Module, LayoutAssignsDisjointAddresses) {
  Module m;
  m.globals.push_back(GlobalArray{"a", Type::I32, 10, 0, {}});
  m.globals.push_back(GlobalArray{"b", Type::I32, 5, 0, {}});
  const std::uint64_t total = m.layout_globals();
  EXPECT_EQ(total, 15u);
  EXPECT_EQ(m.globals[0].base_address, 0u);
  EXPECT_EQ(m.globals[1].base_address, 10u);
}

TEST(Function, TotalDynamicOpsSumsCounts) {
  Function fn;
  fn.add_block("entry");
  Instr a = make::movi(fn.new_reg(Type::I32), 1);
  a.exec_count = 10;
  fn.assign_id(a);
  fn.blocks[0].instrs.push_back(a);
  Instr r = make::ret();
  r.exec_count = 10;
  fn.assign_id(r);
  fn.blocks[0].instrs.push_back(r);
  EXPECT_EQ(fn.total_dynamic_ops(), 20u);
  EXPECT_EQ(fn.instr_count(), 2u);
}

}  // namespace
}  // namespace asipfb::ir
