#include "ir/verifier.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "ir/builder.hpp"

namespace asipfb::ir {
namespace {

/// Minimal valid module: int main() { return 0; }
Module valid_module() {
  Module m;
  Function fn;
  fn.name = "main";
  fn.return_type = Type::I32;
  Builder b(fn);
  b.set_insert_point(b.create_block("entry"));
  b.emit_ret_value(b.emit_movi(0));
  m.functions.push_back(std::move(fn));
  return m;
}

TEST(Verifier, AcceptsValidModule) {
  const Module m = valid_module();
  EXPECT_TRUE(verify(m).empty());
  EXPECT_NO_THROW(verify_or_throw(m));
}

TEST(Verifier, RejectsEmptyFunction) {
  Module m = valid_module();
  m.functions[0].blocks.clear();
  EXPECT_FALSE(verify(m).empty());
}

TEST(Verifier, RejectsEmptyBlock) {
  Module m = valid_module();
  m.functions[0].blocks.push_back(BasicBlock{"dangling", {}});
  EXPECT_FALSE(verify(m).empty());
}

TEST(Verifier, RejectsMissingTerminator) {
  Module m = valid_module();
  m.functions[0].blocks[0].instrs.pop_back();  // Drop the ret.
  EXPECT_FALSE(verify(m).empty());
}

TEST(Verifier, RejectsTerminatorMidBlock) {
  Module m = valid_module();
  auto& fn = m.functions[0];
  auto& instrs = fn.blocks[0].instrs;
  Instr extra = make::ret();
  fn.assign_id(extra);
  instrs.insert(instrs.begin(), extra);
  EXPECT_FALSE(verify(m).empty());
}

TEST(Verifier, RejectsBranchOutOfRange) {
  Module m = valid_module();
  auto& fn = m.functions[0];
  fn.blocks[0].instrs.back() = make::br(42);
  fn.assign_id(fn.blocks[0].instrs.back());
  EXPECT_FALSE(verify(m).empty());
}

/// valid_module() with its ret replaced by `term`, which may branch on the
/// block's i32 value.
Module module_ending_in(Instr term) {
  Module m = valid_module();
  auto& fn = m.functions[0];
  fn.assign_id(term);
  fn.blocks[0].instrs.back() = std::move(term);
  return m;
}

/// The one error a branch out of range gives in the one-block function.
const std::vector<std::string> kBranchOutOfRange = {
    "function 'main': block 0 branches out of range"};

TEST(Verifier, RejectsBrToNoBlockOrPastTheLastBlock) {
  EXPECT_EQ(verify(module_ending_in(make::br(kNoBlock))), kBranchOutOfRange);
  EXPECT_EQ(verify(module_ending_in(make::br(1))), kBranchOutOfRange);
}

TEST(Verifier, RejectsCondBrWithEitherTargetOutOfRange) {
  const Reg cond{0};  // valid_module's movi.
  EXPECT_EQ(verify(module_ending_in(make::cond_br(cond, 1, 0))), kBranchOutOfRange);
  EXPECT_EQ(verify(module_ending_in(make::cond_br(cond, 0, 1))), kBranchOutOfRange);
  EXPECT_EQ(verify(module_ending_in(make::cond_br(cond, 0, kNoBlock))),
            kBranchOutOfRange);
}

TEST(Verifier, CondBrWithTwoEqualBadTargetsIsOneError) {
  const Reg cond{0};
  EXPECT_EQ(verify(module_ending_in(make::cond_br(cond, 7, 7))), kBranchOutOfRange);
  EXPECT_EQ(verify(module_ending_in(make::cond_br(cond, kNoBlock, kNoBlock))),
            kBranchOutOfRange);
}

TEST(Verifier, RejectsWrongArity) {
  Module m = valid_module();
  auto& fn = m.functions[0];
  Instr bad = make::binary(Opcode::Add, fn.new_reg(Type::I32), Reg{0}, Reg{0});
  bad.args.pop_back();
  fn.assign_id(bad);
  auto& instrs = fn.blocks[0].instrs;
  instrs.insert(instrs.end() - 1, bad);
  EXPECT_FALSE(verify(m).empty());
}

TEST(Verifier, RejectsTypeMismatch) {
  Module m = valid_module();
  auto& fn = m.functions[0];
  const Reg f = fn.new_reg(Type::F32);
  const Reg i = fn.new_reg(Type::I32);
  // fadd on an integer operand.
  Instr mf = make::movf(f, 1.0f);
  fn.assign_id(mf);
  Instr mi = make::movi(i, 1);
  fn.assign_id(mi);
  Instr bad = make::binary(Opcode::FAdd, fn.new_reg(Type::F32), f, i);
  fn.assign_id(bad);
  auto& instrs = fn.blocks[0].instrs;
  instrs.insert(instrs.end() - 1, mf);
  instrs.insert(instrs.end() - 1, mi);
  instrs.insert(instrs.end() - 1, bad);
  EXPECT_FALSE(verify(m).empty());
}

TEST(Verifier, RejectsUndefinedRegisterUse) {
  Module m = valid_module();
  auto& fn = m.functions[0];
  const Reg ghost = fn.new_reg(Type::I32);
  Instr bad = make::unary(Opcode::Neg, fn.new_reg(Type::I32), ghost);
  fn.assign_id(bad);
  auto& instrs = fn.blocks[0].instrs;
  instrs.insert(instrs.end() - 1, bad);
  const auto errors = verify(m);
  ASSERT_FALSE(errors.empty());
  bool found = false;
  for (const auto& e : errors) {
    if (e.find("possibly-undefined") != std::string::npos) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(Verifier, AcceptsDefinitionOnAllPaths) {
  // if (p) x = 1; else x = 2; use x;  -- defined on both paths.
  Module m;
  Function fn;
  fn.name = "f";
  fn.return_type = Type::I32;
  const Reg p = fn.new_reg(Type::I32);
  fn.params.push_back(p);
  const Reg x = fn.new_reg(Type::I32);
  Builder b(fn);
  const BlockId entry = b.create_block("entry");
  const BlockId then_b = b.create_block("then");
  const BlockId else_b = b.create_block("else");
  const BlockId merge = b.create_block("merge");
  b.set_insert_point(entry);
  b.emit_cond_br(p, then_b, else_b);
  b.set_insert_point(then_b);
  b.emit(make::movi(x, 1));
  b.emit_br(merge);
  b.set_insert_point(else_b);
  b.emit(make::movi(x, 2));
  b.emit_br(merge);
  b.set_insert_point(merge);
  b.emit_ret_value(x);
  m.functions.push_back(std::move(fn));
  EXPECT_TRUE(verify(m).empty());
}

TEST(Verifier, RejectsDefinitionOnOnePathOnly) {
  // if (p) x = 1; use x;  -- undefined when p is false.
  Module m;
  Function fn;
  fn.name = "f";
  fn.return_type = Type::I32;
  const Reg p = fn.new_reg(Type::I32);
  fn.params.push_back(p);
  const Reg x = fn.new_reg(Type::I32);
  Builder b(fn);
  const BlockId entry = b.create_block("entry");
  const BlockId then_b = b.create_block("then");
  const BlockId merge = b.create_block("merge");
  b.set_insert_point(entry);
  b.emit_cond_br(p, then_b, merge);
  b.set_insert_point(then_b);
  b.emit(make::movi(x, 1));
  b.emit_br(merge);
  b.set_insert_point(merge);
  b.emit_ret_value(x);
  m.functions.push_back(std::move(fn));
  EXPECT_FALSE(verify(m).empty());
}

TEST(Verifier, DefiniteAssignmentAtWordBoundaries) {
  // r63, r127 and r128 are assigned on both paths, r64 on one only; the
  // join reads all four.  Exactly r64 is reported.
  Module m;
  Function fn;
  fn.name = "f";
  fn.return_type = Type::I32;
  const Reg p = fn.new_reg(Type::I32);
  fn.params.push_back(p);
  std::vector<Reg> r{p};
  while (r.size() < 130) r.push_back(fn.new_reg(Type::I32));
  Builder b(fn);
  const BlockId entry = b.create_block("entry");
  const BlockId then_b = b.create_block("then");
  const BlockId merge = b.create_block("merge");
  b.set_insert_point(entry);
  for (int i : {63, 127, 128}) b.emit(make::movi(r[i], i));
  b.emit_cond_br(p, then_b, merge);
  b.set_insert_point(then_b);
  b.emit(make::movi(r[64], 64));
  b.emit_br(merge);
  b.set_insert_point(merge);
  b.emit(make::binary(Opcode::Add, r[1], r[63], r[64]));
  b.emit(make::binary(Opcode::Add, r[2], r[127], r[128]));
  b.emit(make::binary(Opcode::Add, r[3], r[1], r[2]));
  b.emit_ret_value(r[3]);
  m.functions.push_back(std::move(fn));
  const auto errors = verify(m);
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_NE(errors[0].find("possibly-undefined register r64 "),
            std::string::npos)
      << errors[0];
}

TEST(Verifier, RejectsUseBeforeDefinitionAroundLoop) {
  // entry: br head.  head: use x; condbr p, body, exit.  body: x = 1;
  // br head.  exit: ret p.  x reaches head along the back edge only.
  Module m;
  Function fn;
  fn.name = "f";
  fn.return_type = Type::I32;
  const Reg p = fn.new_reg(Type::I32);
  fn.params.push_back(p);
  const Reg x = fn.new_reg(Type::I32);
  Builder b(fn);
  const BlockId entry = b.create_block("entry");
  const BlockId head = b.create_block("head");
  const BlockId body = b.create_block("body");
  const BlockId exit = b.create_block("exit");
  b.set_insert_point(entry);
  b.emit_br(head);
  b.set_insert_point(head);
  b.emit_unary(Opcode::Neg, Type::I32, x);
  b.emit_cond_br(p, body, exit);
  b.set_insert_point(body);
  b.emit(make::movi(x, 1));
  b.emit_br(head);
  b.set_insert_point(exit);
  b.emit_ret_value(p);
  m.functions.push_back(std::move(fn));
  const auto errors = verify(m);
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_NE(errors[0].find("possibly-undefined"), std::string::npos);
}

TEST(Verifier, RejectsDuplicateInstrIds) {
  Module m = valid_module();
  auto& fn = m.functions[0];
  Instr dup = make::movi(fn.new_reg(Type::I32), 3);
  dup.id = fn.blocks[0].instrs[0].id;  // Collide.
  dup.origin = dup.id;
  auto& instrs = fn.blocks[0].instrs;
  instrs.insert(instrs.end() - 1, dup);
  EXPECT_FALSE(verify(m).empty());
}

TEST(Verifier, DuplicateIdErrorNamesTheLaterBlock) {
  // entry: br next.  next: ret 0, with the ret reusing the branch's id.
  Module m;
  Function fn;
  fn.name = "main";
  fn.return_type = Type::I32;
  Builder b(fn);
  const BlockId entry = b.create_block("entry");
  const BlockId next = b.create_block("next");
  b.set_insert_point(entry);
  b.emit_br(next);
  b.set_insert_point(next);
  b.emit_ret_value(b.emit_movi(0));
  fn.blocks[next].instrs.back().id = fn.blocks[entry].instrs[0].id;
  m.functions.push_back(std::move(fn));
  const std::vector<std::string> expected{
      "function 'main': duplicate or unassigned instruction id in block 1"};
  EXPECT_EQ(verify(m), expected);
}

TEST(Verifier, UnassignedIdsAreEachReported) {
  // Two kNoInstr ids: each is an error, and neither counts as "seen".
  Module m = valid_module();
  auto& fn = m.functions[0];
  auto& instrs = fn.blocks[0].instrs;
  instrs.insert(instrs.begin(), make::movi(fn.new_reg(Type::I32), 1));
  instrs.insert(instrs.begin(), make::movi(fn.new_reg(Type::I32), 2));
  ASSERT_EQ(instrs[0].id, kNoInstr);
  const std::string message =
      "function 'main': duplicate or unassigned instruction id in block 0";
  EXPECT_EQ(verify(m), (std::vector<std::string>{message, message}));
}

TEST(Verifier, SparseLargeIdsAreAccepted) {
  Module m = valid_module();
  auto& fn = m.functions[0];
  fn.blocks[0].instrs[0].id = 1'000'000;
  fn.next_instr_id = 1'000'001;
  EXPECT_TRUE(verify(m).empty());
}

TEST(Verifier, RejectsGlobalIndexOutOfRange) {
  Module m = valid_module();
  auto& fn = m.functions[0];
  Instr bad = make::addr_global(fn.new_reg(Type::I32), 5);  // No globals exist.
  fn.assign_id(bad);
  auto& instrs = fn.blocks[0].instrs;
  instrs.insert(instrs.end() - 1, bad);
  EXPECT_FALSE(verify(m).empty());
}

/// main with `copy` inserted before its ret: r0 is main's movi result and
/// r1 a free i32 register.
Module module_with_copy(Instr copy) {
  Module m = valid_module();
  auto& fn = m.functions[0];
  fn.new_reg(Type::I32);
  fn.assign_id(copy);
  auto& instrs = fn.blocks[0].instrs;
  instrs.insert(instrs.end() - 1, copy);
  return m;
}

TEST(Verifier, AcceptsCopyBetweenRegistersOfOneType) {
  EXPECT_TRUE(verify(module_with_copy(make::copy(Reg{1}, Reg{0}))).empty());
}

TEST(Verifier, RejectsCopyWithoutDestination) {
  Instr copy = make::copy(Reg{1}, Reg{0});
  copy.dst.reset();
  EXPECT_FALSE(verify(module_with_copy(copy)).empty());
}

TEST(Verifier, RejectsCopyToOutOfRangeRegister) {
  EXPECT_FALSE(verify(module_with_copy(make::copy(Reg{64}, Reg{0}))).empty());
}

TEST(Verifier, RejectsCopyFromOutOfRangeRegister) {
  EXPECT_FALSE(verify(module_with_copy(make::copy(Reg{1}, Reg{64}))).empty());
}

TEST(Verifier, RejectsCallArgumentMismatch) {
  Module m = valid_module();
  Function callee;
  callee.name = "g";
  callee.return_type = Type::Void;
  callee.params.push_back(callee.new_reg(Type::I32));
  Builder cb(callee);
  cb.set_insert_point(cb.create_block("entry"));
  cb.emit_ret();
  m.functions.push_back(std::move(callee));

  auto& fn = m.functions[0];
  Instr bad = make::call(std::nullopt, 1, {});  // Needs one argument.
  fn.assign_id(bad);
  auto& instrs = fn.blocks[0].instrs;
  instrs.insert(instrs.end() - 1, bad);
  EXPECT_FALSE(verify(m).empty());
}

TEST(Verifier, RejectsVoidCallResultCapture) {
  Module m = valid_module();
  Function callee;
  callee.name = "g";
  callee.return_type = Type::Void;
  Builder cb(callee);
  cb.set_insert_point(cb.create_block("entry"));
  cb.emit_ret();
  m.functions.push_back(std::move(callee));

  auto& fn = m.functions[0];
  Instr bad = make::call(fn.new_reg(Type::I32), 1, {});
  fn.assign_id(bad);
  auto& instrs = fn.blocks[0].instrs;
  instrs.insert(instrs.end() - 1, bad);
  EXPECT_FALSE(verify(m).empty());
}

TEST(Verifier, RejectsReturnTypeMismatch) {
  Module m = valid_module();
  auto& fn = m.functions[0];
  fn.return_type = Type::Void;  // But ret carries a value.
  EXPECT_FALSE(verify(m).empty());
}

TEST(Verifier, ThrowListsFunctionName) {
  Module m = valid_module();
  m.functions[0].blocks[0].instrs.pop_back();
  try {
    verify_or_throw(m);
    FAIL() << "expected logic_error";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("main"), std::string::npos);
  }
}

}  // namespace
}  // namespace asipfb::ir
