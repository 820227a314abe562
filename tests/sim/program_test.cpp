// Decode layer (sim/program.hpp, sim/decode.hpp) and decoded-engine
// behaviours that the direct-interpretation API surface does not cover:
// flat branch targets, pre-resolved globals and call pools, counting-block
// tables, decode-time rejection of structurally broken modules, machine
// reuse determinism, and profile parity on faulted runs.
#include "sim/decode.hpp"

#include <gtest/gtest.h>

#include <string>

#include "frontend/compile.hpp"
#include "ir/builder.hpp"
#include "sim/machine.hpp"

namespace asipfb::sim {
namespace {

using ir::Builder;
using ir::Function;
using ir::Opcode;
using ir::Reg;
using ir::Type;

/// main() { if (42 != 0) goto then; else goto join; ... } with three blocks,
/// for branch-target checks.
ir::Module diamond_module() {
  ir::Module m;
  Function fn;
  fn.name = "main";
  fn.return_type = Type::I32;
  Builder b(fn);
  const ir::BlockId entry = b.create_block("entry");
  const ir::BlockId then = b.create_block("then");
  const ir::BlockId join = b.create_block("join");
  b.set_insert_point(entry);
  const Reg c = b.emit_movi(42);
  b.emit_cond_br(c, then, join);
  b.set_insert_point(then);
  b.emit_br(join);
  b.set_insert_point(join);
  b.emit_ret_value(c);
  m.functions.push_back(std::move(fn));
  return m;
}

TEST(Decode, FlattensBranchTargetsToFlatIndices) {
  ir::Module m = diamond_module();
  const Program p = decode(m);
  // Layout: entry = [movi, cond_br], then = [br], join = [ret].
  ASSERT_EQ(p.code.size(), 4u);
  EXPECT_EQ(p.code[1].op, Opcode::CondBr);
  EXPECT_EQ(p.code[1].aux0, 2u) << "taken target -> flat index of 'then'";
  EXPECT_EQ(p.code[1].aux1, 3u) << "fall-through -> flat index of 'join'";
  EXPECT_EQ(p.code[2].op, Opcode::Br);
  EXPECT_EQ(p.code[2].aux0, 3u);
}

TEST(Decode, CountingBlocksSplitAfterTerminators) {
  ir::Module m = diamond_module();
  const Program p = decode(m);
  ASSERT_EQ(p.block_of.size(), 4u);
  EXPECT_EQ(p.block_of[0], p.block_of[1]) << "entry block is one counting block";
  EXPECT_NE(p.block_of[1], p.block_of[2]) << "new block after the terminator";
  EXPECT_NE(p.block_of[2], p.block_of[3]);
  ASSERT_EQ(p.block_start.size(), 4u) << "3 blocks + sentinel";
  EXPECT_EQ(p.block_start.back(), p.code.size());
  EXPECT_EQ(p.functions[0].entry_block, p.block_of[p.functions[0].entry]);
}

TEST(Decode, ResolvesGlobalBaseAddresses) {
  ir::Module m = fe::compile_benchc(
      "int a[8]; int b[4]; int main() { return b[0]; }", "g");
  const Program p = decode(m);
  bool found = false;
  for (const auto& d : p.code) {
    if (d.op == Opcode::AddrGlobal) {
      found = true;
      EXPECT_EQ(d.aux0, m.globals[1].base_address) << "resolved to b's base";
    }
  }
  EXPECT_TRUE(found);
}

TEST(Decode, CallPoolsAndEntryPoints) {
  ir::Module m = fe::compile_benchc(
      "int add2(int x, int y) { return x + y; } int main() { return add2(40, 2); }",
      "g");
  const Program p = decode(m);
  const ir::FuncId callee = p.find_function("add2");
  ASSERT_NE(callee, ir::kNoFunc);
  bool found = false;
  for (const auto& d : p.code) {
    if (d.op == Opcode::Call) {
      found = true;
      EXPECT_EQ(d.aux0, callee);
      ASSERT_EQ(d.num_args, 2u);
      EXPECT_LE(d.aux1 + 2u, p.call_arg_slots.size());
    }
  }
  EXPECT_TRUE(found);
  EXPECT_EQ(p.functions[callee].num_params, 2u);
  EXPECT_EQ(p.functions[callee].entry, p.block_start[p.functions[callee].entry_block]);
  EXPECT_EQ(p.find_function("nope"), ir::kNoFunc);
}

TEST(Decode, RejectsEmptyBlock) {
  ir::Module m;
  Function fn;
  fn.name = "main";
  fn.add_block("entry");  // Never filled.
  m.functions.push_back(std::move(fn));
  EXPECT_THROW(decode(m), SimError);
}

TEST(Decode, RejectsMissingTerminator) {
  ir::Module m;
  Function fn;
  fn.name = "main";
  Builder b(fn);
  b.set_insert_point(b.create_block("entry"));
  b.emit_movi(1);  // Block ends without a terminator.
  m.functions.push_back(std::move(fn));
  EXPECT_THROW(decode(m), SimError);
}

/// f() { c = 1; <term> } with `term` built on c, never verified.
ir::Module module_ending_in(ir::Instr (*term)(Reg cond)) {
  ir::Module m;
  Function fn;
  fn.name = "f";
  fn.return_type = Type::I32;
  Builder b(fn);
  b.set_insert_point(b.create_block("entry"));
  const Reg c = b.emit_movi(1);
  b.emit(term(c));
  m.functions.push_back(std::move(fn));
  return m;
}

/// The message decode() throws for `m`, or "" when it does not throw.
std::string decode_error(ir::Module m) {
  try {
    (void)decode(m);
  } catch (const SimError& e) {
    return e.what();
  }
  return "";
}

TEST(Decode, RejectsBranchTargetsOutOfRange) {
  const std::string expected = "decode error in f: branch target out of range";
  using ir::kNoBlock;
  namespace make = ir::make;
  EXPECT_EQ(decode_error(module_ending_in([](Reg) { return make::br(kNoBlock); })),
            expected);
  EXPECT_EQ(decode_error(module_ending_in([](Reg) { return make::br(1); })), expected);
  EXPECT_EQ(decode_error(module_ending_in([](Reg c) { return make::cond_br(c, 1, 0); })),
            expected);
  EXPECT_EQ(decode_error(module_ending_in([](Reg c) { return make::cond_br(c, 0, 1); })),
            expected);
  EXPECT_EQ(decode_error(module_ending_in([](Reg c) { return make::cond_br(c, 7, 7); })),
            expected);
  EXPECT_EQ(decode_error(module_ending_in(
                [](Reg c) { return make::cond_br(c, kNoBlock, kNoBlock); })),
            expected);
}

TEST(Decode, RejectsCallArgumentCountMismatch) {
  ir::Module m;
  Function callee;
  callee.name = "f";
  callee.params.push_back(callee.new_reg(Type::I32));
  Builder cb(callee);
  cb.set_insert_point(cb.create_block("entry"));
  cb.emit_ret_value(callee.params[0]);

  Function fn;
  fn.name = "main";
  Builder b(fn);
  b.set_insert_point(b.create_block("entry"));
  const Reg r = b.emit_call(1, Type::I32, {});  // f takes one argument.
  b.emit_ret_value(r);
  m.functions.push_back(std::move(fn));
  m.functions.push_back(std::move(callee));
  EXPECT_THROW(decode(m), SimError);
}

TEST(Decode, RejectsValueOpWithoutDst) {
  ir::Module m;
  Function fn;
  fn.name = "main";
  Builder b(fn);
  b.set_insert_point(b.create_block("entry"));
  const Reg x = b.emit_movi(1);
  ir::Instr broken = ir::make::binary(Opcode::Add, x, x, x);
  broken.dst.reset();
  b.emit(std::move(broken));
  b.emit_ret_value(x);
  m.functions.push_back(std::move(fn));
  EXPECT_THROW(decode(m), SimError);
}

/// main() reads an uninitialized local, adds 41, stores it back, returns it.
/// A dirty frame region from an earlier run would change the result.
ir::Module dirty_frame_module() {
  ir::Module m;
  Function fn;
  fn.name = "main";
  fn.return_type = Type::I32;
  fn.frame_words = 4;
  Builder b(fn);
  b.set_insert_point(b.create_block("entry"));
  const Reg addr = b.emit_addr_local(3);
  const Reg v = b.emit_load(Type::I32, addr);
  const Reg c = b.emit_movi(41);
  const Reg s = b.emit_binary(Opcode::Add, Type::I32, v, c);
  b.emit_store(Type::I32, addr, s);
  b.emit_ret_value(s);
  m.functions.push_back(std::move(fn));
  return m;
}

TEST(MachineReuse, RepeatedRunsAreDeterministic) {
  ir::Module m = dirty_frame_module();
  Machine machine(m);
  const SimResult first = machine.run();
  const SimResult second = machine.run();
  EXPECT_EQ(first.exit_code, 41);
  EXPECT_EQ(second.exit_code, 41) << "second run must not see the first run's frame";
  EXPECT_EQ(first.steps, second.steps);
  EXPECT_EQ(first.cycles, second.cycles);
}

TEST(MachineReuse, RunAfterFaultIsDeterministic) {
  ir::Module m = dirty_frame_module();
  Machine machine(m);
  SimOptions tiny;
  tiny.max_steps = 3;
  EXPECT_THROW(machine.run(tiny), SimError);
  EXPECT_EQ(machine.run().exit_code, 41);
}

TEST(MachineReuse, GlobalsPersistAcrossRunsUntilReset) {
  ir::Module m = fe::compile_benchc("int g[1]; int main() { g[0] = g[0] + 1; return g[0]; }", "g");
  Machine machine(m);
  EXPECT_EQ(machine.run().exit_code, 1);
  EXPECT_EQ(machine.run().exit_code, 2) << "globals carry over by contract";
  machine.reset_memory();
  EXPECT_EQ(machine.run().exit_code, 1);
}

TEST(MachineReuse, ProfileAccumulatesAcrossRuns) {
  ir::Module m = fe::compile_benchc("int main() { return 7; }", "g");
  Machine machine(m);
  SimOptions options;
  options.profile = true;
  const SimResult once = machine.run(options);
  EXPECT_EQ(m.total_dynamic_ops(), once.steps);
  machine.run(options);
  EXPECT_EQ(m.total_dynamic_ops(), 2 * once.steps) << "counts accumulate, as "
                                                      "prepare_multi relies on";
}

// A direct interpreter bumps exec_count as each operation issues, so on a
// fault the counts cover exactly the operations that issued — including the
// faulting one.  The block-counting engine must reproduce that.

TEST(ProfileFault, StepOverrunCountsEveryIssuedOperation) {
  ir::Module m = fe::compile_benchc("int main() { while (1) {} return 0; }", "g");
  Machine machine(m);
  SimOptions options;
  options.profile = true;
  options.max_steps = 1000;
  EXPECT_THROW(machine.run(options), SimError);
  // steps hits max_steps + 1 when the fault is raised, and the overrunning
  // operation has been counted by then.
  EXPECT_EQ(m.total_dynamic_ops(), 1001u);
}

TEST(ProfileFault, CalleeFaultTruncatesEveryOpenFrame) {
  // f(x) = 1 / x, called with 0: main's instructions after the call and
  // f's after the division must stay at count 0.
  ir::Module m;
  Function f;
  f.name = "f";
  f.return_type = Type::I32;
  f.params.push_back(f.new_reg(Type::I32));
  Builder fb(f);
  fb.set_insert_point(fb.create_block("entry"));
  const Reg one = fb.emit_movi(1);
  const Reg q = fb.emit_binary(Opcode::Div, Type::I32, one, f.params[0]);
  fb.emit_ret_value(q);

  Function main_fn;
  main_fn.name = "main";
  main_fn.return_type = Type::I32;
  Builder b(main_fn);
  b.set_insert_point(b.create_block("entry"));
  const Reg z = b.emit_movi(0);
  const Reg r = b.emit_call(1, Type::I32, {z});
  const Reg t = b.emit_binary(Opcode::Add, Type::I32, r, r);
  b.emit_ret_value(t);
  m.functions.push_back(std::move(main_fn));
  m.functions.push_back(std::move(f));

  Machine machine(m);
  SimOptions options;
  options.profile = true;
  EXPECT_THROW(machine.run(options), SimError);

  const auto& main_instrs = m.functions[0].blocks[0].instrs;
  ASSERT_EQ(main_instrs.size(), 4u);
  EXPECT_EQ(main_instrs[0].exec_count, 1u);  // movi 0
  EXPECT_EQ(main_instrs[1].exec_count, 1u);  // call f
  EXPECT_EQ(main_instrs[2].exec_count, 0u);  // add after the call: never ran
  EXPECT_EQ(main_instrs[3].exec_count, 0u);  // ret: never ran

  const auto& f_instrs = m.functions[1].blocks[0].instrs;
  ASSERT_EQ(f_instrs.size(), 3u);
  EXPECT_EQ(f_instrs[0].exec_count, 1u);  // movi 1
  EXPECT_EQ(f_instrs[1].exec_count, 1u);  // div: issued, then faulted
  EXPECT_EQ(f_instrs[2].exec_count, 0u);  // ret: never ran
}

TEST(Program, MachineExposesDecodedForm) {
  ir::Module m = diamond_module();
  Machine machine(m);
  EXPECT_EQ(machine.program().code.size(), m.instr_count());
  EXPECT_EQ(machine.program().functions.size(), m.functions.size());
}

}  // namespace
}  // namespace asipfb::sim
