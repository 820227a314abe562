#include "sim/machine.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "frontend/compile.hpp"
#include "ir/builder.hpp"
#include "opt/cleanup.hpp"
#include "pipeline/driver.hpp"
#include "workloads/suite.hpp"

namespace asipfb::sim {
namespace {

using ir::BlockId;
using ir::Builder;
using ir::Function;
using ir::Opcode;
using ir::Reg;
using ir::Type;

/// Builds main() { return <op>(a, b); } directly in IR.
ir::Module binary_op_module(Opcode op, std::int32_t a, std::int32_t b) {
  ir::Module m;
  Function fn;
  fn.name = "main";
  fn.return_type = Type::I32;
  Builder builder(fn);
  builder.set_insert_point(builder.create_block("entry"));
  const Reg ra = builder.emit_movi(a);
  const Reg rb = builder.emit_movi(b);
  const Reg rc = builder.emit_binary(op, Type::I32, ra, rb);
  builder.emit_ret_value(rc);
  m.functions.push_back(std::move(fn));
  return m;
}

std::int32_t run_binary(Opcode op, std::int32_t a, std::int32_t b) {
  ir::Module m = binary_op_module(op, a, b);
  Machine machine(m);
  return machine.run().exit_code;
}

TEST(Machine, IntegerArithmetic) {
  EXPECT_EQ(run_binary(Opcode::Add, 20, 22), 42);
  EXPECT_EQ(run_binary(Opcode::Sub, 10, 30), -20);
  EXPECT_EQ(run_binary(Opcode::Mul, -6, 7), -42);
  EXPECT_EQ(run_binary(Opcode::Div, 43, 7), 6);
  EXPECT_EQ(run_binary(Opcode::Rem, 43, 7), 1);
}

TEST(Machine, IntegerWraparoundIsDefined) {
  EXPECT_EQ(run_binary(Opcode::Add, 2147483647, 1), -2147483648);
  EXPECT_EQ(run_binary(Opcode::Mul, 1 << 30, 4), 0);
}

TEST(Machine, DivisionIntMinByMinusOneDoesNotTrap) {
  EXPECT_EQ(run_binary(Opcode::Div, -2147483648, -1), -2147483648);
}

TEST(Machine, Shifts) {
  EXPECT_EQ(run_binary(Opcode::Shl, 3, 4), 48);
  EXPECT_EQ(run_binary(Opcode::Shr, -16, 2), -4) << "arithmetic right shift";
  EXPECT_EQ(run_binary(Opcode::Shl, 1, 33), 2) << "shift amount masked to 5 bits";
}

TEST(Machine, Logic) {
  EXPECT_EQ(run_binary(Opcode::And, 12, 10), 8);
  EXPECT_EQ(run_binary(Opcode::Or, 12, 10), 14);
  EXPECT_EQ(run_binary(Opcode::Xor, 12, 10), 6);
}

TEST(Machine, Comparisons) {
  EXPECT_EQ(run_binary(Opcode::CmpLt, -5, 3), 1);
  EXPECT_EQ(run_binary(Opcode::CmpGe, -5, 3), 0);
  EXPECT_EQ(run_binary(Opcode::CmpEq, 9, 9), 1);
  EXPECT_EQ(run_binary(Opcode::CmpNe, 9, 9), 0);
}

TEST(Machine, DivideByZeroTraps) {
  ir::Module m = binary_op_module(Opcode::Div, 1, 0);
  Machine machine(m);
  EXPECT_THROW(machine.run(), SimError);
}

TEST(Machine, RemainderByZeroTraps) {
  ir::Module m = binary_op_module(Opcode::Rem, 1, 0);
  Machine machine(m);
  EXPECT_THROW(machine.run(), SimError);
}

/// Float behaviour via BenchC for brevity.
std::int32_t run_source(const char* src) {
  ir::Module m = fe::compile_benchc(src, "m");
  Machine machine(m);
  return machine.run().exit_code;
}

TEST(Machine, FloatArithmetic) {
  EXPECT_EQ(run_source("int main() { return (int)((1.5 + 2.5) * 4.0 / 2.0 - 1.0); }"), 7);
}

TEST(Machine, FloatNegation) {
  EXPECT_EQ(run_source("int main() { float f = 2.5; return (int)(-f * 2.0); }"), -5);
}

TEST(Machine, FpToIntOutOfRangeIsZero) {
  EXPECT_EQ(run_source("int main() { float f = 1e20; return (int)f; }"), 0);
  EXPECT_EQ(run_source("int main() { float f = 1e20; return (int)(f - f * 1.0 + 5.0); }"), 5);
}

TEST(Machine, GlobalsInitializedOnConstruction) {
  ir::Module m = fe::compile_benchc("int a[3] = {5, 6, 7}; int main() { return a[1]; }", "g");
  Machine machine(m);
  EXPECT_EQ(machine.run().exit_code, 6);
  EXPECT_EQ(machine.read_global_i32("a"), (std::vector<std::int32_t>{5, 6, 7}));
}

TEST(Machine, WriteGlobalBeforeRun) {
  ir::Module m = fe::compile_benchc("int x[4]; int main() { return x[0] + x[3]; }", "g");
  Machine machine(m);
  const std::vector<std::int32_t> data{10, 0, 0, 32};
  machine.write_global("x", data);
  EXPECT_EQ(machine.run().exit_code, 42);
}

TEST(Machine, WriteGlobalFloat) {
  ir::Module m = fe::compile_benchc("float x[2]; int main() { return (int)(x[0] * x[1]); }", "g");
  Machine machine(m);
  const std::vector<float> data{2.0f, 21.0f};
  machine.write_global("x", data);
  EXPECT_EQ(machine.run().exit_code, 42);
  const auto back = machine.read_global_f32("x");
  EXPECT_FLOAT_EQ(back[1], 21.0f);
}

TEST(Machine, UnknownGlobalThrows) {
  ir::Module m = fe::compile_benchc("int main() { return 0; }", "g");
  Machine machine(m);
  const std::vector<std::int32_t> data{1};
  EXPECT_THROW(machine.write_global("nope", data), SimError);
  EXPECT_THROW(machine.read_global_i32("nope"), SimError);
}

TEST(Machine, OversizedWriteThrows) {
  ir::Module m = fe::compile_benchc("int x[2]; int main() { return 0; }", "g");
  Machine machine(m);
  const std::vector<std::int32_t> data{1, 2, 3};
  EXPECT_THROW(machine.write_global("x", data), SimError);
}

TEST(Machine, ResetMemoryRestoresInitialImage) {
  ir::Module m = fe::compile_benchc(
      "int a[2] = {1, 2}; int main() { a[0] = 99; return a[0]; }", "g");
  Machine machine(m);
  EXPECT_EQ(machine.run().exit_code, 99);
  machine.reset_memory();
  EXPECT_EQ(machine.read_global_i32("a"), (std::vector<std::int32_t>{1, 2}));
}

TEST(Machine, OutOfBoundsLoadReturnsZeroAndCounts) {
  // a[i] far past the array reads as 0 and the rest of the expression still
  // evaluates.  A negative index wraps to a huge unsigned address and index
  // 2e6 is past the end of memory: speculative loads that count one
  // oob_load each.  Index 1e6 lands in the (zeroed) frame region, which is
  // still memory, so it counts none.
  for (const auto& [index, oob_loads] :
       {std::pair<const char*, std::uint64_t>{"-1000000000", 1},
        std::pair<const char*, std::uint64_t>{"1000000", 0},
        std::pair<const char*, std::uint64_t>{"2000000", 1}}) {
    SCOPED_TRACE(index);
    ir::Module m = fe::compile_benchc(
        std::string("int a[4]; int main() { int i = ") + index + "; return a[i] + 7; }",
        "g");
    const SimResult r = Machine(m).run();
    EXPECT_EQ(r.exit_code, 7);
    EXPECT_EQ(r.oob_loads, oob_loads);
  }
}

TEST(Machine, StepCountMatchesProfileSum) {
  ir::Module m = fe::compile_benchc(
      "int main() { int s = 0; int i; for (i = 0; i < 10; i++) s += i; return s; }",
      "g");
  SimResult r = profile_run(m);
  EXPECT_EQ(r.exit_code, 45);
  EXPECT_EQ(r.steps, m.total_dynamic_ops());
}

TEST(Machine, ProfileCountsLoopBodyTimes) {
  ir::Module m = fe::compile_benchc(
      "int g; int main() { int i; for (i = 0; i < 7; i++) g = g + 1; return g; }", "g");
  profile_run(m);
  // Some instruction must have executed exactly 7 times (the body).
  bool found7 = false;
  for (const auto& block : m.functions[0].blocks) {
    for (const auto& instr : block.instrs) {
      if (instr.exec_count == 7) found7 = true;
    }
  }
  EXPECT_TRUE(found7);
}

TEST(Machine, ClearProfileZeroes) {
  ir::Module m = fe::compile_benchc("int main() { return 1; }", "g");
  profile_run(m);
  EXPECT_GT(m.total_dynamic_ops(), 0u);
  clear_profile(m);
  EXPECT_EQ(m.total_dynamic_ops(), 0u);
}

TEST(Machine, StepLimitEnforced) {
  ir::Module m = fe::compile_benchc("int main() { while (1) {} return 0; }", "g");
  Machine machine(m);
  SimOptions options;
  options.max_steps = 1000;
  EXPECT_THROW(machine.run(options), SimError);
}

TEST(Machine, MissingEntryThrows) {
  ir::Module m = fe::compile_benchc("int helper() { return 1; }", "g");
  Machine machine(m);
  EXPECT_THROW(machine.run(), SimError);
}

TEST(Machine, CustomEntryFunction) {
  ir::Module m = fe::compile_benchc(
      "int helper() { return 31; } int main() { return 1; }", "g");
  Machine machine(m);
  EXPECT_EQ(machine.run({}, "helper").exit_code, 31);
}

TEST(Machine, IntrinsicsEvaluate) {
  EXPECT_EQ(run_source("int main() { return (int)(expf(0.0) + logf(1.0)); }"), 1);
  EXPECT_EQ(run_source("int main() { return (int)(sqrtf(2.0) * sqrtf(2.0) + 0.001); }"), 2);
}

TEST(Machine, FrameIsolationBetweenCalls) {
  // Each call gets a fresh frame; locals do not alias across calls.
  EXPECT_EQ(run_source(R"(
    int probe(int v) {
      int t[4];
      t[0] = v;
      return t[0];
    }
    int main() {
      int a = probe(5);
      int b = probe(9);
      return a * 10 + b;
    })"), 59);
}

TEST(Machine, RecursionUsesDistinctFrames) {
  EXPECT_EQ(run_source(R"(
    int sum(int n) {
      int local[2];
      local[0] = n;
      if (n == 0) return 0;
      return local[0] + sum(n - 1);
    }
    int main() { return sum(5); })"), 15);
}

// --- Call limits and machine reuse ------------------------------------------

/// Every instruction's exec_count, in function/block/instruction order.
std::vector<std::uint64_t> exec_counts(const ir::Module& m) {
  std::vector<std::uint64_t> counts;
  for (const auto& fn : m.functions) {
    for (const auto& block : fn.blocks) {
      for (const auto& instr : block.instrs) counts.push_back(instr.exec_count);
    }
  }
  return counts;
}

/// main() { return down(n); } where down recurses n times below the first
/// call: n + 1 nested calls in all.
std::string countdown_source(int n) {
  return "int down(int n) { if (n == 0) return 0; return 1 + down(n - 1); }\n"
         "int main() { return down(" + std::to_string(n) + "); }\n";
}

TEST(Machine, CallDepthLimitCountsNestedCalls) {
  // Eleven nested calls below main fit a depth budget of 11 and fault one
  // below it; the default budget of 256 stops a 301-deep recursion.
  ir::Module m = fe::compile_benchc(countdown_source(10), "depth");
  Machine machine(m);
  SimOptions options;
  options.max_call_depth = 11;
  EXPECT_EQ(machine.run(options).exit_code, 10);
  options.max_call_depth = 10;
  try {
    machine.run(options);
    ADD_FAILURE() << "run should have faulted";
  } catch (const SimError& e) {
    EXPECT_STREQ(e.what(), "call depth exceeded");
  }

  ir::Module deep = fe::compile_benchc(countdown_source(300), "deep");
  try {
    Machine(deep).run();
    ADD_FAILURE() << "run should have faulted";
  } catch (const SimError& e) {
    EXPECT_STREQ(e.what(), "call depth exceeded");
  }
}

TEST(Machine, FrameStackOverflowNamesTheCallee) {
  // Each big() frame holds 400k words of a 1M-word frame region: two
  // frames fit, the third call overflows and the message names big.
  const auto source = [](int n) {
    return "int big(int n) { int t[400000]; t[0] = n;\n"
           "  if (n == 0) return t[0]; return big(n - 1) + t[0]; }\n"
           "int main() { return big(" + std::to_string(n) + "); }\n";
  };
  ir::Module fits = fe::compile_benchc(source(1), "fits");
  EXPECT_EQ(Machine(fits).run().exit_code, 1);
  ir::Module overflows = fe::compile_benchc(source(2), "overflows");
  try {
    Machine(overflows).run();
    ADD_FAILURE() << "run should have faulted";
  } catch (const SimError& e) {
    EXPECT_STREQ(e.what(), "frame stack overflow in big");
  }
}

TEST(Machine, FaultedMachineRunsAgainLikeAFreshOne) {
  // A fault abandons the run mid-recursion with dirty frames; the next run
  // on the same machine must not see any of it.
  ir::Module m = fe::compile_benchc(R"(
    int g;
    int walk(int n) {
      int t[4];
      t[0] = t[0] + n;
      if (n == 0) return t[0];
      return t[0] + walk(n - 1);
    }
    int main() { g = g + 1; return walk(20) * 10 + g; })", "refault");
  ir::Module fresh_m = m;
  const SimResult fresh = Machine(fresh_m).run();
  ASSERT_EQ(fresh.exit_code, 2101);

  Machine machine(m);
  SimOptions depth;
  depth.max_call_depth = 5;
  EXPECT_THROW(machine.run(depth), SimError);
  SimOptions steps;
  steps.max_steps = fresh.steps / 2;
  EXPECT_THROW(machine.run(steps), SimError);
  machine.reset_memory();
  const SimResult again = machine.run();
  EXPECT_EQ(again.exit_code, fresh.exit_code);
  EXPECT_EQ(again.steps, fresh.steps);
  EXPECT_EQ(again.cycles, fresh.cycles);
}

TEST(Machine, RepeatedRunsKeepGlobalsAndZeroFrames) {
  // Globals persist from run to run; locals start from zero every run;
  // reset_memory() brings the globals back to their initial image.
  ir::Module m = fe::compile_benchc(
      "int g = 100;\n"
      "int main() { int t[2]; t[0] = t[0] + 1; g = g + t[0]; return g + t[0] * 1000; }\n",
      "rerun");
  Machine machine(m);
  EXPECT_EQ(machine.run().exit_code, 1101);
  EXPECT_EQ(machine.run().exit_code, 1102);
  EXPECT_EQ(machine.run().exit_code, 1103);
  machine.reset_memory();
  EXPECT_EQ(machine.run().exit_code, 1101);
}

TEST(Machine, ProfiledRunsAccumulateCounts) {
  // Profiled runs add to exec_count; they never overwrite it.
  ir::Module m = fe::compile_benchc(
      "int main() { int s = 0; int i; for (i = 0; i < 5; i++) s += i; return s; }", "acc");
  const SimResult once = profile_run(m);
  const std::vector<std::uint64_t> single = exec_counts(m);
  Machine machine(m);
  SimOptions options;
  options.profile = true;
  EXPECT_EQ(machine.run(options).steps, once.steps);
  std::vector<std::uint64_t> doubled = single;
  for (auto& c : doubled) c *= 2;
  EXPECT_EQ(exec_counts(m), doubled);
  EXPECT_EQ(m.total_dynamic_ops(), 2 * once.steps);
}

TEST(Machine, FloatToIntConversionEdges) {
  // FpToInt truncates toward zero; NaN, infinities and values outside the
  // int range convert to 0.  IntToFp rounds to the nearest float.
  const auto fp_to_int = [](float value) {
    ir::Module m;
    Function fn;
    fn.name = "main";
    fn.return_type = Type::I32;
    Builder b(fn);
    b.set_insert_point(b.create_block("entry"));
    b.emit_ret_value(b.emit_unary(Opcode::FpToInt, Type::I32, b.emit_movf(value)));
    m.functions.push_back(std::move(fn));
    return Machine(m).run().exit_code;
  };
  const float inf = std::numeric_limits<float>::infinity();
  EXPECT_EQ(fp_to_int(2.75f), 2);
  EXPECT_EQ(fp_to_int(-2.75f), -2);
  EXPECT_EQ(fp_to_int(-0.5f), 0);
  EXPECT_EQ(fp_to_int(2147483520.0f), 2147483520);
  EXPECT_EQ(fp_to_int(-2147483648.0f), std::numeric_limits<std::int32_t>::min());
  EXPECT_EQ(fp_to_int(2147483648.0f), 0);
  EXPECT_EQ(fp_to_int(-2147483904.0f), 0);
  EXPECT_EQ(fp_to_int(std::numeric_limits<float>::quiet_NaN()), 0);
  EXPECT_EQ(fp_to_int(inf), 0);
  EXPECT_EQ(fp_to_int(-inf), 0);

  ir::Module m = fe::compile_benchc(
      "float F[2];\n"
      "int main() { int a = 16777217; int b = -16777219; F[0] = a; F[1] = b; return 0; }\n",
      "itof");
  Machine machine(m);
  machine.run();
  EXPECT_EQ(machine.read_global_f32("F"), (std::vector<float>{16777216.0f, -16777220.0f}));
}

TEST(Machine, SuiteWorkloadsRerunOnOneMachineLikeAFreshOne) {
  // prepare_multi() runs every data set on one machine, relying on
  // reset_memory() to make it a fresh one: a second reset-bind-run must
  // repeat the first run exactly and add the same profile again.
  for (const auto& w : wl::suite()) {
    SCOPED_TRACE(w.name);
    ir::Module m = fe::compile_benchc(w.source, w.name);
    opt::canonicalize(m);
    ir::Module fresh_m = m;
    const auto fresh = pipeline::execute(fresh_m, w.input, w.outputs, /*profile=*/true);

    Machine machine(m);
    SimOptions options;
    options.profile = true;
    for (int pass = 1; pass <= 2; ++pass) {
      SCOPED_TRACE(testing::Message() << "pass " << pass);
      machine.reset_memory();
      for (const auto& [g, values] : w.input.float_inputs) machine.write_global(g, values);
      for (const auto& [g, values] : w.input.int_inputs) machine.write_global(g, values);
      const SimResult r = machine.run(options);
      EXPECT_EQ(r.exit_code, fresh.exit_code);
      EXPECT_EQ(r.steps, fresh.steps);
      EXPECT_EQ(r.cycles, fresh.cycles);
      EXPECT_EQ(r.oob_loads, fresh.oob_loads);
      for (const auto& name : w.outputs) {
        EXPECT_EQ(machine.read_global_i32(name), fresh.outputs.at(name)) << name;
      }
    }
    EXPECT_EQ(m.total_dynamic_ops(), 2 * fresh_m.total_dynamic_ops());
  }
}

// --- Hand-built IR shapes with known results --------------------------------

/// Runs `m` profiled and checks its exit code, step and cycle counts, and
/// per-instruction execution counts against the values given.
void expect_profiled_run(ir::Module m, std::int32_t exit_code, std::uint64_t steps,
                         const std::vector<std::uint64_t>& counts) {
  SimOptions options;
  options.profile = true;
  const SimResult r = Machine(m).run(options);
  EXPECT_EQ(r.exit_code, exit_code);
  EXPECT_EQ(r.steps, steps);
  EXPECT_EQ(r.cycles, steps) << "no chained instructions, one cycle per op";
  EXPECT_EQ(exec_counts(m), counts);
}

/// entry: x=5; y=7; s=x+y; flag=(x<s); condbr flag ? yes : no, where `yes`
/// returns the flag itself (live past the branch) or x (flag dead after it).
ir::Module cmp_br_module(bool reuse_flag) {
  ir::Module m;
  Function fn;
  fn.name = "main";
  fn.return_type = Type::I32;
  Builder b(fn);
  const BlockId entry = b.create_block("entry");
  const BlockId yes = b.create_block("yes");
  const BlockId no = b.create_block("no");
  b.set_insert_point(entry);
  const Reg x = b.emit_movi(5);
  const Reg y = b.emit_movi(7);
  const Reg s = b.emit_binary(Opcode::Add, Type::I32, x, y);
  const Reg flag = b.emit_binary(Opcode::CmpLt, Type::I32, x, s);
  b.emit_cond_br(flag, yes, no);
  b.set_insert_point(yes);
  b.emit_ret_value(reuse_flag ? flag : x);
  b.set_insert_point(no);
  b.emit_ret_value(y);
  m.functions.push_back(std::move(fn));
  return m;
}

TEST(Machine, CompareBranchWithDeadFlag) {
  // The flag's only reader is the branch.
  expect_profiled_run(cmp_br_module(/*reuse_flag=*/false), 5, 6,
                      {1, 1, 1, 1, 1, 1, 0});
}

TEST(Machine, CompareBranchWithLiveFlag) {
  // The flag is also returned after the branch, so its register must hold
  // the comparison result, not only steer the branch.
  expect_profiled_run(cmp_br_module(/*reuse_flag=*/true), 1, 6,
                      {1, 1, 1, 1, 1, 1, 0});
}

TEST(Machine, ConstantCompareBranch) {
  // entry: x=5; y=7; flag=(x<y); condbr — the classic loop exit test with
  // both operands constants that stay live in the successors.
  ir::Module m;
  Function fn;
  fn.name = "main";
  fn.return_type = Type::I32;
  Builder b(fn);
  const BlockId entry = b.create_block("entry");
  const BlockId yes = b.create_block("yes");
  const BlockId no = b.create_block("no");
  b.set_insert_point(entry);
  const Reg x = b.emit_movi(5);
  const Reg y = b.emit_movi(7);
  const Reg flag = b.emit_binary(Opcode::CmpLt, Type::I32, x, y);
  b.emit_cond_br(flag, yes, no);
  b.set_insert_point(yes);
  b.emit_ret_value(x);
  b.set_insert_point(no);
  b.emit_ret_value(y);
  m.functions.push_back(std::move(fn));
  expect_profiled_run(std::move(m), 5, 5, {1, 1, 1, 1, 1, 0});
}

TEST(Machine, MulAddChain) {
  // entry: x=3; y=4; p=x*y; s=p+x; ret s.
  ir::Module m;
  Function fn;
  fn.name = "main";
  fn.return_type = Type::I32;
  Builder b(fn);
  b.set_insert_point(b.create_block("entry"));
  const Reg x = b.emit_movi(3);
  const Reg y = b.emit_movi(4);
  const Reg p = b.emit_binary(Opcode::Mul, Type::I32, x, y);
  const Reg s = b.emit_binary(Opcode::Add, Type::I32, p, x);
  b.emit_ret_value(s);
  m.functions.push_back(std::move(fn));
  expect_profiled_run(std::move(m), 15, 5, {1, 1, 1, 1, 1});
}

/// entry: a=lhs; b=rhs; flag=op(a,b); condbr flag ? ret 1 : ret 0.  Float
/// operands go through MovF; integer ones through MovI.
ir::Module compare_branch_module(Opcode op, float lhs, float rhs) {
  const bool is_float = op >= Opcode::FCmpEq && op <= Opcode::FCmpGe;
  ir::Module m;
  Function fn;
  fn.name = "main";
  fn.return_type = Type::I32;
  Builder b(fn);
  const BlockId entry = b.create_block("entry");
  const BlockId yes = b.create_block("yes");
  const BlockId no = b.create_block("no");
  b.set_insert_point(entry);
  const Reg a = is_float ? b.emit_movf(lhs) : b.emit_movi(static_cast<std::int32_t>(lhs));
  const Reg c = is_float ? b.emit_movf(rhs) : b.emit_movi(static_cast<std::int32_t>(rhs));
  const Reg flag = b.emit_binary(op, Type::I32, a, c);
  b.emit_cond_br(flag, yes, no);
  b.set_insert_point(yes);
  b.emit_ret_value(b.emit_movi(1));
  b.set_insert_point(no);
  b.emit_ret_value(b.emit_movi(0));
  m.functions.push_back(std::move(fn));
  return m;
}

/// The C++ meaning of each comparison opcode, the reference for the simulator.
bool compare(Opcode op, float a, float b) {
  switch (op) {
    case Opcode::CmpEq: case Opcode::FCmpEq: return a == b;
    case Opcode::CmpNe: case Opcode::FCmpNe: return a != b;
    case Opcode::CmpLt: case Opcode::FCmpLt: return a < b;
    case Opcode::CmpLe: case Opcode::FCmpLe: return a <= b;
    case Opcode::CmpGt: case Opcode::FCmpGt: return a > b;
    case Opcode::CmpGe: case Opcode::FCmpGe: return a >= b;
    default: ADD_FAILURE() << "not a comparison"; return false;
  }
}

/// Runs every comparison opcode in [first, last] over `operands` and checks
/// the branch went the way C++ says, through the taken block only.
void expect_compares_like_cpp(Opcode first, Opcode last,
                              const std::vector<std::pair<float, float>>& operands) {
  for (int i = static_cast<int>(first); i <= static_cast<int>(last); ++i) {
    const auto op = static_cast<Opcode>(i);
    for (const auto& [lhs, rhs] : operands) {
      SCOPED_TRACE(testing::Message() << "opcode " << i << " (" << lhs << ", "
                                      << rhs << ")");
      const bool taken = compare(op, lhs, rhs);
      expect_profiled_run(compare_branch_module(op, lhs, rhs), taken ? 1 : 0, 6,
                          {1, 1, 1, 1, taken ? 1u : 0u, taken ? 1u : 0u,
                           taken ? 0u : 1u, taken ? 0u : 1u});
    }
  }
}

TEST(Machine, EveryIntegerCompareBranchesLikeCpp) {
  // Each integer comparison steers a branch both ways, with equal, smaller,
  // larger and mixed-sign operands.
  expect_compares_like_cpp(Opcode::CmpEq, Opcode::CmpGe,
                           {{3, 3}, {2, 5}, {5, 2}, {-1, 1}, {1, -1}});
}

TEST(Machine, EveryFloatCompareBranchesLikeCpp) {
  // Float comparisons are unordered-aware: every comparison with a NaN
  // operand is false except !=, and +0 equals -0.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  expect_compares_like_cpp(Opcode::FCmpEq, Opcode::FCmpGe,
                           {{1.5f, 1.5f}, {-2.0f, 0.5f}, {0.5f, -2.0f},
                            {0.0f, -0.0f}, {nan, 1.0f}, {1.0f, nan}, {nan, nan}});
}

// --- C++ semantics at the edges ---------------------------------------------

TEST(Machine, ShiftAndDivisionEdgeCasesFollowCpp) {
  // Shifts of INT_MIN: >> is arithmetic (-1), << wraps to 0.  Division and
  // remainder with negative operands truncate toward zero, as in C++.
  ir::Module m = fe::compile_benchc(
      "int A[4];\n"
      "int main() {\n"
      "  int a; int b; int s;\n"
      "  a = -2147483647 - 1; b = -1;\n"
      "  s = (a >> 31) + (a << 1);\n"
      "  A[0] = (-7) / 2; A[1] = (-7) % 2; A[2] = 7 / -2; A[3] = 7 % -2;\n"
      "  return s + A[0] + A[1] + A[2] + A[3] + b;\n"
      "}\n",
      "edges");
  Machine machine(m);
  EXPECT_EQ(machine.run().exit_code, -8);
  EXPECT_EQ(machine.read_global_i32("A"), (std::vector<std::int32_t>{-3, -1, -3, 1}));
}

TEST(Machine, FloatIntrinsicRoundTripOutputsPinned) {
  // sqrt and sin go through libm on floats, conversions truncate, and a
  // float compare guards an accumulation: every output must equal the same
  // computation written in C++ on float, bit for bit.
  ir::Module m = fe::compile_benchc(
      "float F[8];\nint N[8];\nfloat facc;\n"
      "int main() {\n"
      "  int i;\n"
      "  for (i = 0; i < 8; i++) {\n"
      "    F[i] = sqrt(i * 2.25) - sin(i * 0.5);\n"
      "    if (F[i] < 1.5) { facc = facc + F[i]; }\n"
      "    N[i] = (int)(F[i] * 100.0);\n"
      "  }\n"
      "  return (int)facc + N[7];\n"
      "}\n",
      "floats");
  Machine machine(m);
  const SimResult r = machine.run();

  std::vector<float> f(8);
  float facc = 0.0f;
  for (int i = 0; i < 8; ++i) {
    f[i] = std::sqrt(static_cast<float>(i) * 2.25f) - std::sin(static_cast<float>(i) * 0.5f);
    if (f[i] < 1.5f) facc = facc + f[i];
  }
  const auto bits = [](const std::vector<float>& v) {
    std::vector<std::uint32_t> out;
    for (float x : v) out.push_back(std::bit_cast<std::uint32_t>(x));
    return out;
  };
  EXPECT_EQ(bits(machine.read_global_f32("F")), bits(f));
  EXPECT_EQ(bits(machine.read_global_f32("facc")), bits({facc}));
  EXPECT_EQ(machine.read_global_i32("N"),
            (std::vector<std::int32_t>{0, 102, 127, 160, 209, 275, 353, 431}));
  EXPECT_EQ(r.exit_code, 433);
}

// --- Faults: exact messages and truncated profiles --------------------------

/// Runs `m` profiled, expecting a fault; returns the message.
std::string run_expect_fault(ir::Module& m, std::uint64_t max_steps = 0) {
  Machine machine(m);
  SimOptions options;
  options.profile = true;
  if (max_steps != 0) options.max_steps = max_steps;
  try {
    machine.run(options);
  } catch (const SimError& e) {
    return e.what();
  }
  ADD_FAILURE() << "run should have faulted";
  return {};
}

TEST(Machine, StoreFaultMessageAndProfileArePinned) {
  // x+y -> store [t] with t wildly out of bounds.  The message names the
  // function and the address; the profile counts every instruction up to
  // and including the store, and not the return after it.
  ir::Module m;
  Function fn;
  fn.name = "main";
  fn.return_type = Type::I32;
  Builder b(fn);
  b.set_insert_point(b.create_block("entry"));
  const Reg x = b.emit_movi(0x7ffffffe);
  const Reg y = b.emit_movi(1);
  const Reg v = b.emit_movi(42);
  const Reg t = b.emit_binary(Opcode::Add, Type::I32, x, y);
  b.emit_store(Type::I32, t, v);
  b.emit_ret_value(v);
  m.functions.push_back(std::move(fn));
  EXPECT_EQ(run_expect_fault(m), "out-of-bounds store in main at address 2147483647");
  EXPECT_EQ(exec_counts(m), (std::vector<std::uint64_t>{1, 1, 1, 1, 1, 0}));
}

TEST(Machine, DivisionAndRemainderFaultMessagesArePinned) {
  // Division and remainder by a runtime zero name the operation and the
  // function; the faulting instruction is the last one counted.
  for (const auto& [op, message] :
       {std::pair<const char*, const char*>{"/", "division by zero in main"},
        std::pair<const char*, const char*>{"%", "remainder by zero in main"}}) {
    SCOPED_TRACE(op);
    ir::Module m = fe::compile_benchc(
        std::string("int main() { int z; z = 0; return 7 ") + op + " z; }\n",
        "divfault");
    EXPECT_EQ(run_expect_fault(m), message);
    EXPECT_EQ(exec_counts(m), (std::vector<std::uint64_t>{1, 1, 1, 0}));
  }
}

TEST(Machine, StepLimitSweepFaultsAtEveryBudget) {
  // Run the same program under every step budget.  A budget below the
  // program's T steps faults with "step limit exceeded", and the profile
  // counts the first budget + 1 instructions of the execution trace: the
  // budget's worth that ran plus the one it stopped.  So each budget adds
  // exactly one count to the last, and budget T - 1 already gives the full
  // profile.  A budget of T runs to completion.
  const char* source =
      "int A[8];\n"
      "int main() {\n"
      "  int i; int s; s = 0;\n"
      "  for (i = 0; i < 8; i++) { A[i] = i * 3 + 1; s = s + A[i] * 2; }\n"
      "  return s;\n"
      "}\n";
  ir::Module m = fe::compile_benchc(source, "sweep");
  const SimResult full = profile_run(m);
  const std::vector<std::uint64_t> full_counts = exec_counts(m);
  const std::uint64_t total = full.steps;
  ASSERT_EQ(full.exit_code, 184);
  ASSERT_EQ(total, m.total_dynamic_ops());
  ASSERT_GT(total, 8u);

  std::vector<std::uint64_t> previous(full_counts.size(), 0);
  for (std::uint64_t budget = 1; budget < total; ++budget) {
    SCOPED_TRACE(testing::Message() << "budget " << budget);
    clear_profile(m);
    EXPECT_EQ(run_expect_fault(m, budget), "step limit exceeded");
    const std::vector<std::uint64_t> counts = exec_counts(m);
    EXPECT_EQ(m.total_dynamic_ops(), budget + 1);
    std::uint64_t grown = 0;
    for (std::size_t k = 0; k < counts.size(); ++k) {
      EXPECT_LE(counts[k], full_counts[k]);
      EXPECT_GE(counts[k], previous[k]);
      grown += counts[k] - previous[k];
    }
    EXPECT_EQ(grown, budget == 1 ? 2u : 1u);
    previous = counts;
  }
  EXPECT_EQ(previous, full_counts);

  clear_profile(m);
  Machine machine(m);
  SimOptions exact;
  exact.profile = true;
  exact.max_steps = total;
  EXPECT_EQ(machine.run(exact).steps, total);
  EXPECT_EQ(exec_counts(m), full_counts);
}

}  // namespace
}  // namespace asipfb::sim
