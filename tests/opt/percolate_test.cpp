#include "opt/percolate.hpp"

#include <gtest/gtest.h>

#include <string>

#include "frontend/compile.hpp"
#include "ir/builder.hpp"
#include "ir/verifier.hpp"
#include "opt/cleanup.hpp"
#include "opt/optimizer.hpp"
#include "opt/rename.hpp"
#include "opt/unroll.hpp"
#include "pipeline/driver.hpp"
#include "sim/machine.hpp"

namespace asipfb::opt {
namespace {

ir::Module prepared(std::string_view src) {
  auto m = fe::compile_benchc(src, "perc");
  canonicalize(m);
  sim::profile_run(m);
  return m;
}

std::int32_t run(ir::Module& m) {
  sim::Machine machine(m);
  return machine.run().exit_code;
}

TEST(Percolate, MergesStraightLineAfterUnroll) {
  auto m = prepared(
      "int main() { int s = 0; int i; for (i = 0; i < 10; i++) s += i; return s; }");
  unroll_loops(m.functions[0], {.factor = 2});
  const std::size_t before = m.functions[0].blocks.size();
  const auto stats = percolate(m.functions[0]);
  EXPECT_GT(stats.blocks_merged, 0);
  EXPECT_LT(m.functions[0].blocks.size(), before);
  EXPECT_TRUE(ir::verify(m).empty());
  EXPECT_EQ(run(m), 45);
}

TEST(Percolate, HoistsIndexArithmeticAcrossIterationTest) {
  // After unrolling, the second iteration's i++ (dead at loop exit) can
  // speculate above the replicated test.
  auto m = prepared(
      "int g; int main() { int i; for (i = 0; i < 10; i++) g += 2; return g; }");
  unroll_loops(m.functions[0], {.factor = 2});
  const auto stats = percolate(m.functions[0]);
  EXPECT_GT(stats.ops_hoisted, 0);
  EXPECT_TRUE(ir::verify(m).empty());
  EXPECT_EQ(run(m), 20);
}

TEST(Percolate, AccumulatorNotHoistedWithoutRenaming) {
  // s is live at the loop exit; hoisting its update above the exit branch
  // would corrupt the result. Verified behaviourally: result must be exact.
  auto m = prepared(
      "int main() { int s = 0; int i; for (i = 0; i < 9; i++) s += i * i; return s; }");
  unroll_loops(m.functions[0], {.factor = 2});
  percolate(m.functions[0]);
  EXPECT_EQ(run(m), 204);
}

TEST(Percolate, SpeculationDisabledOption) {
  auto m = prepared(
      "int g; int main() { int i; for (i = 0; i < 10; i++) g += 2; return g; }");
  unroll_loops(m.functions[0], {.factor = 2});
  PercolationOptions options;
  options.speculate = false;
  const auto stats = percolate(m.functions[0], options);
  EXPECT_EQ(stats.ops_hoisted, 0);
  EXPECT_EQ(run(m), 20);
}

TEST(Percolate, SemanticsAcrossManyShapes) {
  const char* programs[] = {
      // if inside loop.
      "int main() { int s = 0; int i; for (i = 0; i < 30; i++) { if (i % 3 == 0) s += i; } return s; }",
      // while with break.
      "int main() { int i = 0; while (1) { i++; if (i == 17) break; } return i; }",
      // nested loops with array.
      "int a[25]; int main() { int i; int j; for (i = 0; i < 5; i++) for (j = 0; j < 5; j++) a[i*5+j] = i+j; return a[24]; }",
      // float accumulation.
      "float x[8]; int main() { int i; float s = 0.0; for (i = 0; i < 8; i++) { x[i] = i * 0.25; s += x[i]; } return (int)(s * 10.0); }",
  };
  const std::int32_t expected[] = {135, 17, 8, 70};
  for (int p = 0; p < 4; ++p) {
    auto m = prepared(programs[p]);
    for (auto& fn : m.functions) {
      unroll_loops(fn, {.factor = 2});
      percolate(fn);
    }
    EXPECT_TRUE(ir::verify(m).empty()) << "program " << p;
    EXPECT_EQ(run(m), expected[p]) << "program " << p;
  }
}

TEST(Percolate, ChainPreservingOffStillCorrect) {
  auto m = prepared(
      "int main() { int s = 0; int i; for (i = 0; i < 16; i++) s += i * 5; return s; }");
  for (auto& fn : m.functions) {
    unroll_loops(fn, {.factor = 2});
    rename_registers(fn);
    PercolationOptions options;
    options.chain_preserving = false;
    percolate(fn, options);
  }
  EXPECT_TRUE(ir::verify(m).empty());
  EXPECT_EQ(run(m), 600);
}

TEST(Percolate, ChainPreservingOffHoistsMore) {
  const char* src =
      "float x[32]; int main() { int i; float s = 0.0; for (i = 0; i < 32; i++) s += x[i] * 0.5; return (int)s; }";
  auto m1 = prepared(src);
  auto m2 = prepared(src);
  int hoisted_preserving = 0;
  int hoisted_free = 0;
  for (auto& fn : m1.functions) {
    unroll_loops(fn, {.factor = 2});
    rename_registers(fn);
    PercolationOptions o;
    o.chain_preserving = true;
    hoisted_preserving += percolate(fn, o).ops_hoisted;
  }
  for (auto& fn : m2.functions) {
    unroll_loops(fn, {.factor = 2});
    rename_registers(fn);
    PercolationOptions o;
    o.chain_preserving = false;
    hoisted_free += percolate(fn, o).ops_hoisted;
  }
  EXPECT_GE(hoisted_free, hoisted_preserving);
}

TEST(Percolate, LoadsMaySpeculateButOutputsStayExact) {
  // x[i+1] is read one past the loop bound once hoisted; speculative load
  // semantics make that read harmless.
  auto m = prepared(R"(
    int x[10];
    int main() {
      int i;
      for (i = 0; i < 10; i++) x[i] = i;
      int s = 0;
      for (i = 0; i < 9; i++) s += x[i] * x[i + 1];
      return s;
    })");
  for (auto& fn : m.functions) {
    unroll_loops(fn, {.factor = 2});
    percolate(fn);
  }
  EXPECT_EQ(run(m), 0*1 + 1*2 + 2*3 + 3*4 + 4*5 + 5*6 + 6*7 + 7*8 + 8*9);
}

TEST(Percolate, FixpointTerminates) {
  auto m = prepared(
      "int main() { int s = 0; int i; for (i = 0; i < 10; i++) s += i; return s; }");
  unroll_loops(m.functions[0], {.factor = 3});
  PercolationOptions options;
  options.max_passes = 64;
  const auto stats = percolate(m.functions[0], options);
  EXPECT_LT(stats.passes, 64) << "must reach a fixpoint before the budget";
}

TEST(Percolate, HoistRescansEarlierSiblingInTheSamePass) {
  // m: a = 1; condbr p, n, s.  s (scanned first): a = 7; ret a.
  // n: t = a + 1; ret t.  s's def of a is blocked while a is live into n;
  // hoisting t out of n frees it, and the same pass must find it.
  ir::Function fn;
  fn.return_type = ir::Type::I32;
  const ir::Reg p = fn.new_reg(ir::Type::I32);
  fn.params.push_back(p);
  ir::Builder b(fn);
  const ir::BlockId m = b.create_block("m");
  const ir::BlockId s = b.create_block("s");
  const ir::BlockId n = b.create_block("n");
  b.set_insert_point(m);
  const ir::Reg a = b.emit_movi(1);
  b.emit_cond_br(p, n, s);
  b.set_insert_point(s);
  b.emit(ir::make::movi(a, 7));
  b.emit_ret_value(a);
  b.set_insert_point(n);
  const ir::Reg one = b.emit_movi(1);
  const ir::Reg t = b.emit_binary(ir::Opcode::Add, ir::Type::I32, a, one);
  b.emit_ret_value(t);

  PercolationOptions options;
  options.chain_preserving = false;  // Let t move without its ret.
  const auto stats = percolate(fn, options);
  EXPECT_EQ(stats.ops_hoisted, 3);
  EXPECT_EQ(stats.passes, 2) << "one pass moves everything, one finds nothing";
  EXPECT_EQ(fn.blocks[s].instrs.size(), 1u);
  EXPECT_EQ(fn.blocks[n].instrs.size(), 1u);
}

TEST(Percolate, SequentialBranchChainIsNearLinear) {
  // 1,000 sequential ifs, each guarding a speculable load and multiply.
  // At O2 renaming frees them to speculate; at O1 each stays chained to
  // its accumulator.  Rebuilding liveness after every hoist made O2 cubic
  // here (minutes); the ctest TIMEOUT on this binary is the time bound, so
  // sanitizer builds are not judged by a wall clock inside the test.
  constexpr int kBranches = 1000;
  std::string src = "int x[" + std::to_string(kBranches) + "]; int out;\n"
                    "int main() {\n  int s = 0;\n  int t = 0;\n";
  for (int k = 0; k < kBranches; ++k) {
    const std::string i = std::to_string(k);
    src += "  if (x[" + i + "] > " + std::to_string(k % 7) + ") { s = s + x[" +
           i + "] * 3; t = t + 1; }\n";
  }
  src += "  out = t;\n  return s;\n}\n";

  pipeline::WorkloadInput input;
  std::vector<std::int32_t> x(kBranches);
  for (int k = 0; k < kBranches; ++k) x[k] = (k * 37) % 11;
  input.add("x", x);

  const auto baseline = prepared(src);
  auto reference = baseline;
  const auto expected = pipeline::execute(reference, input, {"out"});
  ASSERT_GT(expected.outputs.at("out")[0], 0);

  for (const auto& [level, hoisted] :
       {std::pair{OptLevel::O1, 0}, std::pair{OptLevel::O2, 8998}}) {
    auto m = baseline;
    const auto stats = optimize(m, level);
    EXPECT_EQ(stats.percolation.ops_hoisted, hoisted) << to_string(level);
    const auto actual = pipeline::execute(m, input, {"out"});
    EXPECT_EQ(actual.exit_code, expected.exit_code) << to_string(level);
    EXPECT_EQ(actual.outputs, expected.outputs) << to_string(level);
  }
}

}  // namespace
}  // namespace asipfb::opt
