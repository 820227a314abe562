#include "opt/unroll.hpp"

#include <gtest/gtest.h>

#include <set>

#include "frontend/compile.hpp"
#include "ir/verifier.hpp"
#include "opt/cleanup.hpp"
#include "sim/machine.hpp"

namespace asipfb::opt {
namespace {

ir::Module prepared(std::string_view src) {
  auto m = fe::compile_benchc(src, "unroll");
  canonicalize(m);
  sim::profile_run(m);
  return m;
}

const char* const kSumLoop =
    "int main() { int s = 0; int i; for (i = 0; i < 10; i++) s += i; return s; }";

TEST(Unroll, ReplicatesLoopBlocks) {
  auto m = prepared(kSumLoop);
  const std::size_t before = m.functions[0].blocks.size();
  const int unrolled = unroll_loops(m.functions[0], {.factor = 2});
  EXPECT_EQ(unrolled, 1);
  EXPECT_GT(m.functions[0].blocks.size(), before);
  EXPECT_TRUE(ir::verify(m).empty());
}

TEST(Unroll, SemanticsPreservedFactor2) {
  auto m = prepared(kSumLoop);
  unroll_loops(m.functions[0], {.factor = 2});
  sim::Machine machine(m);
  EXPECT_EQ(machine.run().exit_code, 45);
}

TEST(Unroll, SemanticsPreservedFactor3) {
  auto m = prepared(kSumLoop);
  unroll_loops(m.functions[0], {.factor = 3});
  EXPECT_TRUE(ir::verify(m).empty());
  sim::Machine machine(m);
  EXPECT_EQ(machine.run().exit_code, 45);
}

TEST(Unroll, SemanticsPreservedOddTripCount) {
  // 7 iterations does not divide the unroll factor.
  auto m = prepared(
      "int main() { int s = 0; int i; for (i = 0; i < 7; i++) s += i * i; return s; }");
  unroll_loops(m.functions[0], {.factor = 2});
  sim::Machine machine(m);
  EXPECT_EQ(machine.run().exit_code, 91);
}

TEST(Unroll, ZeroTripLoopStillCorrect) {
  auto m = prepared(
      "int main() { int s = 3; int i; for (i = 9; i < 5; i++) s = 0; return s; }");
  unroll_loops(m.functions[0], {.factor = 2});
  sim::Machine machine(m);
  EXPECT_EQ(machine.run().exit_code, 3);
}

TEST(Unroll, TotalProfileWeightPreserved) {
  auto m = prepared(kSumLoop);
  const std::uint64_t before = m.total_dynamic_ops();
  unroll_loops(m.functions[0], {.factor = 2});
  EXPECT_EQ(m.total_dynamic_ops(), before);
}

TEST(Unroll, TotalProfileWeightPreservedFactor4) {
  auto m = prepared(kSumLoop);
  const std::uint64_t before = m.total_dynamic_ops();
  unroll_loops(m.functions[0], {.factor = 4});
  EXPECT_EQ(m.total_dynamic_ops(), before);
}

TEST(Unroll, OnlyInnermostLoopUnrolled) {
  auto m = prepared(R"(
    int main() {
      int s = 0;
      int i;
      int j;
      for (i = 0; i < 4; i++)
        for (j = 0; j < 4; j++)
          s += i * j;
      return s;
    })");
  EXPECT_EQ(unroll_loops(m.functions[0], {.factor = 2}), 1);
  sim::Machine machine(m);
  EXPECT_EQ(machine.run().exit_code, 36);
}

TEST(Unroll, SizeLimitRespected) {
  auto m = prepared(kSumLoop);
  UnrollOptions options;
  options.factor = 2;
  options.max_loop_instrs = 1;  // Nothing fits.
  EXPECT_EQ(unroll_loops(m.functions[0], options), 0);
}

TEST(Unroll, FactorOneIsNoOp) {
  auto m = prepared(kSumLoop);
  const std::size_t before = m.functions[0].blocks.size();
  EXPECT_EQ(unroll_loops(m.functions[0], {.factor = 1}), 0);
  EXPECT_EQ(m.functions[0].blocks.size(), before);
}

TEST(Unroll, LoopWithBranchInsideBody) {
  auto m = prepared(R"(
    int main() {
      int s = 0;
      int i;
      for (i = 0; i < 12; i++) {
        if (i % 3 == 0) s += i;
        else s -= 1;
      }
      return s;
    })");
  unroll_loops(m.functions[0], {.factor = 2});
  EXPECT_TRUE(ir::verify(m).empty());
  sim::Machine machine(m);
  EXPECT_EQ(machine.run().exit_code, 18 - 8);
}

TEST(Unroll, LoopExitingIntoAnUnrolledLoopKeepsItsExit) {
  // The first loop's test branches straight to the second loop's header.
  // The second loop is smaller, so it is unrolled first; the first loop's
  // copy, which runs its odd tests and so takes the exit, must still leave
  // to the original header.
  auto m = prepared(R"(
    int main() {
      int s = 0;
      int i = 0;
      while (i < 11) {
        if (i > 4) s += i;
        i++;
      }
      while (i < 20) {
        s += 2;
        i++;
      }
      return s;
    })");
  EXPECT_EQ(unroll_loops(m.functions[0], {.factor = 2}), 2);
  EXPECT_TRUE(ir::verify(m).empty());
  sim::Machine machine(m);
  EXPECT_EQ(machine.run({.max_steps = 10'000}).exit_code, 45 + 18);
}

TEST(Unroll, OriginsPointToSourceInstructions) {
  auto m = prepared(kSumLoop);
  unroll_loops(m.functions[0], {.factor = 2});
  // Some instruction must share an origin with a different instruction id
  // (the clone), and all ids must stay unique.
  std::set<ir::InstrId> ids;
  bool cloned = false;
  for (const auto& block : m.functions[0].blocks) {
    for (const auto& instr : block.instrs) {
      EXPECT_TRUE(ids.insert(instr.id).second);
      if (instr.origin != instr.id) cloned = true;
    }
  }
  EXPECT_TRUE(cloned);
}

}  // namespace
}  // namespace asipfb::opt
