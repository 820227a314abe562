#include "analysis/loops.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "frontend/compile.hpp"
#include "opt/cleanup.hpp"

namespace asipfb::analysis {
namespace {

ir::Module compile(std::string_view src) {
  auto m = fe::compile_benchc(src, "loops");
  opt::canonicalize(m);
  return m;
}

TEST(Loops, SingleForLoopFound) {
  const auto m = compile(
      "int main() { int s = 0; int i; for (i = 0; i < 4; i++) s += i; return s; }");
  const auto loops = find_loops(m.functions[0]);
  ASSERT_EQ(loops.size(), 1u);
  EXPECT_EQ(loops[0].latches.size(), 1u);
  EXPECT_GE(loops[0].blocks.size(), 2u);
  EXPECT_TRUE(std::binary_search(loops[0].blocks.begin(), loops[0].blocks.end(),
                                 loops[0].header));
}

TEST(Loops, WhileLoopFound) {
  const auto m = compile("int main() { int i = 0; while (i < 9) i++; return i; }");
  EXPECT_EQ(find_loops(m.functions[0]).size(), 1u);
}

TEST(Loops, NestedLoopsSortInnerFirst) {
  const auto m = compile(R"(
    int main() {
      int s = 0;
      int i;
      int j;
      for (i = 0; i < 3; i++)
        for (j = 0; j < 3; j++)
          s++;
      return s;
    })");
  const auto loops = find_loops(m.functions[0]);
  ASSERT_EQ(loops.size(), 2u);
  // Sorted by size: inner first.
  EXPECT_LT(loops[0].blocks.size(), loops[1].blocks.size());
  EXPECT_TRUE(std::binary_search(loops[1].blocks.begin(), loops[1].blocks.end(),
                                 loops[0].header));
}

TEST(Loops, SiblingInnerLoopsSortBeforeTheirOuterLoop) {
  const auto m = compile(R"(
    int main() {
      int s = 0;
      int i;
      int j;
      for (i = 0; i < 3; i++) {
        for (j = 0; j < 3; j++) s++;
        for (j = 0; j < 5; j++) s += 2;
      }
      return s;
    })");
  const auto loops = find_loops(m.functions[0]);
  ASSERT_EQ(loops.size(), 3u);
  // The outer loop is the largest, so it sorts last.
  const NaturalLoop& outer = loops[2];
  for (int k = 0; k < 2; ++k) {
    EXPECT_TRUE(std::binary_search(outer.blocks.begin(), outer.blocks.end(),
                                   loops[k].header));
  }
  EXPECT_NE(loops[0].header, loops[1].header);
}

TEST(Loops, StraightLineHasNoLoops) {
  const auto m = compile("int main() { int x = 1; return x + 2; }");
  EXPECT_TRUE(find_loops(m.functions[0]).empty());
}

TEST(Loops, ConditionalInsideLoopStaysInLoop) {
  const auto m = compile(
      "int main() { int s = 0; int i; for (i = 0; i < 4; i++) { if (i > 1) s += i; } return s; }");
  const auto loops = find_loops(m.functions[0]);
  ASSERT_EQ(loops.size(), 1u);
  EXPECT_GE(loops[0].blocks.size(), 3u);
  for (ir::BlockId latch : loops[0].latches) {
    EXPECT_TRUE(std::binary_search(loops[0].blocks.begin(), loops[0].blocks.end(), latch));
  }
}

}  // namespace
}  // namespace asipfb::analysis
