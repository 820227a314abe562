// Scaling gates for the optimizer: optimizing a program of size 4N must
// take at most 6x the time of size N (linear work gives about 4x,
// quadratic 16x).  The verdict is the median ratio of five back-to-back
// (N, 4N) pairs, so runner speed cancels.  The ctest TIMEOUT on this
// binary bounds a regression that makes either size take minutes, and
// RUN_SERIAL keeps other tests from skewing the ratio.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <string>
#include <vector>

#include "frontend/compile.hpp"
#include "ir/builder.hpp"
#include "ir/verifier.hpp"
#include "opt/cleanup.hpp"
#include "opt/optimizer.hpp"
#include "opt/percolate.hpp"
#include "opt/unroll.hpp"

namespace asipfb::opt {
namespace {

/// Seconds `work` takes on a fresh copy of `input`; the copy is not timed.
template <typename T, typename Work>
double seconds(const T& input, const Work& work) {
  T copy = input;
  const auto start = std::chrono::steady_clock::now();
  work(copy);
  const std::chrono::duration<double> took = std::chrono::steady_clock::now() - start;
  return took.count();
}

/// The median over five back-to-back (N, 4N) pairs of each pair's ratio.
/// Both runs of a pair see the same state of the machine, so a slow spell
/// skews the pairs it falls in, not the median; a best N from a fast spell
/// set against a best 4N from a slow one would.
template <typename T, typename Work>
void expect_near_linear(const T& small_input, const T& large_input, const Work& work,
                        int n) {
  std::array<double, 5> ratios{};
  std::string pairs;
  for (double& ratio : ratios) {
    const double small = seconds(small_input, work);
    const double large = seconds(large_input, work);
    ratio = large / small;
    pairs.append(" ").append(std::to_string(small * 1e3));
    pairs.append("/").append(std::to_string(large * 1e3));
  }
  std::sort(ratios.begin(), ratios.end());
  EXPECT_LE(ratios[2], 6.0) << "N=" << n << ", median 4N/N ratio " << ratios[2]
                            << "; N/4N ms per pair:" << pairs;
}

/// One `if` whose body is `count` statements, each depending on the last.
ir::Module long_if_body(int count) {
  std::string src = "int x[8]; int out;\nint main() {\n  int s = x[0];\n  if (s > 2) {\n";
  for (int k = 0; k < count; ++k) {
    src += "    s = s * " + std::to_string(k % 5 + 2) + " + x[" +
           std::to_string(k % 8) + "];\n";
  }
  src += "  }\n  out = s;\n  return s;\n}\n";
  auto m = fe::compile_benchc(src, "long_if");
  canonicalize(m);
  return m;
}

TEST(OptimizerScaling, LongIfBodyAtO1IsNearLinear) {
  // The body block's movable set is the work: at O1 every statement's
  // result feeds the next, so the chain stays behind op by op.
  constexpr int kN = 500;
  const auto o1 = [](ir::Module& m) { optimize(m, OptLevel::O1); };
  expect_near_linear(long_if_body(kN), long_if_body(4 * kN), o1, kN);
  ir::Module check = long_if_body(4 * kN);
  o1(check);
  EXPECT_TRUE(ir::verify(check).empty());
}

/// `count` blocks in one straight line below a branch, each adding to an
/// accumulator, with an empty block between each pair.  Blocks are laid
/// out in reverse, so the chain's first block has the highest index.
ir::Function straight_line(int count) {
  ir::Function fn;
  fn.name = "line";
  fn.return_type = ir::Type::I32;
  const ir::Reg p = fn.new_reg(ir::Type::I32);
  fn.params.push_back(p);
  ir::Builder b(fn);
  const ir::BlockId entry = b.create_block("entry");
  std::vector<ir::BlockId> body(static_cast<std::size_t>(count));
  std::vector<ir::BlockId> hop(static_cast<std::size_t>(count));
  for (int k = count - 1; k >= 0; --k) {
    body[static_cast<std::size_t>(k)] = b.create_block("body");
    hop[static_cast<std::size_t>(k)] = b.create_block("hop");
  }
  const ir::BlockId exit = b.create_block("exit");
  b.set_insert_point(entry);
  const ir::Reg acc = b.emit_movi(0);
  b.emit_cond_br(p, body[0], exit);
  for (int k = 0; k < count; ++k) {
    const auto i = static_cast<std::size_t>(k);
    b.set_insert_point(body[i]);
    const ir::Reg step = b.emit_movi(k % 7 + 1);
    b.emit(ir::make::binary(ir::Opcode::Add, acc, acc, step));
    b.emit_br(hop[i]);
    b.set_insert_point(hop[i]);
    b.emit_br(k + 1 < count ? body[i + 1] : exit);
  }
  b.set_insert_point(exit);
  b.emit_ret_value(acc);
  return fn;
}

TEST(OptimizerScaling, StraightLineMergesAreNearLinear) {
  constexpr int kN = 500;
  const auto merge_all = [](ir::Function& fn) {
    percolate(fn);
    EXPECT_EQ(fn.blocks.size(), 3u);  // entry, the merged line, exit.
  };
  expect_near_linear(straight_line(kN), straight_line(4 * kN), merge_all, kN);
}

/// `count` adds in one block, each reading the last, whose final result
/// is never read: removing it one unread link per rescan is quadratic.
ir::Module dead_chain(int count) {
  ir::Module m;
  m.name = "dead_chain";
  ir::Function& fn = m.functions.emplace_back();
  fn.name = "main";
  fn.return_type = ir::Type::I32;
  const ir::Reg p = fn.new_reg(ir::Type::I32);
  fn.params.push_back(p);
  ir::Builder b(fn);
  b.set_insert_point(b.create_block("entry"));
  ir::Reg link = p;
  for (int k = 0; k < count; ++k) {
    link = b.emit_binary(ir::Opcode::Add, ir::Type::I32, link, p);
  }
  b.emit_ret_value(p);
  return m;
}

TEST(OptimizerScaling, DeadChainRemovalIsNearLinear) {
  constexpr int kN = 2000;
  const auto clean = [](ir::Module& m) {
    canonicalize(m);
    EXPECT_EQ(m.functions[0].blocks[0].instrs.size(), 1u);  // Just the return.
  };
  expect_near_linear(dead_chain(kN), dead_chain(4 * kN), clean, kN);
}

/// `count` statements `stmt(k)` in one `main`, compiled and canonicalized.
template <typename Statement>
ir::Module sequence(int count, const Statement& stmt) {
  std::string src = "int x[8]; int out;\nint main() {\n  int s = x[0];\n  int i;\n";
  for (int k = 0; k < count; ++k) src += "  " + stmt(k) + "\n";
  src += "  out = s;\n  return s;\n}\n";
  auto m = fe::compile_benchc(src, "sequence");
  canonicalize(m);
  return m;
}

ir::Module sequential_loops(int count) {
  return sequence(count, [](int k) {
    return "for (i = 0; i < 64; i++) s = s + x[" + std::to_string(k % 8) + "];";
  });
}

ir::Module sequential_ifs(int count) {
  return sequence(count, [](int k) {
    return "if (s > " + std::to_string(k) + ") { s = s + x[" + std::to_string(k % 8) +
           "]; }";
  });
}

/// unroll_loops with default options over every function; the loops unrolled.
int unroll_all(ir::Module& m) {
  int unrolled = 0;
  for (ir::Function& fn : m.functions) unrolled += unroll_loops(fn);
  return unrolled;
}

TEST(OptimizerScaling, UnrollSequentialLoopsIsNearLinear) {
  // Loop finding asks dominance once per edge and unrolling visits each
  // loop once, so neither may pay per pair of loops.
  constexpr int kN = 1000;
  expect_near_linear(sequential_loops(kN), sequential_loops(4 * kN), unroll_all, kN);
  ir::Module check = sequential_loops(kN);
  EXPECT_EQ(unroll_all(check), kN);
  EXPECT_TRUE(ir::verify(check).empty());
}

TEST(OptimizerScaling, LoopFindingOnLongIfChainIsNearLinear) {
  // No loops, but the dominator tree is about N deep: a dominance query
  // must not walk to the entry.
  constexpr int kN = 2000;
  expect_near_linear(sequential_ifs(kN), sequential_ifs(4 * kN), unroll_all, kN);
  ir::Module check = sequential_ifs(kN);
  EXPECT_EQ(unroll_all(check), 0);
}

}  // namespace
}  // namespace asipfb::opt
