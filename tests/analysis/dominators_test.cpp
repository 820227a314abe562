#include "analysis/dominators.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "frontend/compile.hpp"
#include "ir/builder.hpp"
#include "opt/cleanup.hpp"
#include "opt/optimizer.hpp"
#include "workloads/generator.hpp"
#include "workloads/suite.hpp"

namespace asipfb::analysis {
namespace {

using ir::BlockId;
using ir::Builder;
using ir::Function;
using ir::Reg;
using ir::Type;

Function diamond() {
  Function fn;
  const Reg p = fn.new_reg(Type::I32);
  fn.params.push_back(p);
  fn.return_type = Type::I32;
  Builder b(fn);
  const BlockId entry = b.create_block("entry");
  const BlockId left = b.create_block("left");
  const BlockId right = b.create_block("right");
  const BlockId merge = b.create_block("merge");
  b.set_insert_point(entry);
  b.emit_cond_br(p, left, right);
  b.set_insert_point(left);
  b.emit_br(merge);
  b.set_insert_point(right);
  b.emit_br(merge);
  b.set_insert_point(merge);
  b.emit_ret_value(p);
  return fn;
}

TEST(Dominators, EntryDominatesEverything) {
  const Function fn = diamond();
  const DominatorTree dom(fn);
  for (BlockId b = 0; b < 4; ++b) {
    EXPECT_TRUE(dom.dominates(0, b));
  }
}

TEST(Dominators, BranchesDoNotDominateMerge) {
  const Function fn = diamond();
  const DominatorTree dom(fn);
  EXPECT_FALSE(dom.dominates(1, 3));
  EXPECT_FALSE(dom.dominates(2, 3));
  EXPECT_EQ(dom.idom(3), 0u) << "merge's idom skips the branches";
}

TEST(Dominators, Reflexive) {
  const Function fn = diamond();
  const DominatorTree dom(fn);
  for (BlockId b = 0; b < 4; ++b) {
    EXPECT_TRUE(dom.dominates(b, b));
  }
}

TEST(Dominators, LoopHeaderDominatesBody) {
  const ir::Module m = fe::compile_benchc(
      "int main() { int s = 0; int i; for (i = 0; i < 4; i++) s += i; return s; }",
      "loop");
  const auto& fn = m.functions[0];
  const DominatorTree dom(fn);
  for (std::size_t b = 0; b < fn.blocks.size(); ++b) {
    const auto& term = fn.blocks[b].terminator();
    if (term.op == ir::Opcode::CondBr) {
      EXPECT_TRUE(dom.dominates(static_cast<BlockId>(b), term.target0));
    }
  }
}

TEST(Dominators, UnreachableBlockHasNoIdom) {
  Function fn = diamond();
  Builder b(fn);
  const BlockId dead = b.create_block("dead");
  b.set_insert_point(dead);
  b.emit_ret_value(fn.params[0]);
  const DominatorTree dom(fn);
  EXPECT_EQ(dom.idom(dead), ir::kNoBlock);
  EXPECT_FALSE(dom.dominates(0, dead));
}

/// The plain walk up `b`'s idom chain to the entry, with no early exit.
bool reference_dominates(const DominatorTree& dom, std::size_t nblocks, BlockId a,
                         BlockId b) {
  if (b >= nblocks || dom.idom(b) == ir::kNoBlock) return false;
  for (BlockId runner = b;; runner = dom.idom(runner)) {
    if (runner == a) return true;
    if (dom.idom(runner) == runner) return false;  // Reached the entry.
  }
}

/// dominates(a, b) equals the reference for every pair of blocks, and for
/// an `a` or `b` one past the last block and at kNoBlock.
void expect_reference_answers(const Function& fn, const std::string& name) {
  const DominatorTree dom(fn);
  const auto nblocks = static_cast<BlockId>(fn.blocks.size());
  std::vector<BlockId> ids;
  for (BlockId b = 0; b <= nblocks; ++b) ids.push_back(b);
  ids.push_back(ir::kNoBlock);
  for (BlockId a : ids) {
    for (BlockId b : ids) {
      ASSERT_EQ(dom.dominates(a, b), reference_dominates(dom, nblocks, a, b))
          << name << ": a=" << a << " b=" << b;
    }
  }
}

void expect_reference_answers(const ir::Module& m) {
  for (const Function& fn : m.functions) expect_reference_answers(fn, m.name + "." + fn.name);
}

TEST(Dominators, MatchesPlainWalkOnSuiteAndCorpus) {
  std::vector<const wl::Workload*> workloads;
  for (const auto& w : wl::suite()) workloads.push_back(&w);
  for (const auto& w : wl::default_corpus()) workloads.push_back(&w);
  for (const wl::Workload* w : workloads) {
    ir::Module m = fe::compile_benchc(w->source, w->name);
    expect_reference_answers(m);  // Lowered, with its unreachable blocks.
    opt::canonicalize(m);
    expect_reference_answers(m);
    opt::optimize(m, opt::OptLevel::O2);
    expect_reference_answers(m);  // Unrolled and percolated.
  }
}

TEST(Dominators, MatchesPlainWalkWithUnreachableBlocks) {
  Function fn = diamond();
  Builder b(fn);
  const BlockId dead = b.create_block("dead");
  const BlockId dead_loop = b.create_block("dead_loop");
  b.set_insert_point(dead);
  b.emit_br(3);  // Into the merge block.
  b.set_insert_point(dead_loop);
  b.emit_cond_br(fn.params[0], dead_loop, dead);
  expect_reference_answers(fn, "unreachable");
  const DominatorTree dom(fn);
  EXPECT_FALSE(dom.dominates(dead, dead));
  EXPECT_FALSE(dom.dominates(dead, 3));
  EXPECT_EQ(dom.idom(3), 0u) << "a dead predecessor does not move merge's idom";
}

TEST(Dominators, MatchesPlainWalkWithSelfLoop) {
  Function fn;
  const Reg p = fn.new_reg(Type::I32);
  fn.params.push_back(p);
  fn.return_type = Type::I32;
  Builder b(fn);
  const BlockId entry = b.create_block("entry");
  const BlockId loop = b.create_block("loop");
  const BlockId exit = b.create_block("exit");
  b.set_insert_point(entry);
  b.emit_br(loop);
  b.set_insert_point(loop);
  b.emit_cond_br(p, loop, exit);
  b.set_insert_point(exit);
  b.emit_ret_value(p);
  expect_reference_answers(fn, "self_loop");
  const DominatorTree dom(fn);
  EXPECT_TRUE(dom.dominates(loop, loop));
  EXPECT_TRUE(dom.dominates(loop, exit));
  EXPECT_FALSE(dom.dominates(exit, loop));
}

TEST(Dominators, MatchesPlainWalkOnIrreducibleCycle) {
  // entry branches to both x and y, which branch to each other: whichever
  // edge of the pair retreats, neither end dominates the other.
  Function fn;
  const Reg p = fn.new_reg(Type::I32);
  fn.params.push_back(p);
  fn.return_type = Type::I32;
  Builder b(fn);
  const BlockId entry = b.create_block("entry");
  const BlockId x = b.create_block("x");
  const BlockId y = b.create_block("y");
  const BlockId exit = b.create_block("exit");
  b.set_insert_point(entry);
  b.emit_cond_br(p, x, y);
  b.set_insert_point(x);
  b.emit_cond_br(p, y, exit);
  b.set_insert_point(y);
  b.emit_cond_br(p, x, exit);
  b.set_insert_point(exit);
  b.emit_ret_value(p);
  expect_reference_answers(fn, "irreducible");
  const DominatorTree dom(fn);
  EXPECT_FALSE(dom.dominates(x, y));
  EXPECT_FALSE(dom.dominates(y, x));
  EXPECT_EQ(dom.idom(exit), entry);
}

TEST(Dominators, OutOfRangeBlockDominatesNothing) {
  const Function fn = diamond();
  const DominatorTree dom(fn);
  for (BlockId b = 0; b < 4; ++b) {
    EXPECT_FALSE(dom.dominates(4, b));
    EXPECT_FALSE(dom.dominates(ir::kNoBlock, b));
  }
  EXPECT_FALSE(dom.dominates(0, 4));
}

}  // namespace
}  // namespace asipfb::analysis
