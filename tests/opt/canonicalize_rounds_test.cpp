// canonicalize() skips a pass while it is settled: its last output is a
// fixpoint of itself and nothing it reads has changed since (see
// opt/cleanup.cpp).  This file requires the result to be byte-identical,
// next_instr_id included, to the full loop that runs simplify_cfg, LVN
// and DCE in every round until a round reports no work, at most eight
// rounds.  Inputs are the suite, the default corpus, the seed-2 corpus,
// a mutant of every program in them, random CFGs rich in empty blocks,
// cycles and unreachable code, and hand-built functions whose second
// round still has work.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cache/serialize.hpp"
#include "frontend/compile.hpp"
#include "ir/builder.hpp"
#include "ir/printer.hpp"
#include "opt/cleanup.hpp"
#include "support/rng.hpp"
#include "workloads/generator.hpp"
#include "workloads/mutate.hpp"
#include "workloads/suite.hpp"

namespace asipfb::opt {
namespace {

using ir::Opcode;
using ir::Reg;

/// What one round of the full loop reported, pass by pass.
struct Round {
  int simplify = 0;
  int lvn = 0;
  int dce = 0;
};

/// The full canonicalization loop on one function; returns its rounds.
std::vector<Round> full_loop(ir::Function& fn) {
  std::vector<Round> rounds;
  for (int round = 0; round < 8; ++round) {
    Round& r = rounds.emplace_back();
    r.simplify = simplify_cfg(fn);
    r.lvn = local_value_numbering(fn);
    r.dce = dead_code_elimination(fn);
    if (r.simplify + r.lvn + r.dce == 0) break;
  }
  return rounds;
}

std::string bytes_of(const ir::Function& fn) {
  ir::Module m;
  m.name = "fn";
  m.functions.push_back(fn);
  return cache::serialize(m);
}

/// canonicalize() on a one-function module against the full loop; returns
/// the number of rounds the full loop ran.
std::size_t expect_same_canonical(const ir::Function& fn) {
  ir::Module actual;
  actual.name = "fn";
  actual.functions.push_back(fn);
  canonicalize(actual);
  ir::Function expected = fn;
  const std::size_t rounds = full_loop(expected).size();
  const ir::Function& got = actual.functions[0];
  EXPECT_EQ(got.next_instr_id, expected.next_instr_id);
  if (bytes_of(got) != bytes_of(expected)) {
    ADD_FAILURE() << "input:\n" << ir::to_string(fn) << "canonicalize:\n"
                  << ir::to_string(got) << "full loop:\n" << ir::to_string(expected);
  }
  return rounds;
}

/// Every function of each program and of one mutant of it; returns how
/// many of them the full loop took past one round.
int expect_same_with_mutants(const std::vector<wl::Workload>& programs,
                             std::uint64_t seed) {
  int confirmed = 0;
  const auto check = [&](const std::string& source, const std::string& name) {
    const ir::Module raw = fe::compile_benchc(source, name);
    for (const ir::Function& fn : raw.functions) {
      SCOPED_TRACE(name + "." + fn.name);
      confirmed += expect_same_canonical(fn) > 1 ? 1 : 0;
    }
  };
  for (std::size_t i = 0; i < programs.size(); ++i) {
    const auto& w = programs[i];
    check(w.source, w.name);
    check(wl::mutate(w.source, seed + i, 2).source, w.name + "_mut");
    if (::testing::Test::HasFailure()) break;
  }
  return confirmed;
}

TEST(CanonicalizeRounds, SuiteAndMutants) {
  EXPECT_GT(expect_same_with_mutants(wl::suite(), 1), 0);
}

TEST(CanonicalizeRounds, DefaultCorpusAndMutants) {
  const wl::CorpusSpec spec;
  // Most functions need a second round to confirm the first.
  EXPECT_GT(expect_same_with_mutants(wl::corpus(spec), spec.seed), 100);
}

TEST(CanonicalizeRounds, SeedTwoCorpusAndMutants) {
  const wl::CorpusSpec spec{.seed = 2};
  EXPECT_GT(expect_same_with_mutants(wl::corpus(spec), spec.seed), 100);
}

/// The random functions of opt_percolate_differential_test (same
/// generator and seed): blocks of 0-4 ops over a few registers, each
/// ending in a random branch or return; about a third of the blocks hold
/// only their branch.
ir::Function random_function(Rng& rng) {
  ir::Function fn;
  fn.name = "rand";
  fn.return_type = ir::Type::I32;
  constexpr int kRegs = 6;
  for (int r = 0; r < kRegs; ++r) fn.new_reg(ir::Type::I32);
  fn.params.push_back(Reg{0});
  const auto reg = [&] { return Reg{static_cast<std::uint32_t>(rng.next_below(kRegs))}; };
  const auto nblocks = static_cast<ir::BlockId>(1 + rng.next_below(24));
  const auto block = [&] { return static_cast<ir::BlockId>(rng.next_below(nblocks)); };
  for (ir::BlockId b = 0; b < nblocks; ++b) {
    auto& bb = fn.blocks.emplace_back();
    bb.name = std::to_string(b);
    const auto ops = rng.next_below(3) == 0 ? 0 : rng.next_below(5);
    for (std::uint64_t k = 0; k < ops; ++k) {
      switch (rng.next_below(6)) {
        case 0: bb.instrs.push_back(ir::make::movi(reg(), rng.next_int(0, 9))); break;
        case 1: bb.instrs.push_back(ir::make::binary(Opcode::Add, reg(), reg(), reg())); break;
        case 2: bb.instrs.push_back(ir::make::binary(Opcode::Mul, reg(), reg(), reg())); break;
        case 3: bb.instrs.push_back(ir::make::load(Opcode::Load, reg(), reg())); break;
        case 4: bb.instrs.push_back(ir::make::store(Opcode::Store, reg(), reg())); break;
        default: bb.instrs.push_back(ir::make::copy(reg(), reg())); break;
      }
    }
    switch (rng.next_below(10)) {
      case 0: case 1: case 2: case 3: case 4:
        bb.instrs.push_back(ir::make::br(block()));
        break;
      case 5: case 6: case 7:
        bb.instrs.push_back(ir::make::cond_br(reg(), block(), block()));
        break;
      default:
        bb.instrs.push_back(ir::make::ret_value(reg()));
        break;
    }
    for (auto& instr : bb.instrs) fn.assign_id(instr);
  }
  return fn;
}

TEST(CanonicalizeRounds, RandomCfgs) {
  Rng rng(0x5EED5EEDull);
  int beyond_two = 0;
  for (int trial = 0; trial < 10000; ++trial) {
    const ir::Function fn = random_function(rng);
    SCOPED_TRACE("trial " + std::to_string(trial));
    beyond_two += expect_same_canonical(fn) > 2 ? 1 : 0;
    if (::testing::Test::HasFailure()) return;
  }
  // Rounds past the confirming one are common here, unlike in the corpus.
  EXPECT_GT(beyond_two, 100);
}

TEST(CanonicalizeRounds, SecondRoundForwardsPastABlockThatDceEmptied) {
  // entry -> {left, right}; left -> mid; right -> {mid, exit};
  // mid -> exit.  mid has two predecessors and so does exit, so the first
  // round merges nothing, and no block holds only its branch.  The first
  // round's DCE removes mid's dead multiply, leaving mid with just its
  // `br`: the second round's simplify_cfg must still run, forward left
  // and right past mid and drop it, and a third round confirms.
  ir::Function fn;
  fn.name = "f";
  fn.return_type = ir::Type::I32;
  const Reg p = fn.new_reg(ir::Type::I32);
  fn.params = {p};
  fn.frame_words = 1;
  ir::Builder b(fn);
  const ir::BlockId entry = b.create_block("entry");
  const ir::BlockId left = b.create_block("left");
  const ir::BlockId right = b.create_block("right");
  const ir::BlockId mid = b.create_block("mid");
  const ir::BlockId exit = b.create_block("exit");
  b.set_insert_point(entry);
  const Reg addr = b.emit_addr_local(0);
  b.emit_cond_br(p, left, right);
  b.set_insert_point(left);
  b.emit_store(ir::Type::I32, addr, p);
  b.emit_br(mid);
  b.set_insert_point(right);
  b.emit_store(ir::Type::I32, addr, addr);
  b.emit_cond_br(p, mid, exit);
  b.set_insert_point(mid);
  b.emit_binary(Opcode::Mul, ir::Type::I32, p, p);
  b.emit_br(exit);
  b.set_insert_point(exit);
  b.emit_ret_value(p);

  ir::Function traced = fn;
  const std::vector<Round> rounds = full_loop(traced);
  ASSERT_EQ(rounds.size(), 3u);
  EXPECT_EQ(rounds[0].simplify, 0);
  EXPECT_EQ(rounds[0].dce, 1);
  EXPECT_EQ(rounds[1].simplify, 1);  // mid, once forwarded past.
  EXPECT_EQ(traced.blocks.size(), 4u);

  // Stopping after the first round would leave mid in place.
  ir::Function one_round = fn;
  simplify_cfg(one_round);
  local_value_numbering(one_round);
  dead_code_elimination(one_round);
  EXPECT_NE(bytes_of(one_round), bytes_of(traced));

  EXPECT_EQ(expect_same_canonical(fn), 3u);
}

TEST(CanonicalizeRounds, SecondRoundLvnFindsWhatDceUncovered) {
  // The first p + q is held by e, which is overwritten and then restored
  // from a copy.  Between the two, a dead recomputation of p + q takes
  // over the expression, and its register is overwritten in turn, so the
  // last p + q finds no valid holder and stays.  Once the first round's
  // DCE removes the dead pair, the expression again names e's value,
  // which e holds: the second round's LVN rewrites the last p + q to a
  // copy of e, so DCE's removals must leave LVN unsettled.
  ir::Function fn;
  fn.name = "f";
  fn.return_type = ir::Type::I32;
  const Reg p = fn.new_reg(ir::Type::I32);
  const Reg q = fn.new_reg(ir::Type::I32);
  fn.params = {p, q};
  fn.frame_words = 1;
  ir::Builder b(fn);
  b.set_insert_point(b.create_block("entry"));
  const Reg e = b.emit_binary(Opcode::Add, ir::Type::I32, p, q);
  const Reg saved = b.emit_copy(e);
  b.emit(ir::make::load(Opcode::Load, e, b.emit_addr_local(0)));
  const Reg dead = b.emit_binary(Opcode::Add, ir::Type::I32, p, q);
  b.emit(ir::make::movi(dead, 0));
  b.emit(ir::make::copy(e, saved));
  const Reg again = b.emit_binary(Opcode::Add, ir::Type::I32, p, q);
  b.emit_ret_value(b.emit_binary(Opcode::Mul, ir::Type::I32, e, again));

  ir::Function traced = fn;
  const std::vector<Round> rounds = full_loop(traced);
  ASSERT_GE(rounds.size(), 2u);
  EXPECT_EQ(rounds[0].lvn, 0);
  EXPECT_EQ(rounds[0].dce, 2);
  EXPECT_EQ(rounds[1].lvn, 1);

  expect_same_canonical(fn);
}

}  // namespace
}  // namespace asipfb::opt
