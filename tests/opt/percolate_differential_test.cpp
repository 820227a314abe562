// Differential test of percolation and CFG simplification.
//
// The goldens pin the optimizer only on the suite at default options.
// This file keeps the earlier, simpler algorithms as references — a
// simplify_cfg that merges one pair and restarts, a movable set that
// rescans every instruction pair until nothing changes, and a pass loop
// that rebuilds predecessors and liveness every pass — and requires the
// library to produce the same bytes (next_instr_id included) and the same
// PercolationStats.  It runs canonicalization on freshly lowered IR and
// percolation at O1 and O2, with speculation and load speculation on and
// off, over the default corpus, the seed-2 corpus, mutants of both, and
// random CFGs rich in empty blocks, cycles and unreachable code.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "analysis/cfg.hpp"
#include "analysis/liveness.hpp"
#include "cache/serialize.hpp"
#include "frontend/compile.hpp"
#include "ir/printer.hpp"
#include "opt/cleanup.hpp"
#include "opt/percolate.hpp"
#include "opt/rename.hpp"
#include "opt/unroll.hpp"
#include "support/rng.hpp"
#include "workloads/generator.hpp"
#include "workloads/mutate.hpp"

namespace asipfb::opt {
namespace {

using ir::Opcode;

namespace reference {

using ir::BlockId;
using ir::Instr;
using ir::Reg;

/// Rounds after which simplify_cfg gives up.  Real programs need a handful;
/// only a random CFG whose empty blocks form a cycle longer than the
/// forwarding hop limit could need more, and such a case is skipped.
constexpr int kMaxRounds = 100000;

/// Returns -1 when the round cap was reached.
int simplify_cfg(ir::Function& fn) {
  int eliminated = 0;
  bool changed = true;
  int rounds = 0;
  while (changed) {
    if (++rounds > kMaxRounds) return -1;
    changed = false;

    // 1. Forward branches through trivial blocks (a single Br instruction).
    for (std::size_t b = 0; b < fn.blocks.size(); ++b) {
      auto& block = fn.blocks[b];
      auto& term = block.terminator();
      auto forward = [&](BlockId target) {
        BlockId current = target;
        int hops = 0;
        while (hops++ < 64) {
          const auto& t = fn.blocks[current];
          if (t.instrs.size() != 1 || t.instrs[0].op != Opcode::Br) break;
          const BlockId next = t.instrs[0].target0;
          if (next == current) break;
          current = next;
        }
        return current;
      };
      if (term.op == Opcode::Br) {
        const BlockId fwd = forward(term.target0);
        if (fwd != term.target0 && fwd != static_cast<BlockId>(b)) {
          term.target0 = fwd;
          changed = true;
        }
      } else if (term.op == Opcode::CondBr) {
        const BlockId fwd0 = forward(term.target0);
        const BlockId fwd1 = forward(term.target1);
        if (fwd0 != term.target0 || fwd1 != term.target1) {
          term.target0 = fwd0;
          term.target1 = fwd1;
          changed = true;
        }
      }
    }

    // 2. Merge single-successor blocks into single-predecessor successors.
    const auto preds = analysis::predecessors(fn);
    for (std::size_t b = 0; b < fn.blocks.size(); ++b) {
      auto& block = fn.blocks[b];
      auto& term = block.terminator();
      if (term.op != Opcode::Br) continue;
      const BlockId succ = term.target0;
      if (succ == static_cast<BlockId>(b) || preds[succ].size() != 1) continue;
      if (succ == 0) continue;
      block.instrs.pop_back();
      for (auto& instr : fn.blocks[succ].instrs) {
        block.instrs.push_back(std::move(instr));
      }
      fn.blocks[succ].instrs.clear();
      fn.blocks[succ].instrs.push_back(ir::make::br(static_cast<BlockId>(b)));
      fn.assign_id(fn.blocks[succ].instrs.back());
      changed = true;
      break;  // Predecessor lists are stale; restart.
    }

    // 3. Drop unreachable blocks.
    const auto reachable = analysis::reachable_blocks(fn);
    bool any_unreachable = false;
    for (std::size_t b = 0; b < fn.blocks.size(); ++b) {
      if (!reachable[b]) any_unreachable = true;
    }
    if (any_unreachable) {
      const int before = static_cast<int>(fn.blocks.size());
      compact_blocks(fn, reachable);
      eliminated += before - static_cast<int>(fn.blocks.size());
      changed = true;
    }
  }
  return eliminated;
}

void canonicalize(ir::Module& module) {
  for (auto& fn : module.functions) {
    for (int round = 0; round < 8; ++round) {
      int work = 0;
      work += simplify_cfg(fn);
      work += local_value_numbering(fn);
      work += dead_code_elimination(fn);
      if (work == 0) break;
    }
  }
}

bool is_load(const Instr& instr) {
  return instr.op == Opcode::Load || instr.op == Opcode::FLoad;
}

bool is_memory_barrier(const Instr& instr) {
  return instr.op == Opcode::Store || instr.op == Opcode::FStore ||
         instr.op == Opcode::Call;
}

std::vector<bool> movable_set(const ir::BasicBlock& block,
                              const ir::BasicBlock& pred,
                              const std::vector<BlockId>& other_succs,
                              const analysis::Liveness& liveness,
                              const PercolationOptions& options) {
  const std::size_t n = block.instrs.size();
  std::vector<bool> movable(n, false);
  bool barrier_before = false;
  for (std::size_t i = 0; i < n; ++i) {
    const Instr& instr = block.instrs[i];
    if (instr.is_terminator()) break;
    const bool eligible =
        ir::speculable(instr.op) || (options.speculate_loads && is_load(instr));
    bool ok = eligible && instr.dst.has_value();
    if (ok && is_load(instr) && barrier_before) ok = false;
    if (ok) {
      for (Reg a : pred.terminator().args) {
        if (a.id == instr.dst->id) ok = false;
      }
    }
    if (ok) {
      for (BlockId s : other_succs) {
        if (liveness.live_in(s, *instr.dst)) ok = false;
      }
    }
    movable[i] = ok;
    if (is_memory_barrier(instr)) barrier_before = true;
  }

  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t i = 0; i < n; ++i) {
      if (!movable[i]) continue;
      const Instr& instr = block.instrs[i];
      const std::uint32_t dst = instr.dst->id;
      bool ok = true;
      for (std::size_t j = 0; j < i && ok; ++j) {
        if (movable[j]) continue;
        const Instr& earlier = block.instrs[j];
        if (earlier.dst) {
          for (Reg a : instr.args) {
            if (a.id == earlier.dst->id) ok = false;
          }
          if (earlier.dst->id == dst) ok = false;
        }
        for (Reg a : earlier.args) {
          if (a.id == dst) ok = false;
        }
      }
      if (ok && options.chain_preserving) {
        for (std::size_t j = i + 1; j < n && ok; ++j) {
          if (movable[j]) continue;
          for (Reg a : block.instrs[j].args) {
            if (a.id == dst) ok = false;
          }
        }
      }
      if (!ok) {
        movable[i] = false;
        changed = true;
      }
    }
  }
  return movable;
}

int hoist_all(ir::Function& fn, const PercolationOptions& options) {
  const auto preds = analysis::predecessors(fn);
  analysis::Liveness liveness(fn, preds);
  std::vector<bool> known_empty(fn.blocks.size(), false);
  int total = 0;

  std::size_t nb = 0;
  while (nb < fn.blocks.size()) {
    const BlockId n = static_cast<BlockId>(nb++);
    if (known_empty[n]) continue;
    known_empty[n] = true;
    if (n == 0 || preds[n].size() != 1) continue;
    const BlockId m = preds[n][0];
    if (m == n) continue;
    auto& block = fn.blocks[n];
    auto& pred_block = fn.blocks[m];
    if (pred_block.terminator().op != Opcode::CondBr) continue;

    std::vector<BlockId> other_succs;
    for (BlockId s : pred_block.successors()) {
      if (s != n) other_succs.push_back(s);
    }
    if (other_succs.empty()) continue;

    const auto movable =
        movable_set(block, pred_block, other_succs, liveness, options);
    const auto moved = static_cast<int>(
        std::count(movable.begin(), movable.end(), true));
    if (moved == 0) continue;

    std::vector<Instr> hoisted;
    std::vector<Instr> kept;
    for (std::size_t i = 0; i < block.instrs.size(); ++i) {
      if (i < movable.size() && movable[i]) {
        hoisted.push_back(std::move(block.instrs[i]));
      } else {
        kept.push_back(std::move(block.instrs[i]));
      }
    }
    block.instrs = std::move(kept);
    pred_block.instrs.insert(pred_block.instrs.end() - 1,
                             std::make_move_iterator(hoisted.begin()),
                             std::make_move_iterator(hoisted.end()));
    total += moved;

    liveness.refresh(fn, preds, {n, m});
    known_empty[n] = false;
    known_empty[m] = false;
    nb = std::min<std::size_t>(n, m);
    for (BlockId s : pred_block.successors()) {
      known_empty[s] = false;
      nb = std::min<std::size_t>(nb, s);
    }
  }
  return total;
}

/// passes == -1 when simplify_cfg reached its round cap.
PercolationStats percolate(ir::Function& fn, const PercolationOptions& options) {
  PercolationStats stats;
  for (int pass = 0; pass < options.max_passes; ++pass) {
    ++stats.passes;
    int work = 0;
    const int merged = simplify_cfg(fn);
    if (merged < 0) return {.passes = -1};
    stats.blocks_merged += merged;
    work += merged;
    if (options.speculate) {
      const int moved = hoist_all(fn, options);
      stats.ops_hoisted += moved;
      work += moved;
    }
    if (work == 0) break;
  }
  return stats;
}

}  // namespace reference

std::string bytes_of(const ir::Function& fn) {
  ir::Module m;
  m.name = "fn";
  m.functions.push_back(fn);
  return cache::serialize(m);
}

/// Byte equality, with the printed functions on a mismatch.
void expect_same_function(const ir::Function& actual, const ir::Function& expected,
                          const ir::Function& input) {
  EXPECT_EQ(actual.next_instr_id, expected.next_instr_id);
  if (bytes_of(actual) == bytes_of(expected)) return;
  ADD_FAILURE() << "input:\n" << ir::to_string(input) << "library:\n"
                << ir::to_string(actual) << "reference:\n" << ir::to_string(expected);
}

/// The options percolation runs with at `level` (true: O2), plus the
/// speculation switches.
std::vector<PercolationOptions> option_grid(bool o2) {
  std::vector<PercolationOptions> grid;
  for (const auto& [speculate, loads] :
       {std::pair{true, true}, std::pair{true, false}, std::pair{false, false}}) {
    PercolationOptions options;
    options.chain_preserving = !o2;
    options.speculate = speculate;
    options.speculate_loads = loads;
    grid.push_back(options);
  }
  return grid;
}

/// Percolates copies of `fn` with the library and the reference; false
/// when the reference gave up (nothing to compare).
bool expect_same_percolation(const ir::Function& fn, const PercolationOptions& options) {
  ir::Function actual = fn;
  ir::Function expected = fn;
  const PercolationStats want = reference::percolate(expected, options);
  if (want.passes < 0) return false;
  const PercolationStats got = percolate(actual, options);
  EXPECT_EQ(got.passes, want.passes);
  EXPECT_EQ(got.blocks_merged, want.blocks_merged);
  EXPECT_EQ(got.ops_hoisted, want.ops_hoisted);
  expect_same_function(actual, expected, fn);
  return true;
}

/// Canonicalization, then unroll (+ rename at O2) and percolation of every
/// function over the option grid, against the references.
void expect_same_optimizer(const std::string& source, const std::string& name) {
  ir::Module raw = fe::compile_benchc(source, name);
  ir::Module canonical = raw;
  ir::Module expected = raw;
  canonicalize(canonical);
  reference::canonicalize(expected);
  ASSERT_EQ(cache::serialize(canonical), cache::serialize(expected)) << "canonicalize";

  for (const bool o2 : {false, true}) {
    for (const auto& fn : canonical.functions) {
      ir::Function unrolled = fn;
      unroll_loops(unrolled);
      if (o2) rename_registers(unrolled);
      for (const auto& options : option_grid(o2)) {
        SCOPED_TRACE(std::string(o2 ? "O2" : "O1") + " " + fn.name +
                     (options.speculate ? "" : " no-speculate") +
                     (options.speculate_loads ? "" : " no-load-speculation"));
        EXPECT_TRUE(expect_same_percolation(unrolled, options));
        if (::testing::Test::HasFailure()) return;
      }
    }
  }
}

void expect_corpus(const wl::CorpusSpec& spec) {
  const auto corpus = wl::corpus(spec);
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    const auto& w = corpus[i];
    SCOPED_TRACE(w.name);
    expect_same_optimizer(w.source, w.name);
    if (::testing::Test::HasFailure()) return;
    // Two stacked rewrites: a structurally different program per scenario.
    const auto mutated = wl::mutate(w.source, spec.seed + i, 2);
    SCOPED_TRACE("mutant");
    expect_same_optimizer(mutated.source, w.name + "_mut");
    if (::testing::Test::HasFailure()) return;
  }
}

TEST(PercolateDifferential, DefaultCorpusAndMutants) {
  expect_corpus(wl::CorpusSpec{});
}

TEST(PercolateDifferential, SeedTwoCorpusAndMutants) {
  expect_corpus(wl::CorpusSpec{.seed = 2});
}

/// A random function: blocks of 0-4 ops over a few registers (moves,
/// arithmetic, loads, stores), each ending in a random branch or return.
/// About a third of the blocks hold only their branch, so forwarding
/// chains, cycles of empty blocks and unreachable code are common.
ir::Function random_function(Rng& rng) {
  ir::Function fn;
  fn.name = "rand";
  fn.return_type = ir::Type::I32;
  constexpr int kRegs = 6;
  for (int r = 0; r < kRegs; ++r) fn.new_reg(ir::Type::I32);
  fn.params.push_back(ir::Reg{0});
  const auto reg = [&] { return ir::Reg{static_cast<std::uint32_t>(rng.next_below(kRegs))}; };
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

TEST(PercolateDifferential, RandomCfgs) {
  Rng rng(0x5EED5EEDull);
  int compared = 0;
  for (int trial = 0; trial < 10000; ++trial) {
    const ir::Function fn = random_function(rng);
    SCOPED_TRACE("trial " + std::to_string(trial));
    ir::Function actual = fn;
    ir::Function expected = fn;
    const int want = reference::simplify_cfg(expected);
    if (want < 0) continue;
    EXPECT_EQ(simplify_cfg(actual), want);
    expect_same_function(actual, expected, fn);
    for (const bool o2 : {false, true}) {
      for (const auto& options : option_grid(o2)) {
        compared += expect_same_percolation(fn, options) ? 1 : 0;
      }
    }
    if (::testing::Test::HasFailure()) return;
  }
  EXPECT_GT(compared, 50000);
}

}  // namespace
}  // namespace asipfb::opt
