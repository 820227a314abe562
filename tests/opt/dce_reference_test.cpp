// Differential test of dead code elimination.
//
// The library removes dead code from a worklist of registers whose use
// count reached zero.  This file keeps the earlier algorithm as the
// reference — count every use, remove every unread definition, rescan
// until nothing is removed — and requires the same bytes and the same
// return value at every point the optimizer runs DCE: on freshly lowered
// IR, inside each canonicalization round, and after percolation at O1 and
// O2.  Inputs are the suite, the default corpus, the seed-2 corpus and a
// mutant of every program in them.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "cache/serialize.hpp"
#include "frontend/compile.hpp"
#include "ir/builder.hpp"
#include "ir/printer.hpp"
#include "opt/cleanup.hpp"
#include "opt/percolate.hpp"
#include "opt/rename.hpp"
#include "opt/unroll.hpp"
#include "workloads/generator.hpp"
#include "workloads/mutate.hpp"
#include "workloads/suite.hpp"

namespace asipfb::opt {
namespace {

using ir::Instr;
using ir::Opcode;
using ir::Reg;

namespace reference {

int dead_code_elimination(ir::Function& fn) {
  int removed_total = 0;
  for (;;) {
    std::vector<std::uint32_t> uses(fn.reg_types.size(), 0);
    for (const auto& block : fn.blocks) {
      for (const auto& instr : block.instrs) {
        for (Reg a : instr.args) ++uses[a.id];
      }
    }
    int removed = 0;
    for (auto& block : fn.blocks) {
      std::vector<Instr> kept;
      kept.reserve(block.instrs.size());
      for (auto& instr : block.instrs) {
        const bool removable =
            !instr.is_terminator() && instr.dst &&
            uses[instr.dst->id] == 0 &&
            (instr.is_pure() || instr.op == Opcode::Load || instr.op == Opcode::FLoad);
        if (removable) {
          ++removed;
        } else {
          kept.push_back(std::move(instr));
        }
      }
      block.instrs = std::move(kept);
    }
    removed_total += removed;
    if (removed == 0) break;
  }
  return removed_total;
}

}  // namespace reference

std::string bytes_of(const ir::Function& fn) {
  ir::Module m;
  m.name = "fn";
  m.functions.push_back(fn);
  return cache::serialize(m);
}

/// Runs the library's DCE on `fn` and the reference on a copy; both must
/// return the same count and leave the same bytes.  Returns the count.
int expect_same_dce(ir::Function& fn) {
  ir::Function expected = fn;
  const ir::Function input = fn;
  const int want = reference::dead_code_elimination(expected);
  const int got = dead_code_elimination(fn);
  EXPECT_EQ(got, want);
  if (bytes_of(fn) != bytes_of(expected)) {
    ADD_FAILURE() << "input:\n" << ir::to_string(input) << "library:\n"
                  << ir::to_string(fn) << "reference:\n" << ir::to_string(expected);
  }
  return got;
}

/// Every DCE point of the optimizer for `source`: freshly lowered IR, each
/// canonicalization round (canonicalize()'s loop, spelled out), and the
/// final DCE after unrolling, renaming at O2 and percolation.
void expect_same_everywhere(const std::string& source, const std::string& name) {
  const ir::Module raw = fe::compile_benchc(source, name);
  for (const ir::Function& lowered : raw.functions) {
    SCOPED_TRACE(name + "." + lowered.name);
    ir::Function direct = lowered;
    expect_same_dce(direct);

    ir::Function fn = lowered;
    for (int round = 0; round < 8; ++round) {
      int work = simplify_cfg(fn);
      work += local_value_numbering(fn);
      work += expect_same_dce(fn);
      if (work == 0) break;
    }
    for (const bool o2 : {false, true}) {
      ir::Function optimized = fn;
      unroll_loops(optimized);
      if (o2) rename_registers(optimized);
      PercolationOptions options;
      options.chain_preserving = !o2;
      percolate(optimized, options);
      expect_same_dce(optimized);
    }
    if (::testing::Test::HasFailure()) return;
  }
}

/// Each program and one mutant of it (two stacked rewrites).
void expect_same_with_mutants(const std::vector<wl::Workload>& programs,
                              std::uint64_t seed) {
  for (std::size_t i = 0; i < programs.size(); ++i) {
    const auto& w = programs[i];
    expect_same_everywhere(w.source, w.name);
    const auto mutated = wl::mutate(w.source, seed + i, 2);
    expect_same_everywhere(mutated.source, w.name + "_mut");
    if (::testing::Test::HasFailure()) return;
  }
}

TEST(DceReference, SuiteAndMutants) { expect_same_with_mutants(wl::suite(), 1); }

TEST(DceReference, DefaultCorpusAndMutants) {
  const wl::CorpusSpec spec;
  expect_same_with_mutants(wl::corpus(spec), spec.seed);
}

TEST(DceReference, SeedTwoCorpusAndMutants) {
  const wl::CorpusSpec spec{.seed = 2};
  expect_same_with_mutants(wl::corpus(spec), spec.seed);
}

TEST(DceReference, SelfReadingDefinitionsStay) {
  // A definition that reads its own register keeps that register read,
  // so neither it nor the register's other definitions go, while the
  // dead chain beside them does.
  ir::Function fn;
  fn.name = "f";
  fn.return_type = ir::Type::I32;
  fn.frame_words = 1;
  ir::Builder b(fn);
  b.set_insert_point(b.create_block("entry"));
  const Reg one = b.emit_movi(1);
  const Reg acc = b.emit_movi(0);
  b.emit(ir::make::binary(Opcode::Add, acc, acc, one));  // Reads itself only.
  const Reg addr = b.emit_addr_local(0);
  const Reg loaded = b.emit_load(ir::Type::I32, addr);
  b.emit(ir::make::binary(Opcode::Add, loaded, loaded, one));
  const Reg dead = b.emit_binary(Opcode::Mul, ir::Type::I32, one, one);
  b.emit_unary(Opcode::Neg, ir::Type::I32, dead);
  b.emit_ret_value(b.emit_movi(0));
  EXPECT_EQ(expect_same_dce(fn), 2);
}

}  // namespace
}  // namespace asipfb::opt
