// Differential test of local value numbering.
//
// The library numbers values in dense per-function tables: a register
// table whose entries from earlier blocks read as absent, and one
// open-addressed expression table whose entries carry their block.  This
// file keeps the earlier algorithm as the reference — three node maps
// per block and a heap key per instruction — and requires the same bytes
// and the same return value at every point canonicalization runs LVN:
// each round of the full eight-round loop, on freshly lowered IR and
// after the passes before it.  Inputs are the suite, the default corpus,
// the seed-2 corpus and a mutant of every program in them, plus
// hand-built blocks for the cases the tables must keep.
#include <gtest/gtest.h>

#include <bit>
#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "cache/serialize.hpp"
#include "frontend/compile.hpp"
#include "ir/builder.hpp"
#include "ir/printer.hpp"
#include "opt/cleanup.hpp"
#include "workloads/generator.hpp"
#include "workloads/mutate.hpp"
#include "workloads/suite.hpp"

namespace asipfb::opt {
namespace {

using ir::Instr;
using ir::Opcode;
using ir::Reg;

namespace reference {

[[nodiscard]] bool commutative(Opcode op) {
  switch (op) {
    case Opcode::Add: case Opcode::Mul:
    case Opcode::FAdd: case Opcode::FMul:
    case Opcode::And: case Opcode::Or: case Opcode::Xor:
    case Opcode::CmpEq: case Opcode::CmpNe:
    case Opcode::FCmpEq: case Opcode::FCmpNe:
      return true;
    default:
      return false;
  }
}

[[nodiscard]] bool cseable(const Instr& instr) {
  return instr.is_pure() && instr.dst.has_value();
}

int local_value_numbering(ir::Function& fn) {
  int rewritten = 0;
  using ValueNum = std::uint32_t;
  // Key: opcode, immediate payload, intrinsic kind, operand value numbers.
  using ExprKey = std::tuple<Opcode, std::int32_t, std::uint32_t, int,
                             std::vector<ValueNum>>;

  for (auto& block : fn.blocks) {
    ValueNum next_vn = 1;
    std::map<std::uint32_t, ValueNum> reg_vn;   // Register -> current value.
    std::map<ExprKey, ValueNum> expr_vn;        // Expression -> value.
    std::map<ValueNum, Reg> holder;             // Value -> a register holding it.

    auto vn_of_reg = [&](Reg r) {
      const auto it = reg_vn.find(r.id);
      if (it != reg_vn.end()) return it->second;
      const ValueNum vn = next_vn++;
      reg_vn[r.id] = vn;
      holder.emplace(vn, r);
      return vn;
    };
    auto holder_valid = [&](ValueNum vn, Reg r) {
      const auto it = reg_vn.find(r.id);
      return it != reg_vn.end() && it->second == vn;
    };

    for (auto& instr : block.instrs) {
      // Canonicalize operands to the first live holder of their value
      // (this is the copy-propagation half of LVN).
      std::vector<ValueNum> arg_vns;
      arg_vns.reserve(instr.args.size());
      for (auto& arg : instr.args) {
        const ValueNum vn = vn_of_reg(arg);
        arg_vns.push_back(vn);
        const auto hold = holder.find(vn);
        if (hold != holder.end() && holder_valid(vn, hold->second)) {
          arg = hold->second;
        }
      }

      if (instr.op == Opcode::Copy) {
        // The copy's destination now holds the source's value.
        reg_vn[instr.dst->id] = arg_vns[0];
        holder.try_emplace(arg_vns[0], instr.args[0]);
        continue;
      }

      if (!cseable(instr)) {
        // Opaque result (load, call result, ...): fresh value.
        if (instr.dst) {
          const ValueNum vn = next_vn++;
          reg_vn[instr.dst->id] = vn;
          holder[vn] = *instr.dst;
        }
        continue;
      }

      std::vector<ValueNum> key_args = arg_vns;
      if (commutative(instr.op) && key_args.size() == 2 && key_args[0] > key_args[1]) {
        std::swap(key_args[0], key_args[1]);
      }
      ExprKey key{instr.op, instr.imm_i,
                  std::bit_cast<std::uint32_t>(instr.imm_f),
                  static_cast<int>(instr.intrinsic), std::move(key_args)};

      const auto found = expr_vn.find(key);
      if (found != expr_vn.end()) {
        const auto hold = holder.find(found->second);
        if (hold != holder.end() && holder_valid(found->second, hold->second) &&
            hold->second.id != instr.dst->id) {
          // Same value already available: rewrite to a copy of the holder.
          const Reg dst = *instr.dst;
          const Reg src = hold->second;
          instr.op = Opcode::Copy;
          instr.args = {src};
          instr.imm_i = 0;
          instr.imm_f = 0.0f;
          instr.intrinsic = ir::IntrinsicKind::None;
          instr.dst = dst;
          reg_vn[dst.id] = found->second;
          ++rewritten;
          continue;
        }
      }
      const ValueNum vn = next_vn++;
      expr_vn[std::move(key)] = vn;
      reg_vn[instr.dst->id] = vn;
      holder[vn] = *instr.dst;
    }
  }
  return rewritten;
}

}  // namespace reference

std::string bytes_of(const ir::Function& fn) {
  ir::Module m;
  m.name = "fn";
  m.functions.push_back(fn);
  return cache::serialize(m);
}

/// Runs the library's LVN on `fn` and the reference on a copy; both must
/// return the same count and leave the same bytes.  Returns the count.
int expect_same_lvn(ir::Function& fn) {
  ir::Function expected = fn;
  const ir::Function input = fn;
  const int want = reference::local_value_numbering(expected);
  const int got = local_value_numbering(fn);
  EXPECT_EQ(got, want);
  if (bytes_of(fn) != bytes_of(expected)) {
    ADD_FAILURE() << "input:\n" << ir::to_string(input) << "library:\n"
                  << ir::to_string(fn) << "reference:\n" << ir::to_string(expected);
  }
  return got;
}

/// Every LVN point of canonicalization for `source`: each round of the
/// full loop, spelled out, so rounds that canonicalize() skips as settled
/// are compared too.
void expect_same_everywhere(const std::string& source, const std::string& name) {
  const ir::Module raw = fe::compile_benchc(source, name);
  for (const ir::Function& lowered : raw.functions) {
    SCOPED_TRACE(name + "." + lowered.name);
    ir::Function fn = lowered;
    for (int round = 0; round < 8; ++round) {
      int work = simplify_cfg(fn);
      work += expect_same_lvn(fn);
      work += dead_code_elimination(fn);
      if (work == 0) break;
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

TEST(LvnReference, SuiteAndMutants) { expect_same_with_mutants(wl::suite(), 1); }

TEST(LvnReference, DefaultCorpusAndMutants) {
  const wl::CorpusSpec spec;
  expect_same_with_mutants(wl::corpus(spec), spec.seed);
}

TEST(LvnReference, SeedTwoCorpusAndMutants) {
  const wl::CorpusSpec spec{.seed = 2};
  expect_same_with_mutants(wl::corpus(spec), spec.seed);
}

/// A one-block function with two i32 parameters, built by `body`, which
/// returns the register to return.
template <typename Body>
ir::Function one_block(const Body& body) {
  ir::Function fn;
  fn.name = "f";
  fn.return_type = ir::Type::I32;
  const Reg p = fn.new_reg(ir::Type::I32);
  const Reg q = fn.new_reg(ir::Type::I32);
  fn.params = {p, q};
  ir::Builder b(fn);
  b.set_insert_point(b.create_block("entry"));
  b.emit_ret_value(body(b, p, q));
  return fn;
}

TEST(LvnReference, RedefinedHolderIsNotReused) {
  // The holder of p + q is overwritten before the second p + q, which
  // must then compute a new value instead of copying the stale holder; a
  // third p + q copies the second.
  ir::Function fn = one_block([](ir::Builder& b, Reg p, Reg q) {
    const Reg sum = b.emit_binary(Opcode::Add, ir::Type::I32, p, q);
    b.emit(ir::make::movi(sum, 7));
    const Reg again = b.emit_binary(Opcode::Add, ir::Type::I32, p, q);
    const Reg third = b.emit_binary(Opcode::Add, ir::Type::I32, p, q);
    const Reg t = b.emit_binary(Opcode::Mul, ir::Type::I32, again, third);
    return b.emit_binary(Opcode::Sub, ir::Type::I32, t, sum);
  });
  EXPECT_EQ(expect_same_lvn(fn), 1);
  const auto& instrs = fn.blocks[0].instrs;
  EXPECT_EQ(instrs[2].op, Opcode::Add);
  EXPECT_EQ(instrs[3].op, Opcode::Copy);
}

TEST(LvnReference, HolderThatGetsItsValueBackIsValidAgain) {
  // sum is overwritten, then copied back from a register that holds its
  // value, so p + q finds sum valid again.
  ir::Function fn = one_block([](ir::Builder& b, Reg p, Reg q) {
    const Reg sum = b.emit_binary(Opcode::Add, ir::Type::I32, p, q);
    const Reg saved = b.emit_copy(sum);
    b.emit(ir::make::movi(sum, 7));
    b.emit(ir::make::copy(sum, saved));
    const Reg again = b.emit_binary(Opcode::Add, ir::Type::I32, p, q);
    return b.emit_binary(Opcode::Mul, ir::Type::I32, again, saved);
  });
  EXPECT_EQ(expect_same_lvn(fn), 1);
}

TEST(LvnReference, KeyOfARedefinedExpressionNamesTheNewValue) {
  // The second p + q redefines the register holding the first, so the
  // key now names the second value; the third p + q copies it.
  ir::Function fn = one_block([](ir::Builder& b, Reg p, Reg q) {
    const Reg sum = b.emit_binary(Opcode::Add, ir::Type::I32, p, q);
    b.emit(ir::make::binary(Opcode::Add, sum, p, q));
    const Reg third = b.emit_binary(Opcode::Add, ir::Type::I32, p, q);
    return b.emit_binary(Opcode::Mul, ir::Type::I32, sum, third);
  });
  EXPECT_EQ(expect_same_lvn(fn), 1);
}

TEST(LvnReference, CommutativeOperandsInEitherOrder) {
  // q + p and q * p match p + q and p * q; q - p does not match p - q.
  ir::Function fn = one_block([](ir::Builder& b, Reg p, Reg q) {
    const Reg add = b.emit_binary(Opcode::Add, ir::Type::I32, p, q);
    const Reg mul = b.emit_binary(Opcode::Mul, ir::Type::I32, p, q);
    const Reg sub = b.emit_binary(Opcode::Sub, ir::Type::I32, p, q);
    const Reg eq = b.emit_binary(Opcode::CmpEq, ir::Type::I32, p, q);
    const Reg add2 = b.emit_binary(Opcode::Add, ir::Type::I32, q, p);
    const Reg mul2 = b.emit_binary(Opcode::Mul, ir::Type::I32, q, p);
    const Reg sub2 = b.emit_binary(Opcode::Sub, ir::Type::I32, q, p);
    const Reg eq2 = b.emit_binary(Opcode::CmpEq, ir::Type::I32, q, p);
    Reg acc = add;
    for (const Reg r : {mul, sub, eq, add2, mul2, sub2, eq2}) {
      acc = b.emit_binary(Opcode::Xor, ir::Type::I32, acc, r);
    }
    return acc;
  });
  EXPECT_EQ(expect_same_lvn(fn), 3);
}

TEST(LvnReference, ImmediatesAndIntrinsicKindsAreInTheKey) {
  ir::Function fn = one_block([](ir::Builder& b, Reg p, Reg) {
    const Reg one = b.emit_movi(1);
    const Reg two = b.emit_movi(2);
    const Reg one2 = b.emit_movi(1);
    const Reg f = b.emit_unary(Opcode::IntToFp, ir::Type::F32, p);
    const Reg s = b.emit_intrin(ir::IntrinsicKind::Sin, ir::Type::F32, {f});
    const Reg c = b.emit_intrin(ir::IntrinsicKind::Cos, ir::Type::F32, {f});
    const Reg s2 = b.emit_intrin(ir::IntrinsicKind::Sin, ir::Type::F32, {f});
    const Reg z = b.emit_movf(-0.0f);
    const Reg z2 = b.emit_movf(0.0f);
    Reg facc = b.emit_binary(Opcode::FAdd, ir::Type::F32, s, c);
    for (const Reg r : {s2, z, z2}) facc = b.emit_binary(Opcode::FAdd, ir::Type::F32, facc, r);
    Reg acc = b.emit_unary(Opcode::FpToInt, ir::Type::I32, facc);
    for (const Reg r : {one, two, one2}) acc = b.emit_binary(Opcode::Add, ir::Type::I32, acc, r);
    return acc;
  });
  EXPECT_EQ(expect_same_lvn(fn), 2);
}

TEST(LvnReference, WideKeysAreNumberedLikeNarrowOnes) {
  // Intrin is the one pure opcode of variable arity; the verifier holds
  // it to one operand, but LVN takes any count.  Four operands, in the
  // same order, with the first or the last two swapped, and one more.
  ir::Function fn = one_block([](ir::Builder& b, Reg p, Reg q) {
    const auto wide = [&](std::vector<Reg> args) {
      return b.emit_intrin(ir::IntrinsicKind::IAbs, ir::Type::I32, std::move(args));
    };
    const Reg w = wide({p, q, p, q});
    const Reg same = wide({p, q, p, q});
    const Reg swapped = wide({q, p, p, q});
    const Reg tail_differs = wide({p, q, q, p});
    const Reg longer = wide({p, q, p, q, p});
    const Reg same_longer = wide({p, q, p, q, p});
    Reg acc = w;
    for (const Reg r : {same, swapped, tail_differs, longer, same_longer}) {
      acc = b.emit_binary(Opcode::Add, ir::Type::I32, acc, r);
    }
    return acc;
  });
  EXPECT_EQ(expect_same_lvn(fn), 2);
}

TEST(LvnReference, NoPureOpcodeHasAFixedArityAboveTwo) {
  // Keys of verified IR hold at most two operands: every pure opcode with
  // a fixed operand count has at most two, and Intrin verifies with one.
  for (int i = 0; i < ir::kNumOpcodes; ++i) {
    const auto op = static_cast<Opcode>(i);
    Instr instr;
    instr.op = op;
    if (!instr.is_pure()) continue;
    SCOPED_TRACE(std::string(ir::to_string(op)));
    if (op == Opcode::Intrin) {
      EXPECT_EQ(ir::info(op).num_args, -1);
    } else {
      EXPECT_GE(ir::info(op).num_args, 0);
      EXPECT_LE(ir::info(op).num_args, 2);
    }
  }
}

TEST(LvnReference, ValuesDoNotCrossBlocks) {
  // The same expression in two blocks is computed in both: the tables'
  // entries from the first block read as absent in the second.
  ir::Function fn;
  fn.name = "f";
  fn.return_type = ir::Type::I32;
  const Reg p = fn.new_reg(ir::Type::I32);
  fn.params = {p};
  ir::Builder b(fn);
  const ir::BlockId entry = b.create_block("entry");
  const ir::BlockId next = b.create_block("next");
  b.set_insert_point(entry);
  const Reg x = b.emit_binary(Opcode::Mul, ir::Type::I32, p, p);
  const Reg x2 = b.emit_binary(Opcode::Mul, ir::Type::I32, p, p);
  b.emit_cond_br(x2, next, next);
  b.set_insert_point(next);
  const Reg y = b.emit_binary(Opcode::Mul, ir::Type::I32, p, p);
  const Reg z = b.emit_copy(x);
  b.emit_ret_value(b.emit_binary(Opcode::Add, ir::Type::I32, y, z));
  EXPECT_EQ(expect_same_lvn(fn), 1);
  EXPECT_EQ(fn.blocks[1].instrs[0].op, Opcode::Mul);
}

}  // namespace
}  // namespace asipfb::opt
