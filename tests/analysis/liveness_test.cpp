#include "analysis/liveness.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "analysis/cfg.hpp"
#include "ir/builder.hpp"

namespace asipfb::analysis {
namespace {

using ir::BlockId;
using ir::Builder;
using ir::Function;
using ir::Reg;
using ir::Type;

TEST(Liveness, ValueLiveAcrossBlock) {
  // entry: x = 1; br next.  next: ret x.
  Function fn;
  fn.return_type = Type::I32;
  Builder b(fn);
  const BlockId entry = b.create_block("entry");
  const BlockId next = b.create_block("next");
  b.set_insert_point(entry);
  const Reg x = b.emit_movi(1);
  b.emit_br(next);
  b.set_insert_point(next);
  b.emit_ret_value(x);

  const Liveness live(fn);
  EXPECT_TRUE(live.live_out(entry, x));
  EXPECT_TRUE(live.live_in(next, x));
  EXPECT_FALSE(live.live_in(entry, x)) << "defined before any use in entry";
}

TEST(Liveness, DeadAfterLastUse) {
  Function fn;
  fn.return_type = Type::I32;
  Builder b(fn);
  const BlockId entry = b.create_block("entry");
  const BlockId next = b.create_block("next");
  b.set_insert_point(entry);
  const Reg x = b.emit_movi(1);
  const Reg y = b.emit_unary(ir::Opcode::Neg, Type::I32, x);  // Last use of x.
  b.emit_br(next);
  b.set_insert_point(next);
  b.emit_ret_value(y);

  const Liveness live(fn);
  EXPECT_FALSE(live.live_out(entry, x));
  EXPECT_TRUE(live.live_out(entry, y));
}

TEST(Liveness, LiveOnOneBranchOnly) {
  // entry: x=1; condbr p, use_x, skip.  use_x: ret x.  skip: ret p.
  Function fn;
  fn.return_type = Type::I32;
  const Reg p = fn.new_reg(Type::I32);
  fn.params.push_back(p);
  Builder b(fn);
  const BlockId entry = b.create_block("entry");
  const BlockId use_x = b.create_block("use_x");
  const BlockId skip = b.create_block("skip");
  b.set_insert_point(entry);
  const Reg x = b.emit_movi(1);
  b.emit_cond_br(p, use_x, skip);
  b.set_insert_point(use_x);
  b.emit_ret_value(x);
  b.set_insert_point(skip);
  b.emit_ret_value(p);

  const Liveness live(fn);
  EXPECT_TRUE(live.live_in(use_x, x));
  EXPECT_FALSE(live.live_in(skip, x));
  EXPECT_TRUE(live.live_out(entry, x));
}

TEST(Liveness, LoopCarriedValueLiveAroundBackEdge) {
  // entry: i=0; br header. header: c = i<10; condbr c, body, exit.
  // body: i=i+1; br header. exit: ret i.
  Function fn;
  fn.return_type = Type::I32;
  Builder b(fn);
  const BlockId entry = b.create_block("entry");
  const BlockId header = b.create_block("header");
  const BlockId body = b.create_block("body");
  const BlockId exit = b.create_block("exit");
  b.set_insert_point(entry);
  const Reg i = fn.new_reg(Type::I32);
  b.emit(ir::make::movi(i, 0));
  b.emit_br(header);
  b.set_insert_point(header);
  const Reg ten = b.emit_movi(10);
  const Reg c = b.emit_binary(ir::Opcode::CmpLt, Type::I32, i, ten);
  b.emit_cond_br(c, body, exit);
  b.set_insert_point(body);
  const Reg one = b.emit_movi(1);
  b.emit(ir::make::binary(ir::Opcode::Add, i, i, one));
  b.emit_br(header);
  b.set_insert_point(exit);
  b.emit_ret_value(i);

  const Liveness live(fn);
  EXPECT_TRUE(live.live_in(header, i));
  EXPECT_TRUE(live.live_out(body, i));
  EXPECT_TRUE(live.live_in(exit, i));
  EXPECT_FALSE(live.live_in(header, c)) << "condition recomputed each iteration";
}

TEST(Liveness, UseBeforeDefInSameBlockIsLiveIn) {
  Function fn;
  fn.return_type = Type::I32;
  const Reg p = fn.new_reg(Type::I32);
  fn.params.push_back(p);
  Builder b(fn);
  b.set_insert_point(b.create_block("entry"));
  const Reg q = b.emit_unary(ir::Opcode::Neg, Type::I32, p);
  b.emit_ret_value(q);
  const Liveness live(fn);
  EXPECT_TRUE(live.live_in(0, p));
}

TEST(Liveness, RegistersAtWordBoundaries) {
  // entry defines r63, r64, r65, r127, r128.  mid reads r63 and r128 and
  // redefines r64; last reads r64, r127 and r65.
  Function fn;
  fn.return_type = Type::I32;
  std::vector<Reg> r;
  for (int i = 0; i < 130; ++i) r.push_back(fn.new_reg(Type::I32));
  Builder b(fn);
  const BlockId entry = b.create_block("entry");
  const BlockId mid = b.create_block("mid");
  const BlockId last = b.create_block("last");
  b.set_insert_point(entry);
  for (int i : {63, 64, 65, 127, 128}) b.emit(ir::make::movi(r[i], i));
  b.emit_br(mid);
  b.set_insert_point(mid);
  b.emit(ir::make::binary(ir::Opcode::Add, r[0], r[63], r[128]));
  b.emit(ir::make::movi(r[64], 5));
  b.emit_br(last);
  b.set_insert_point(last);
  b.emit(ir::make::binary(ir::Opcode::Add, r[1], r[64], r[127]));
  b.emit(ir::make::binary(ir::Opcode::Add, r[2], r[1], r[65]));
  b.emit_ret_value(r[2]);

  const Liveness live(fn);
  for (int i : {63, 65, 127, 128}) {
    EXPECT_TRUE(live.live_in(mid, r[i])) << "r" << i;
    EXPECT_TRUE(live.live_out(entry, r[i])) << "r" << i;
    EXPECT_FALSE(live.live_in(entry, r[i])) << "r" << i;
  }
  EXPECT_FALSE(live.live_in(mid, r[64])) << "redefined before any use";
  for (int i : {64, 65, 127}) EXPECT_TRUE(live.live_in(last, r[i])) << "r" << i;
  for (int i : {63, 128}) EXPECT_FALSE(live.live_in(last, r[i])) << "r" << i;
  for (int i : {0, 62, 66, 126, 129}) {
    EXPECT_FALSE(live.live_in(mid, r[i])) << "r" << i;
    EXPECT_FALSE(live.live_out(entry, r[i])) << "r" << i;
  }
}

TEST(Liveness, UnreachableAndSelfLoopBlocks) {
  // entry: condbr p, spin, exit.  spin: i = i + k; condbr i, spin, exit.
  // dead (no predecessors): y = x + z; br exit.  exit: ret x.
  Function fn;
  fn.return_type = Type::I32;
  const Reg p = fn.new_reg(Type::I32);
  fn.params.push_back(p);
  Builder b(fn);
  const BlockId entry = b.create_block("entry");
  const BlockId spin = b.create_block("spin");
  const BlockId dead = b.create_block("dead");
  const BlockId exit = b.create_block("exit");
  const Reg i = fn.new_reg(Type::I32);
  const Reg z = fn.new_reg(Type::I32);
  b.set_insert_point(entry);
  const Reg x = b.emit_movi(1);
  const Reg k = b.emit_movi(3);
  b.emit(ir::make::movi(i, 0));
  b.emit_cond_br(p, spin, exit);
  b.set_insert_point(spin);
  b.emit(ir::make::binary(ir::Opcode::Add, i, i, k));
  b.emit_cond_br(i, spin, exit);
  b.set_insert_point(dead);
  const Reg y = b.emit_binary(ir::Opcode::Add, Type::I32, x, z);
  b.emit_br(exit);
  b.set_insert_point(exit);
  b.emit_ret_value(x);

  const Liveness live(fn);
  EXPECT_TRUE(live.live_in(spin, i));
  EXPECT_TRUE(live.live_in(spin, k));
  EXPECT_TRUE(live.live_in(spin, x)) << "needed at exit, through the loop";
  EXPECT_TRUE(live.live_out(spin, i)) << "carried around the self edge";
  EXPECT_TRUE(live.live_out(spin, k));
  EXPECT_TRUE(live.live_in(dead, x));
  EXPECT_TRUE(live.live_in(dead, z));
  EXPECT_FALSE(live.live_out(dead, y));
  EXPECT_FALSE(live.live_out(entry, z)) << "the unreachable read leaks nowhere";
  EXPECT_FALSE(live.live_in(entry, z));
  EXPECT_FALSE(live.live_in(exit, i));
}

/// Every live-in and live-out bit of `a` equals that of a fresh Liveness.
void expect_matches_fresh(const Function& fn, const Liveness& a) {
  const Liveness fresh(fn);
  for (std::size_t b = 0; b < fn.blocks.size(); ++b) {
    const auto id = static_cast<BlockId>(b);
    for (std::uint32_t r = 0; r < fn.reg_types.size(); ++r) {
      EXPECT_EQ(a.live_in(id, Reg{r}), fresh.live_in(id, Reg{r}))
          << "live_in block " << b << " r" << r;
      EXPECT_EQ(a.live_out(id, Reg{r}), fresh.live_out(id, Reg{r}))
          << "live_out block " << b << " r" << r;
    }
  }
}

/// Moves instruction `index` of block `n` to the end of block `m`, just
/// before its terminator (a percolation hoist), then refreshes `live`.
void hoist(Function& fn, Liveness& live, BlockId n, std::size_t index,
           BlockId m) {
  auto& from = fn.blocks[n].instrs;
  auto& to = fn.blocks[m].instrs;
  to.insert(to.end() - 1, from[index]);
  from.erase(from.begin() + static_cast<std::ptrdiff_t>(index));
  live.refresh(fn, predecessors(fn), {n, m});
}

TEST(LivenessRefresh, HoistedUseShrinksLiveIn) {
  // m: a = 1; condbr p, n, other.  n: t = -a; ret p.  other: ret p.
  Function fn;
  fn.return_type = Type::I32;
  const Reg p = fn.new_reg(Type::I32);
  fn.params.push_back(p);
  Builder b(fn);
  const BlockId m = b.create_block("m");
  const BlockId n = b.create_block("n");
  const BlockId other = b.create_block("other");
  b.set_insert_point(m);
  const Reg a = b.emit_movi(1);
  b.emit_cond_br(p, n, other);
  b.set_insert_point(n);
  b.emit_unary(ir::Opcode::Neg, Type::I32, a);
  b.emit_ret_value(p);
  b.set_insert_point(other);
  b.emit_ret_value(p);

  Liveness live(fn);
  ASSERT_TRUE(live.live_in(n, a));
  hoist(fn, live, n, 0, m);
  EXPECT_FALSE(live.live_in(n, a));
  EXPECT_FALSE(live.live_out(m, a));
  expect_matches_fresh(fn, live);
}

TEST(LivenessRefresh, KeptConsumerOfHoistedDestinationGrowsLiveIn) {
  // Renamed (O2) motion leaves the consumer behind:
  // m: a = 1; condbr p, n, other.  n: t = -a; u = t + a; ret u.
  Function fn;
  fn.return_type = Type::I32;
  const Reg p = fn.new_reg(Type::I32);
  fn.params.push_back(p);
  Builder b(fn);
  const BlockId m = b.create_block("m");
  const BlockId n = b.create_block("n");
  const BlockId other = b.create_block("other");
  b.set_insert_point(m);
  const Reg a = b.emit_movi(1);
  b.emit_cond_br(p, n, other);
  b.set_insert_point(n);
  const Reg t = b.emit_unary(ir::Opcode::Neg, Type::I32, a);
  const Reg u = b.emit_binary(ir::Opcode::Add, Type::I32, t, a);
  b.emit_ret_value(u);
  b.set_insert_point(other);
  b.emit_ret_value(p);

  Liveness live(fn);
  ASSERT_FALSE(live.live_in(n, t));
  hoist(fn, live, n, 0, m);
  EXPECT_TRUE(live.live_in(n, t));
  EXPECT_TRUE(live.live_in(n, a));
  EXPECT_TRUE(live.live_out(m, t));
  expect_matches_fresh(fn, live);
}

TEST(LivenessRefresh, HoistInsideLoop) {
  // entry: i = 0; k = 10; br head.  head: c = i < k; condbr c, body, exit.
  // body: t = k * k; i = i + t; br head.  exit: ret i.
  Function fn;
  fn.return_type = Type::I32;
  Builder b(fn);
  const BlockId entry = b.create_block("entry");
  const BlockId head = b.create_block("head");
  const BlockId body = b.create_block("body");
  const BlockId exit = b.create_block("exit");
  const Reg i = fn.new_reg(Type::I32);
  b.set_insert_point(entry);
  b.emit(ir::make::movi(i, 0));
  const Reg k = b.emit_movi(10);
  b.emit_br(head);
  b.set_insert_point(head);
  const Reg c = b.emit_binary(ir::Opcode::CmpLt, Type::I32, i, k);
  b.emit_cond_br(c, body, exit);
  b.set_insert_point(body);
  const Reg t = b.emit_binary(ir::Opcode::Mul, Type::I32, k, k);
  b.emit(ir::make::binary(ir::Opcode::Add, i, i, t));
  b.emit_br(head);
  b.set_insert_point(exit);
  b.emit_ret_value(i);

  Liveness live(fn);
  hoist(fn, live, body, 0, head);
  EXPECT_TRUE(live.live_in(body, t));
  EXPECT_TRUE(live.live_in(head, k)) << "still read around the loop";
  EXPECT_FALSE(live.live_in(head, t));
  expect_matches_fresh(fn, live);
}

TEST(LivenessRefresh, PredecessorWithSelfBackEdge) {
  // entry: i = 0; k = 8; br m.  m: i = i + k; c = i < 99; condbr c, m, n.
  // n: t = i * i; ret t.
  Function fn;
  fn.return_type = Type::I32;
  Builder b(fn);
  const BlockId entry = b.create_block("entry");
  const BlockId m = b.create_block("m");
  const BlockId n = b.create_block("n");
  const Reg i = fn.new_reg(Type::I32);
  b.set_insert_point(entry);
  b.emit(ir::make::movi(i, 0));
  const Reg k = b.emit_movi(8);
  b.emit_br(m);
  b.set_insert_point(m);
  b.emit(ir::make::binary(ir::Opcode::Add, i, i, k));
  const Reg limit = b.emit_movi(99);
  const Reg c = b.emit_binary(ir::Opcode::CmpLt, Type::I32, i, limit);
  b.emit_cond_br(c, m, n);
  b.set_insert_point(n);
  const Reg t = b.emit_binary(ir::Opcode::Mul, Type::I32, i, i);
  b.emit_ret_value(t);

  Liveness live(fn);
  ASSERT_TRUE(live.live_in(n, i));
  hoist(fn, live, n, 0, m);
  EXPECT_FALSE(live.live_in(n, i));
  EXPECT_TRUE(live.live_in(n, t));
  EXPECT_TRUE(live.live_in(m, i));
  EXPECT_FALSE(live.live_in(m, t));
  expect_matches_fresh(fn, live);
}

}  // namespace
}  // namespace asipfb::analysis
