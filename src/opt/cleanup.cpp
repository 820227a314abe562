#include "opt/cleanup.hpp"

#include <algorithm>
#include <bit>
#include <iterator>
#include <numeric>
#include <vector>

namespace asipfb::opt {

using ir::BlockId;
using ir::Instr;
using ir::Opcode;
using ir::Reg;

namespace {

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

/// True for a block that holds only its `br`: a trivial block, one
/// simplify_cfg forwards branches through.
[[nodiscard]] bool only_br(const ir::BasicBlock& block) {
  return block.instrs.size() == 1 && block.instrs[0].op == Opcode::Br;
}

/// Pure value computations eligible for CSE.  Loads are excluded (no memory
/// disambiguation in LVN); intrinsics are pure and included.
[[nodiscard]] bool cseable(const Instr& instr) {
  return instr.is_pure() && instr.dst.has_value();
}

using ValueNum = std::uint32_t;

/// One entry of the expression table: opcode, immediate payload,
/// intrinsic kind and operand value numbers, mapped to a value number.
/// The operands live in a per-block array; `stamp` is the block's index
/// plus one, so an entry left by an earlier block reads as empty.
struct ExprSlot {
  std::uint32_t stamp = 0;
  ValueNum vn = 0;
  std::uint32_t first_arg = 0;  ///< Offset of the operands in the block's array.
  std::uint32_t nargs = 0;
  std::int32_t imm_i = 0;
  std::uint32_t imm_f = 0;      ///< The bits of Instr::imm_f.
  Opcode op = Opcode::Br;
  ir::IntrinsicKind intrinsic = ir::IntrinsicKind::None;
};

struct ValueNumbering {
  int rewritten = 0;     ///< Instructions rewritten to copies.
  bool changed = false;  ///< Any operand or instruction rewritten.
};

[[nodiscard]] std::uint64_t mix(std::uint64_t h, std::uint64_t word) {
  h = (h ^ word) * 0x9e3779b97f4a7c15ull;
  return h ^ (h >> 29);
}

/// Local value numbering over dense per-function tables.  Value numbers
/// run on across the blocks, so a register whose number is below the
/// current block's first one has no value in this block: the register
/// table is never cleared, and neither is the expression table, whose
/// entries carry their block.  Keys of any operand count go in the one
/// table; the only variable-arity pure opcode is Intrin, which the
/// verifier holds to one operand, so real keys have at most two.
ValueNumbering number_values(ir::Function& fn) {
  ValueNumbering result;
  std::vector<ValueNum> reg_vn(fn.reg_types.size(), 0);  // Register -> value.
  std::vector<Reg> holder(1);  // Value -> the first register holding it.
  std::size_t widest = 1;
  for (const auto& block : fn.blocks) widest = std::max(widest, block.instrs.size());
  // At most one entry per instruction of a block: the load stays at or
  // under one half.
  std::vector<ExprSlot> table(std::bit_ceil(2 * widest));
  const std::size_t mask = table.size() - 1;
  std::vector<ValueNum> operands;  // The current block's key operands.
  std::vector<ValueNum> key_args;

  for (std::size_t b = 0; b < fn.blocks.size(); ++b) {
    const auto stamp = static_cast<std::uint32_t>(b + 1);
    const auto first = static_cast<ValueNum>(holder.size());
    operands.clear();

    auto fresh = [&](Reg r) {
      holder.push_back(r);
      return static_cast<ValueNum>(holder.size() - 1);
    };
    auto vn_of_reg = [&](Reg r) {
      ValueNum& vn = reg_vn[r.id];
      if (vn < first) vn = fresh(r);
      return vn;
    };
    // Every value has a holder; it is valid while it still holds the value.
    auto holder_valid = [&](ValueNum vn) { return reg_vn[holder[vn].id] == vn; };

    for (auto& instr : fn.blocks[b].instrs) {
      // Canonicalize operands to the first live holder of their value
      // (this is the copy-propagation half of LVN).
      key_args.clear();
      for (auto& arg : instr.args) {
        const ValueNum vn = vn_of_reg(arg);
        key_args.push_back(vn);
        if (holder[vn] != arg && holder_valid(vn)) {
          arg = holder[vn];
          result.changed = true;
        }
      }

      if (instr.op == Opcode::Copy) {
        // The copy's destination now holds the source's value, whose
        // holder already exists.
        reg_vn[instr.dst->id] = key_args[0];
        continue;
      }

      if (!cseable(instr)) {
        // Opaque result (load, call result, ...): fresh value.
        if (instr.dst) reg_vn[instr.dst->id] = fresh(*instr.dst);
        continue;
      }

      if (commutative(instr.op) && key_args.size() == 2 && key_args[0] > key_args[1]) {
        std::swap(key_args[0], key_args[1]);
      }
      const auto imm_f = std::bit_cast<std::uint32_t>(instr.imm_f);
      std::uint64_t h = mix(static_cast<std::uint64_t>(instr.op) |
                                static_cast<std::uint64_t>(instr.intrinsic) << 8 |
                                static_cast<std::uint64_t>(key_args.size()) << 16,
                            static_cast<std::uint32_t>(instr.imm_i) |
                                static_cast<std::uint64_t>(imm_f) << 32);
      for (const ValueNum vn : key_args) h = mix(h, vn);
      const auto matches = [&](const ExprSlot& slot) {
        return slot.op == instr.op && slot.imm_i == instr.imm_i &&
               slot.imm_f == imm_f && slot.intrinsic == instr.intrinsic &&
               slot.nargs == key_args.size() &&
               std::equal(key_args.begin(), key_args.end(),
                          operands.begin() + slot.first_arg);
      };
      std::size_t i = h & mask;
      while (table[i].stamp == stamp && !matches(table[i])) i = (i + 1) & mask;
      ExprSlot& slot = table[i];

      if (slot.stamp == stamp) {
        if (holder_valid(slot.vn) && holder[slot.vn].id != instr.dst->id) {
          // Same value already available: rewrite to a copy of the holder.
          const Reg dst = *instr.dst;
          const Reg src = holder[slot.vn];
          instr.op = Opcode::Copy;
          instr.args = {src};
          instr.imm_i = 0;
          instr.imm_f = 0.0f;
          instr.intrinsic = ir::IntrinsicKind::None;
          instr.dst = dst;
          reg_vn[dst.id] = slot.vn;
          ++result.rewritten;
          result.changed = true;
          continue;
        }
      } else {
        slot.stamp = stamp;
        slot.first_arg = static_cast<std::uint32_t>(operands.size());
        slot.nargs = static_cast<std::uint32_t>(key_args.size());
        slot.imm_i = instr.imm_i;
        slot.imm_f = imm_f;
        slot.op = instr.op;
        slot.intrinsic = instr.intrinsic;
        operands.insert(operands.end(), key_args.begin(), key_args.end());
      }
      // A new value; a key seen before now names it.
      slot.vn = fresh(*instr.dst);
      reg_vn[instr.dst->id] = slot.vn;
    }
  }
  return result;
}

}  // namespace

int local_value_numbering(ir::Function& fn) { return number_values(fn).rewritten; }

namespace {

/// A definition whose op has no side effect: a pure value or a load.
[[nodiscard]] bool removable(const Instr& instr) {
  return instr.dst && !ir::info(instr.op).has_side_effects;
}

/// Counts the removable definitions of the registers `uses` finds unread,
/// and of those their removal leaves unread in turn; `uses` ends up
/// counting only the reads that survive.
int count_dead(const ir::Function& fn, std::vector<std::uint32_t>& uses) {
  // Removable definitions grouped by register (a counting sort): those of
  // register r end up in defs[first[r] .. first[r + 1]).
  std::vector<std::uint32_t> first(uses.size() + 2, 0);
  for (const auto& block : fn.blocks) {
    for (const auto& instr : block.instrs) {
      if (removable(instr)) ++first[instr.dst->id + 2];
    }
  }
  std::partial_sum(first.begin(), first.end(), first.begin());
  std::vector<const Instr*> defs(first.back());
  for (const auto& block : fn.blocks) {
    for (const auto& instr : block.instrs) {
      if (removable(instr)) defs[first[instr.dst->id + 1]++] = &instr;
    }
  }
  // A register's use count reaches zero at most once, so each definition
  // is counted once.
  std::vector<std::uint32_t> work;
  for (std::uint32_t r = 0; r < uses.size(); ++r) {
    if (uses[r] == 0) work.push_back(r);
  }
  int dead = 0;
  while (!work.empty()) {
    const std::uint32_t r = work.back();
    work.pop_back();
    for (std::uint32_t d = first[r]; d < first[r + 1]; ++d, ++dead) {
      for (Reg a : defs[d]->args) {
        if (--uses[a.id] == 0) work.push_back(a.id);
      }
    }
  }
  return dead;
}

}  // namespace

int dead_code_elimination(ir::Function& fn) {
  std::vector<std::uint32_t> uses(fn.reg_types.size(), 0);
  for (const auto& block : fn.blocks) {
    for (const auto& instr : block.instrs) {
      for (Reg a : instr.args) ++uses[a.id];
    }
  }
  const auto unused = [&](const Instr& instr) {
    return removable(instr) && uses[instr.dst->id] == 0;
  };
  const bool any_unused =
      std::any_of(fn.blocks.begin(), fn.blocks.end(), [&](const ir::BasicBlock& block) {
        return std::any_of(block.instrs.begin(), block.instrs.end(), unused);
      });
  const int removed = any_unused ? count_dead(fn, uses) : 0;
  for (auto& block : fn.blocks) {
    if (removed != 0) std::erase_if(block.instrs, unused);
    // Memoized modules keep their vectors: drop the slack that merges and
    // hoists leave, as the rescan loop's copies did (no-op when tight).
    block.instrs.shrink_to_fit();
  }
  return removed;
}

void compact_blocks(ir::Function& fn, const std::vector<bool>& keep) {
  std::vector<BlockId> remap(fn.blocks.size(), ir::kNoBlock);
  std::vector<ir::BasicBlock> new_blocks;
  for (std::size_t b = 0; b < fn.blocks.size(); ++b) {
    if (!keep[b]) continue;
    remap[b] = static_cast<BlockId>(new_blocks.size());
    new_blocks.push_back(std::move(fn.blocks[b]));
  }
  for (auto& block : new_blocks) {
    ir::for_each_target(block.terminator(), [&](BlockId& t) { t = remap[t]; });
  }
  fn.blocks = std::move(new_blocks);
}

int simplify_cfg(ir::Function& fn) {
  CfgSimplifier simplifier(fn);
  const int eliminated = simplifier.run();
  simplifier.compact();
  return eliminated;
}

int CfgSimplifier::run() {
  died_ = 0;
  for (const BlockId b : edited_) edited_marks_[b] = 0;
  for (const BlockId b : touched_) touched_marks_[b] = 0;
  edited_.clear();
  touched_.clear();
  const bool first = !started_;
  if (first) start();
  // Where forwarding can run into its hop limit, its result depends on
  // the exact order of rounds, so the run repeats the rounds literally.
  if ((first || emptied_) && long_trivial_chain()) {
    // The rounds forward every branch themselves.
    for (const BlockId b : forward_work_) forward_queued_[b] = 0;
    forward_work_.clear();
    while (restart_round()) {
    }
    rebuild_preds();
    for (std::size_t b = 0; b < dead_.size(); ++b) {
      if (dead_[b]) continue;
      mark(edited_, edited_marks_, static_cast<BlockId>(b));
      mark(touched_, touched_marks_, static_cast<BlockId>(b));
    }
  } else {
    if (first) {
      // After one full round every branch points at the end of its chain,
      // where later rounds would leave it.  A merge keeps it there: the
      // merged block takes over its successor's forwarded branch.  Only
      // note_emptied() makes new forwarding work.
      (void)restart_round();
      rebuild_preds();
      for (std::size_t b = 0; b < dead_.size(); ++b) {
        if (mergeable(static_cast<BlockId>(b))) queue_merge(static_cast<BlockId>(b));
      }
    }
    drain_forwarding();
    // Merges commute, and each spends one id on a shell that is dropped,
    // so their order is free: each chain is absorbed into its first
    // block, moving every instruction once.
    while (!merge_work_.empty()) {
      BlockId block = merge_work_.back();
      merge_work_.pop_back();
      merge_queued_[block] = 0;
      if (!mergeable(block)) continue;
      block = chain_head(block);
      while (mergeable(block)) merge(block);
    }
  }
  emptied_ = false;
  return died_;
}

void CfgSimplifier::start() {
  started_ = true;
  const std::size_t nblocks = fn_.blocks.size();
  dead_.assign(nblocks, 0);
  forward_queued_.assign(nblocks, 0);
  merge_queued_.assign(nblocks, 0);
  edited_marks_.assign(nblocks, 0);
  touched_marks_.assign(nblocks, 0);
}

bool CfgSimplifier::restart_round() {
  // Forward every branch, make the lowest merge with predecessors counted
  // over every block still present (the first round counts unreachable
  // ones too), then drop what became unreachable.  When that merge joins
  // two unreachable blocks it still spends an id, and every later id
  // depends on it.
  const std::size_t nblocks = fn_.blocks.size();
  bool changed = false;
  for (std::size_t b = 0; b < nblocks; ++b) {
    if (!dead_[b]) changed |= forward_targets(static_cast<BlockId>(b));
  }
  counts_.assign(nblocks, 0);
  for (std::size_t b = 0; b < nblocks; ++b) {
    if (dead_[b]) continue;
    for (const BlockId s : fn_.blocks[b].successors()) ++counts_[s];
  }
  for (std::size_t b = 0; b < nblocks; ++b) {
    if (dead_[b]) continue;
    const Instr& term = fn_.blocks[b].terminator();
    if (term.op != Opcode::Br) continue;
    const BlockId succ = term.target0;
    if (succ == b || succ == 0 || counts_[succ] != 1) continue;
    splice(static_cast<BlockId>(b), succ);
    changed = true;
    break;
  }
  // Reachability over the present blocks; counts_ becomes the visit mark.
  std::fill(counts_.begin(), counts_.end(), 0);
  batch_.clear();
  if (nblocks != 0) {
    counts_[0] = 1;
    batch_.push_back(0);
  }
  while (!batch_.empty()) {
    const BlockId b = batch_.back();
    batch_.pop_back();
    for (const BlockId s : fn_.blocks[b].successors()) {
      if (counts_[s]) continue;
      counts_[s] = 1;
      batch_.push_back(s);
    }
  }
  for (std::size_t b = 0; b < nblocks; ++b) {
    if (dead_[b] || counts_[b]) continue;
    dead_[b] = 1;
    ++died_;
    changed = true;
  }
  return changed;
}

void CfgSimplifier::rebuild_preds() {
  preds_.resize(fn_.blocks.size());
  for (auto& ps : preds_) ps.clear();
  for (std::size_t b = 0; b < fn_.blocks.size(); ++b) {
    if (dead_[b]) continue;
    for (const BlockId s : fn_.blocks[b].successors()) {
      preds_[s].push_back(static_cast<BlockId>(b));
    }
  }
}

bool CfgSimplifier::long_trivial_chain() {
  // counts_[b]: hops forward() takes from b, once known; kOpen while b's
  // chain is being walked (a cycle of trivial blocks).
  constexpr std::uint32_t kUnknown = 0xffffffffu;
  constexpr std::uint32_t kOpen = 0xfffffffeu;
  const std::size_t nblocks = fn_.blocks.size();
  counts_.assign(nblocks, kUnknown);
  const auto next_of = [&](BlockId b) {
    const auto& block = fn_.blocks[b];
    const bool trivial = only_br(block) && block.instrs[0].target0 != b;
    return trivial ? block.instrs[0].target0 : ir::kNoBlock;
  };
  for (std::size_t start = 0; start < nblocks; ++start) {
    if (dead_[start]) continue;
    batch_.clear();
    BlockId b = static_cast<BlockId>(start);
    while (counts_[b] == kUnknown) {
      const BlockId next = next_of(b);
      if (next == ir::kNoBlock) {
        counts_[b] = 0;
        break;
      }
      counts_[b] = kOpen;
      batch_.push_back(b);
      b = next;
    }
    if (counts_[b] == kOpen) return true;
    std::uint32_t hops = counts_[b];
    for (auto it = batch_.rbegin(); it != batch_.rend(); ++it) {
      counts_[*it] = ++hops;
    }
    if (hops >= 64) return true;
  }
  return false;
}

void CfgSimplifier::note_emptied(BlockId block) {
  if (dead_[block] || !only_br(fn_.blocks[block])) return;
  emptied_ = true;
  for (const BlockId p : preds_[block]) queue_forward(p);
}

void CfgSimplifier::compact() {
  if (!started_ || std::find(dead_.begin(), dead_.end(), 1) == dead_.end()) return;
  std::vector<bool> keep(dead_.size());
  for (std::size_t b = 0; b < dead_.size(); ++b) keep[b] = dead_[b] == 0;
  compact_blocks(fn_, keep);
  // Every block left is live; the predecessor lists are rebuilt under the
  // new numbering, so later runs continue from here.
  const std::size_t nblocks = fn_.blocks.size();
  for (auto* flags : {&dead_, &forward_queued_, &merge_queued_, &edited_marks_,
                      &touched_marks_}) {
    flags->assign(nblocks, 0);
  }
  edited_.clear();
  touched_.clear();
  rebuild_preds();
}

BlockId CfgSimplifier::forward(BlockId target) const {
  // Follow chains of trivial blocks, guarding against cycles.
  BlockId current = target;
  int hops = 0;
  while (hops++ < 64) {
    const auto& t = fn_.blocks[current];
    if (!only_br(t)) break;
    const BlockId next = t.instrs[0].target0;
    if (next == current) break;
    current = next;
  }
  return current;
}

bool CfgSimplifier::forward_targets(BlockId block) {
  auto& term = fn_.blocks[block].terminator();
  if (term.op == Opcode::Br) {
    const BlockId fwd = forward(term.target0);
    if (fwd == term.target0 || fwd == block) return false;
    term.target0 = fwd;
    return true;
  }
  if (term.op == Opcode::CondBr) {
    const BlockId fwd0 = forward(term.target0);
    const BlockId fwd1 = forward(term.target1);
    if (fwd0 == term.target0 && fwd1 == term.target1) return false;
    term.target0 = fwd0;
    term.target1 = fwd1;
    return true;
  }
  return false;
}

void CfgSimplifier::drain_forwarding() {
  // In index order, as a full pass over the blocks would meet them.  With
  // no long chains of trivial blocks every forward reaches its chain's
  // end, so a forwarded branch stays where it is.
  while (!forward_work_.empty()) {
    batch_.swap(forward_work_);
    forward_work_.clear();
    std::sort(batch_.begin(), batch_.end());
    for (const BlockId b : batch_) forward_queued_[b] = 0;
    for (const BlockId b : batch_) {
      if (!dead_[b]) retarget(b);
    }
  }
}

void CfgSimplifier::retarget(BlockId block) {
  const ir::Successors before = fn_.blocks[block].successors();
  if (!forward_targets(block)) return;
  const ir::Successors after = fn_.blocks[block].successors();
  mark(edited_, edited_marks_, block);
  mark(touched_, touched_marks_, block);
  const auto has = [](const ir::Successors& succs, BlockId b) {
    return std::find(succs.begin(), succs.end(), b) != succs.end();
  };
  // New edges first: an old target that dies may lead only to a new one.
  for (const BlockId s : after) {
    if (has(before, s)) continue;
    preds_[s].push_back(block);
    mark(touched_, touched_marks_, s);
  }
  for (const BlockId s : before) {
    if (!has(after, s)) lose_pred(s, block);
  }
  queue_merge(block);
}

void CfgSimplifier::lose_pred(BlockId block, BlockId pred) {
  lost_.push_back({block, pred});
  while (!lost_.empty()) {
    const auto [b, p] = lost_.back();
    lost_.pop_back();
    auto& ps = preds_[b];
    *std::find(ps.begin(), ps.end(), p) = ps.back();
    ps.pop_back();
    mark(touched_, touched_marks_, b);
    if (ps.size() == 1) queue_merge(ps[0]);
    if (!ps.empty() || b == 0) continue;
    // Unreachable now: it dies, and its successors lose it.
    dead_[b] = 1;
    ++died_;
    for (const BlockId s : fn_.blocks[b].successors()) lost_.push_back({s, b});
  }
}

bool CfgSimplifier::mergeable(BlockId block) const {
  if (dead_[block]) return false;
  const Instr& term = fn_.blocks[block].terminator();
  if (term.op != Opcode::Br) return false;
  const BlockId succ = term.target0;
  return succ != block && succ != 0 && preds_[succ].size() == 1;
}

void CfgSimplifier::merge(BlockId block) {
  const BlockId succ = fn_.blocks[block].terminator().target0;
  splice(block, succ);
  dead_[succ] = 1;
  ++died_;
  preds_[succ].clear();
  // The successor's successors now come from `block`.
  for (const BlockId s : fn_.blocks[block].successors()) {
    *std::find(preds_[s].begin(), preds_[s].end(), succ) = block;
    mark(touched_, touched_marks_, s);
  }
  mark(edited_, edited_marks_, block);
  mark(touched_, touched_marks_, block);
}

BlockId CfgSimplifier::chain_head(BlockId block) const {
  // Up while the predecessor would absorb the block.  A live cycle of
  // such links would be unreachable unless it held the entry, which is
  // never absorbed.
  while (block != 0 && preds_[block].size() == 1) {
    const BlockId pred = preds_[block][0];
    if (pred == block || fn_.blocks[pred].terminator().op != Opcode::Br) break;
    block = pred;
  }
  return block;
}

void CfgSimplifier::splice(BlockId block, BlockId succ) {
  // The successor's instructions replace our Br; the successor is left as
  // an unreachable one-branch shell holding one fresh id.
  auto& instrs = fn_.blocks[block].instrs;
  auto& absorbed = fn_.blocks[succ].instrs;
  instrs.pop_back();
  instrs.insert(instrs.end(), std::make_move_iterator(absorbed.begin()),
                std::make_move_iterator(absorbed.end()));
  absorbed.clear();
  absorbed.push_back(ir::make::br(block));
  fn_.assign_id(absorbed.back());
}

void CfgSimplifier::queue_forward(BlockId block) {
  if (forward_queued_[block]) return;
  forward_queued_[block] = 1;
  forward_work_.push_back(block);
}

void CfgSimplifier::queue_merge(BlockId block) {
  if (merge_queued_[block]) return;
  merge_queued_[block] = 1;
  merge_work_.push_back(block);
}

void CfgSimplifier::mark(std::vector<BlockId>& list, std::vector<char>& marks,
                         BlockId block) {
  if (marks[block]) return;
  marks[block] = 1;
  list.push_back(block);
}

namespace {

/// Blocks holding only a `br`, the ones simplify_cfg forwards through.
[[nodiscard]] std::size_t trivial_blocks(const ir::Function& fn) {
  return static_cast<std::size_t>(std::count_if(fn.blocks.begin(), fn.blocks.end(), only_br));
}

}  // namespace

void canonicalize(ir::Module& module) {
  for (auto& fn : module.functions) {
    // Each round runs simplify_cfg, LVN and DCE, and the loop stops after
    // a round that reports no work.  A pass is skipped while it is settled:
    // its output is a fixpoint of itself, and nothing it reads has changed
    // since, so running it would change nothing and report 0.
    // - simplify_cfg reads block sizes, and terminators with their
    //   targets.  LVN changes neither; DCE changes them only where it
    //   leaves a block holding just its `br`.  When simplify_cfg reports
    //   0, no block died, so at most branch targets moved.
    // - LVN reads no branch target.  A merge changes a block, and so does
    //   a DCE removal: a dead recomputation can have taken an expression
    //   over from a holder that holds its value again further down.
    // - DCE reads no branch target.  A change by LVN or a dropped block
    //   can leave more definitions unread.
    bool cfg_settled = false;
    bool values_settled = false;
    bool dead_settled = false;
    for (int round = 0; round < 8; ++round) {
      int work = 0;
      if (!cfg_settled) {
        const int died = simplify_cfg(fn);
        work += died;
        cfg_settled = true;
        if (died != 0) values_settled = dead_settled = false;
      }
      if (!values_settled) {
        const ValueNumbering lvn = number_values(fn);
        work += lvn.rewritten;
        values_settled = true;
        if (lvn.changed) dead_settled = false;
      }
      if (!dead_settled) {
        const std::size_t trivial = trivial_blocks(fn);
        const int removed = dead_code_elimination(fn);
        work += removed;
        dead_settled = true;
        if (removed != 0) {
          values_settled = false;
          if (trivial_blocks(fn) != trivial) cfg_settled = false;
        }
      }
      if (work == 0) break;
    }
  }
}

}  // namespace asipfb::opt
