#include "opt/cleanup.hpp"

#include <bit>
#include <map>
#include <tuple>
#include <vector>

#include "analysis/cfg.hpp"

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

/// Pure value computations eligible for CSE.  Loads are excluded (no memory
/// disambiguation in LVN); intrinsics are pure and included.
[[nodiscard]] bool cseable(const Instr& instr) {
  return instr.is_pure() && instr.dst.has_value();
}

}  // namespace

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

void compact_blocks(ir::Function& fn, const std::vector<bool>& keep) {
  std::vector<BlockId> remap(fn.blocks.size(), ir::kNoBlock);
  std::vector<ir::BasicBlock> new_blocks;
  for (std::size_t b = 0; b < fn.blocks.size(); ++b) {
    if (!keep[b]) continue;
    remap[b] = static_cast<BlockId>(new_blocks.size());
    new_blocks.push_back(std::move(fn.blocks[b]));
  }
  for (auto& block : new_blocks) {
    auto& term = block.terminator();
    if (term.target0 != ir::kNoBlock) term.target0 = remap[term.target0];
    if (term.target1 != ir::kNoBlock) term.target1 = remap[term.target1];
  }
  fn.blocks = std::move(new_blocks);
}

int simplify_cfg(ir::Function& fn) {
  int eliminated = 0;
  bool changed = true;
  while (changed) {
    changed = false;

    // 1. Forward branches through trivial blocks (a single Br instruction).
    for (std::size_t b = 0; b < fn.blocks.size(); ++b) {
      auto& block = fn.blocks[b];
      auto& term = block.terminator();
      auto forward = [&](BlockId target) {
        // Follow chains of trivial blocks, guarding against cycles.
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
      if (succ == 0) continue;  // Keep the entry block first.
      // Splice the successor's instructions over our Br.
      block.instrs.pop_back();
      for (auto& instr : fn.blocks[succ].instrs) {
        block.instrs.push_back(std::move(instr));
      }
      // Leave the successor as an unreachable trivial shell; removed below.
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
      int before = static_cast<int>(fn.blocks.size());
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

}  // namespace asipfb::opt
