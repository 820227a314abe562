#include "opt/percolate.hpp"

#include <algorithm>
#include <vector>

#include "analysis/cfg.hpp"
#include "analysis/liveness.hpp"
#include "opt/cleanup.hpp"

namespace asipfb::opt {

using ir::BlockId;
using ir::Instr;
using ir::Opcode;
using ir::Reg;

namespace {

[[nodiscard]] bool is_load(const Instr& instr) {
  return instr.op == Opcode::Load || instr.op == Opcode::FLoad;
}

[[nodiscard]] bool is_memory_barrier(const Instr& instr) {
  return instr.op == Opcode::Store || instr.op == Opcode::FStore ||
         instr.op == Opcode::Call;
}

/// Computes the closed set of instructions of `block` that can legally move
/// together to the end of its unique predecessor `pred` (above that block's
/// conditional branch).  See percolate.hpp for the motion model.
std::vector<bool> movable_set(const ir::BasicBlock& block,
                              const ir::BasicBlock& pred,
                              const std::vector<BlockId>& other_succs,
                              const analysis::Liveness& liveness,
                              const PercolationOptions& options) {
  const std::size_t n = block.instrs.size();
  std::vector<bool> movable(n, false);

  // Initial per-op eligibility.
  bool barrier_before = false;
  for (std::size_t i = 0; i < n; ++i) {
    const Instr& instr = block.instrs[i];
    if (instr.is_terminator()) break;
    const bool eligible =
        ir::speculable(instr.op) || (options.speculate_loads && is_load(instr));
    bool ok = eligible && instr.dst.has_value();
    // Loads may not cross stores/calls that stay behind (stores never move).
    if (ok && is_load(instr) && barrier_before) ok = false;
    // The predecessor's branch must not read the destination's old value.
    if (ok) {
      for (Reg a : pred.terminator().args) {
        if (a.id == instr.dst->id) ok = false;
      }
    }
    // Speculation: the destination must be dead along the branch's other
    // edges (this is what blocks un-renamed accumulators, and what register
    // renaming unlocks).
    if (ok) {
      for (BlockId s : other_succs) {
        if (liveness.live_in(s, *instr.dst)) ok = false;
      }
    }
    movable[i] = ok;
    if (is_memory_barrier(instr)) barrier_before = true;
  }

  // Close the set under dependence constraints.
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t i = 0; i < n; ++i) {
      if (!movable[i]) continue;
      const Instr& instr = block.instrs[i];
      const std::uint32_t dst = instr.dst->id;
      bool ok = true;
      for (std::size_t j = 0; j < i && ok; ++j) {
        if (movable[j]) continue;  // Moves along, relative order kept.
        const Instr& earlier = block.instrs[j];
        // True dependence: an immovable earlier op defines one of our args.
        if (earlier.dst) {
          for (Reg a : instr.args) {
            if (a.id == earlier.dst->id) ok = false;
          }
          // Output dependence on an immovable def of the same register.
          if (earlier.dst->id == dst) ok = false;
        }
        // Anti dependence: an immovable earlier op reads our destination.
        for (Reg a : earlier.args) {
          if (a.id == dst) ok = false;
        }
      }
      if (ok && options.chain_preserving) {
        // Keep producer-consumer chains co-located: if any instruction that
        // stays behind reads our result, stay with it.
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

/// Hoists operations above conditional branches until no block has a
/// non-empty movable set; returns the ops moved.  Each move takes the
/// lowest-index block n whose movable set is non-empty and appends that
/// set to n's unique predecessor m, before m's branch.
///
/// Predecessors and liveness are computed once: a hoist moves only
/// non-terminators, so the CFG is unchanged, and Liveness::refresh() of n
/// and m is exact.  The moved destinations were dead on m's other edges
/// and the moved upward-exposed uses were already live into m (or defined
/// in it), so only live_in[n] and live_out[m] change, never live_in[m].
/// The inputs of movable_set() for a block are its own instructions, its
/// predecessor's terminator and the live-in of that predecessor's other
/// successors, so a move can only turn the set of n, of m, or of a sibling
/// of n (a successor of m) non-empty again; every other block keeps its
/// cached "known empty".
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
    hoisted.reserve(static_cast<std::size_t>(moved));
    kept.reserve(block.instrs.size());
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

    // Update liveness in place (n first: m's live-out reads it) and
    // rescan from the lowest block whose movable set may have changed.
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

}  // namespace

PercolationStats percolate(ir::Function& fn, const PercolationOptions& options) {
  PercolationStats stats;
  for (int pass = 0; pass < options.max_passes; ++pass) {
    ++stats.passes;
    int work = 0;

    // Straight-line merging (move-op across unconditional edges en masse).
    const int merged = simplify_cfg(fn);
    stats.blocks_merged += merged;
    work += merged;

    // Speculative hoisting above conditional branches.
    if (options.speculate) {
      const int moved = hoist_all(fn, options);
      stats.ops_hoisted += moved;
      work += moved;
    }

    if (work == 0) break;
  }
  return stats;
}

}  // namespace asipfb::opt
