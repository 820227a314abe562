// Per-block register liveness (backward dataflow) over dense bitsets.
//
// Used by percolation scheduling to validate speculative motion (an
// instruction may only be hoisted above a branch when its destination is not
// live along the branch's other edge) and by register renaming to decide
// which repair copies a block needs.
//
// Each block stores three bitsets of 64-bit words in one flat array: live-in,
// upward-exposed uses and definitions.  Live-out is not stored; it is the
// union of the successors' live-in and is derived on demand.  The solver is
// a worklist from the all-empty start: a block's live-in is
// `use | (out & ~def)`, and its predecessors are queued whenever it changes,
// so the result is the least fixpoint.
//
// refresh() keeps one Liveness valid across edits: it re-reads the
// instructions and successors of the touched blocks and re-solves from
// them, starting from the current solution.  Growth is always exact.  A
// shrink is exact unless the dropped register was carried around a cycle,
// where the old bits keep each other alive.  A percolation hoist never
// needs such a shrink, and the CFG edits of opt::CfgSimplifier (forwarding
// a branch past an empty block, merging a straight-line pair) change no
// live block's live-in at all (see opt/percolate.cpp).  That is why
// percolation solves liveness once per percolate() call instead of once
// per pass or per move.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <span>
#include <vector>

#include "analysis/cfg.hpp"
#include "ir/function.hpp"

namespace asipfb::analysis {

class Liveness {
public:
  explicit Liveness(const ir::Function& fn);
  /// As above, reusing the caller's `preds` (analysis::predecessors(fn)).
  Liveness(const ir::Function& fn, const Preds& preds);

  /// True when `reg` is live on entry to `block`.
  [[nodiscard]] bool live_in(ir::BlockId block, ir::Reg reg) const {
    return test(row(block, kIn), reg);
  }

  /// True when `reg` is live on exit from `block`.
  [[nodiscard]] bool live_out(ir::BlockId block, ir::Reg reg) const {
    for (const ir::BlockId s : succs_[block]) {
      if (live_in(s, reg)) return true;
    }
    return false;
  }

  /// Re-solves after the instructions or terminator targets of `touched`
  /// changed.  The register count must be unchanged, and `preds` must be
  /// the predecessor lists of the current CFG; a block that no live block
  /// branches to any more may keep a stale answer.  Touched blocks are
  /// solved first, in the order given.
  void refresh(const ir::Function& fn, const Preds& preds,
               std::span<const ir::BlockId> touched);
  void refresh(const ir::Function& fn, const Preds& preds,
               std::initializer_list<ir::BlockId> touched) {
    refresh(fn, preds, {touched.begin(), touched.size()});
  }

private:
  /// Offsets of the three per-block bitsets within a block's record.
  enum Part : std::size_t { kIn = 0, kUse = 1, kDef = 2 };

  [[nodiscard]] const std::uint64_t* row(ir::BlockId block, Part part) const {
    return bits_.data() + (std::size_t{block} * 3 + part) * words_;
  }
  [[nodiscard]] std::uint64_t* row(ir::BlockId block, Part part) {
    return bits_.data() + (std::size_t{block} * 3 + part) * words_;
  }
  [[nodiscard]] static bool test(const std::uint64_t* bits, ir::Reg reg) {
    return (bits[reg.id / 64] >> (reg.id % 64)) & 1u;
  }
  static void add(std::uint64_t* bits, ir::Reg reg) {
    bits[reg.id / 64] |= std::uint64_t{1} << (reg.id % 64);
  }

  /// Recomputes the use and def sets of `block` from its instructions.
  void summarize(const ir::BasicBlock& bb, ir::BlockId block);
  /// Drains `work_`, re-evaluating each block and queueing the
  /// predecessors of every block whose live-in changed.
  void solve(const Preds& preds);

  std::size_t words_ = 0;                ///< 64-bit words per bitset.
  std::vector<std::uint64_t> bits_;      ///< [in | use | def] per block.
  std::vector<ir::Successors> succs_;    ///< Per block, as last read.
  std::vector<ir::BlockId> work_;        ///< Worklist (a stack).
  std::vector<char> queued_;             ///< Block is on `work_`.
};

}  // namespace asipfb::analysis
