// Dominator tree computation (iterative Cooper-Harvey-Kennedy algorithm).
#pragma once

#include <vector>

#include "analysis/cfg.hpp"
#include "ir/function.hpp"

namespace asipfb::analysis {

/// Immediate dominators of all reachable blocks.
class DominatorTree {
public:
  explicit DominatorTree(const ir::Function& fn);
  /// As above, reusing the caller's `preds` (analysis::predecessors(fn)).
  DominatorTree(const ir::Function& fn, const Preds& preds);

  /// Immediate dominator; the entry returns itself; unreachable blocks
  /// return ir::kNoBlock.
  [[nodiscard]] ir::BlockId idom(ir::BlockId block) const { return idom_[block]; }

  /// True when `a` dominates `b` (reflexive).  Walks `b`'s idom chain no
  /// further than `a`'s reverse-post-order position.
  [[nodiscard]] bool dominates(ir::BlockId a, ir::BlockId b) const;

private:
  std::vector<ir::BlockId> idom_;
  std::vector<int> rpo_index_;  ///< Reverse-post-order position; -1 if unreachable.
};

}  // namespace asipfb::analysis
