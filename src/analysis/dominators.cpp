#include "analysis/dominators.hpp"

namespace asipfb::analysis {

using ir::BlockId;

DominatorTree::DominatorTree(const ir::Function& fn) : DominatorTree(fn, predecessors(fn)) {}

DominatorTree::DominatorTree(const ir::Function& fn, const Preds& preds)
    : idom_(fn.blocks.size(), ir::kNoBlock), rpo_index_(fn.blocks.size(), -1) {
  const auto rpo = reverse_post_order(fn);
  if (rpo.empty()) return;
  for (std::size_t i = 0; i < rpo.size(); ++i) rpo_index_[rpo[i]] = static_cast<int>(i);

  const BlockId entry = rpo.front();
  idom_[entry] = entry;

  auto intersect = [&](BlockId a, BlockId b) {
    while (a != b) {
      while (rpo_index_[a] > rpo_index_[b]) a = idom_[a];
      while (rpo_index_[b] > rpo_index_[a]) b = idom_[b];
    }
    return a;
  };

  bool changed = true;
  while (changed) {
    changed = false;
    for (BlockId b : rpo) {
      if (b == entry) continue;
      BlockId new_idom = ir::kNoBlock;
      for (BlockId p : preds[b]) {
        if (rpo_index_[p] < 0 || idom_[p] == ir::kNoBlock) continue;
        new_idom = new_idom == ir::kNoBlock ? p : intersect(p, new_idom);
      }
      if (new_idom != ir::kNoBlock && idom_[b] != new_idom) {
        idom_[b] = new_idom;
        changed = true;
      }
    }
  }
}

bool DominatorTree::dominates(BlockId a, BlockId b) const {
  if (a >= idom_.size() || b >= idom_.size() || rpo_index_[a] < 0 || rpo_index_[b] < 0) {
    return false;
  }
  // The RPO index strictly falls along an idom chain, and a dominator
  // precedes every block it dominates, so `a` cannot appear once the walk
  // is at or below its index.  The entry (index 0) ends every walk.
  BlockId runner = b;
  while (rpo_index_[runner] > rpo_index_[a]) runner = idom_[runner];
  return runner == a;
}

}  // namespace asipfb::analysis
