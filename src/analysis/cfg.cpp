#include "analysis/cfg.hpp"

#include <algorithm>

namespace asipfb::analysis {

using ir::BlockId;

Preds predecessors(const ir::Function& fn) {
  Preds preds(fn.blocks.size());
  for (std::size_t b = 0; b < fn.blocks.size(); ++b) {
    for (BlockId s : fn.blocks[b].successors()) preds[s].push_back(static_cast<BlockId>(b));
  }
  return preds;
}

namespace {

void post_order_visit(const ir::Function& fn, BlockId block,
                      std::vector<bool>& visited, std::vector<BlockId>& order) {
  visited[block] = true;
  for (BlockId s : fn.blocks[block].successors()) {
    if (!visited[s]) post_order_visit(fn, s, visited, order);
  }
  order.push_back(block);
}

}  // namespace

std::vector<BlockId> reverse_post_order(const ir::Function& fn) {
  if (fn.blocks.empty()) return {};
  std::vector<bool> visited(fn.blocks.size(), false);
  std::vector<BlockId> order;
  order.reserve(fn.blocks.size());
  post_order_visit(fn, 0, visited, order);
  std::reverse(order.begin(), order.end());
  return order;
}

std::vector<bool> reachable_blocks(const ir::Function& fn) {
  std::vector<bool> visited(fn.blocks.size(), false);
  if (fn.blocks.empty()) return visited;
  std::vector<BlockId> work{0};
  visited[0] = true;
  while (!work.empty()) {
    const BlockId b = work.back();
    work.pop_back();
    for (BlockId s : fn.blocks[b].successors()) {
      if (!visited[s]) {
        visited[s] = true;
        work.push_back(s);
      }
    }
  }
  return visited;
}

}  // namespace asipfb::analysis
