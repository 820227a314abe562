#include "analysis/traces.hpp"

#include <algorithm>

namespace asipfb::analysis {

using ir::BlockId;

std::vector<std::vector<BlockId>> form_traces(const ir::Function& fn) {
  const std::size_t nblocks = fn.blocks.size();

  std::vector<std::uint64_t> counts(nblocks);
  for (std::size_t b = 0; b < nblocks; ++b) counts[b] = fn.blocks[b].exec_count();
  auto count_of = [&](BlockId b) { return counts[b]; };

  // Most frequent successor and predecessor of each block, self loops
  // aside, in one pass over the edges.  A tie keeps the first successor in
  // successor order and the lowest predecessor id, since blocks are
  // visited in id order.
  std::vector<BlockId> best_succ(nblocks, ir::kNoBlock);
  std::vector<BlockId> best_pred(nblocks, ir::kNoBlock);
  for (std::size_t i = 0; i < nblocks; ++i) {
    const auto b = static_cast<BlockId>(i);
    for (BlockId s : fn.blocks[b].successors()) {
      if (s == b) continue;
      if (best_succ[b] == ir::kNoBlock || count_of(s) > count_of(best_succ[b])) {
        best_succ[b] = s;
      }
      if (best_pred[s] == ir::kNoBlock || count_of(b) > count_of(best_pred[s])) {
        best_pred[s] = b;
      }
    }
  }

  // Seeds in descending execution count (stable by id).
  std::vector<BlockId> seeds(nblocks);
  for (std::size_t b = 0; b < nblocks; ++b) seeds[b] = static_cast<BlockId>(b);
  std::stable_sort(seeds.begin(), seeds.end(), [&](BlockId a, BlockId b) {
    return count_of(a) > count_of(b);
  });

  std::vector<bool> visited(nblocks, false);
  std::vector<std::vector<BlockId>> traces;
  std::vector<BlockId> head;  // Backward growth, nearest the seed first.

  for (BlockId seed : seeds) {
    if (visited[seed]) continue;
    visited[seed] = true;
    std::vector<BlockId> trace{seed};
    if (count_of(seed) > 0) {
      // Grow forward along mutual-most-likely edges.
      for (BlockId tail = seed;;) {
        const BlockId next = best_succ[tail];
        if (next == ir::kNoBlock || visited[next] || count_of(next) == 0) break;
        if (best_pred[next] != tail) break;
        visited[next] = true;
        trace.push_back(next);
        tail = next;
      }
      // Grow backward from the seed, then put that run in front once.
      head.clear();
      for (BlockId first = seed;;) {
        const BlockId prev = best_pred[first];
        if (prev == ir::kNoBlock || visited[prev] || count_of(prev) == 0) break;
        if (best_succ[prev] != first) break;
        visited[prev] = true;
        head.push_back(prev);
        first = prev;
      }
      trace.insert(trace.begin(), head.rbegin(), head.rend());
    }
    traces.push_back(std::move(trace));
  }
  return traces;
}

}  // namespace asipfb::analysis
