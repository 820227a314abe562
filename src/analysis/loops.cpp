#include "analysis/loops.hpp"

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <utility>

#include "analysis/cfg.hpp"
#include "analysis/dominators.hpp"

namespace asipfb::analysis {

using ir::BlockId;

std::vector<NaturalLoop> find_loops(const ir::Function& fn) {
  const auto preds = predecessors(fn);
  const DominatorTree dom(fn, preds);

  // Collect back edges (tail -> header where header dominates tail),
  // grouped by header in ascending order (a counting sort); each
  // header's latches keep ascending tail order.
  const std::size_t nblocks = fn.blocks.size();
  std::vector<std::pair<BlockId, BlockId>> back_edges;  // (header, latch)
  for (std::size_t b = 0; b < nblocks; ++b) {
    for (BlockId s : fn.blocks[b].successors()) {
      if (dom.dominates(s, static_cast<BlockId>(b))) {
        back_edges.emplace_back(s, static_cast<BlockId>(b));
      }
    }
  }
  // Block h is a loop header exactly when first[h] != first[h + 1].
  std::vector<std::uint32_t> first(nblocks + 1, 0);
  for (const auto& edge : back_edges) ++first[edge.first + 1];
  std::partial_sum(first.begin(), first.end(), first.begin());
  std::vector<BlockId> latches(back_edges.size());
  {
    std::vector<std::uint32_t> next(first.begin(), first.end() - 1);
    for (const auto& [header, latch] : back_edges) latches[next[header]++] = latch;
  }

  // in_loop[b] is the number of the last loop whose body holds b, so the
  // marks are never cleared.
  std::vector<std::uint32_t> in_loop(nblocks, 0);
  std::vector<BlockId> work;
  std::vector<NaturalLoop> loops;
  for (std::size_t header = 0; header < nblocks; ++header) {
    if (first[header] == first[header + 1]) continue;
    NaturalLoop loop;
    loop.header = static_cast<BlockId>(header);
    loop.latches.assign(latches.begin() + first[header], latches.begin() + first[header + 1]);
    // Natural loop body: reverse reachability from latches without passing
    // through the header.
    const auto mark = static_cast<std::uint32_t>(loops.size() + 1);
    const auto add = [&](BlockId b) {
      if (in_loop[b] == mark) return false;
      in_loop[b] = mark;
      loop.blocks.push_back(b);
      return true;
    };
    add(loop.header);
    for (BlockId l : loop.latches) {
      if (add(l)) work.push_back(l);
    }
    while (!work.empty()) {
      const BlockId b = work.back();
      work.pop_back();
      for (BlockId p : preds[b]) {
        if (dom.idom(p) == ir::kNoBlock) continue;  // Unreachable.
        if (add(p)) work.push_back(p);
      }
    }
    std::sort(loop.blocks.begin(), loop.blocks.end());
    loops.push_back(std::move(loop));
  }

  std::sort(loops.begin(), loops.end(), [](const NaturalLoop& a, const NaturalLoop& b) {
    return a.blocks.size() < b.blocks.size();
  });
  return loops;
}

}  // namespace asipfb::analysis
