#include "analysis/loops.hpp"

#include <algorithm>
#include <map>
#include <set>

#include "analysis/cfg.hpp"
#include "analysis/dominators.hpp"

namespace asipfb::analysis {

using ir::BlockId;

std::vector<NaturalLoop> find_loops(const ir::Function& fn) {
  const DominatorTree dom(fn);
  const auto preds = predecessors(fn);
  const auto reachable = reachable_blocks(fn);

  // Collect back edges (tail -> header where header dominates tail).
  std::map<BlockId, std::vector<BlockId>> header_to_latches;
  for (std::size_t b = 0; b < fn.blocks.size(); ++b) {
    if (!reachable[b]) continue;
    for (BlockId s : successor_pair(fn.blocks[b])) {
      if (s != ir::kNoBlock && dom.dominates(s, static_cast<BlockId>(b))) {
        header_to_latches[s].push_back(static_cast<BlockId>(b));
      }
    }
  }

  std::vector<NaturalLoop> loops;
  for (const auto& [header, latches] : header_to_latches) {
    NaturalLoop loop;
    loop.header = header;
    loop.latches = latches;
    // Natural loop body: reverse reachability from latches without passing
    // through the header.
    std::set<BlockId> body{header};
    std::vector<BlockId> work;
    for (BlockId l : latches) {
      if (body.insert(l).second) work.push_back(l);
    }
    while (!work.empty()) {
      const BlockId b = work.back();
      work.pop_back();
      for (BlockId p : preds[b]) {
        if (!reachable[p]) continue;
        if (body.insert(p).second) work.push_back(p);
      }
    }
    loop.blocks.assign(body.begin(), body.end());
    loops.push_back(std::move(loop));
  }

  // Nesting depth: count how many other loops contain this header.
  for (auto& loop : loops) {
    loop.depth = 1;
    for (const auto& other : loops) {
      if (other.header != loop.header && other.contains(loop.header)) {
        ++loop.depth;
      }
    }
  }

  std::sort(loops.begin(), loops.end(), [](const NaturalLoop& a, const NaturalLoop& b) {
    return a.blocks.size() < b.blocks.size();
  });
  return loops;
}

}  // namespace asipfb::analysis
