// Natural loop discovery from back edges.
#pragma once

#include <vector>

#include "ir/function.hpp"

namespace asipfb::analysis {

/// One natural loop: header plus the set of blocks on paths from latches
/// back to the header.
struct NaturalLoop {
  ir::BlockId header = ir::kNoBlock;
  std::vector<ir::BlockId> latches;  ///< Blocks with a back edge to header.
  std::vector<ir::BlockId> blocks;   ///< All loop blocks including header, ascending.
};

/// Finds all natural loops (one per header; back edges to the same header
/// are merged).  Loops are sorted by ascending block count with an
/// unstable sort: a nested loop comes before the loops around it, but a
/// small outer loop can come before a larger unrelated inner one.
[[nodiscard]] std::vector<NaturalLoop> find_loops(const ir::Function& fn);

}  // namespace asipfb::analysis
