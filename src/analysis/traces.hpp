// Profile-guided trace formation (Fisher-style mutual-most-likely chains).
//
// A trace is an acyclic chain of blocks b1 -> b2 -> ... where each link is
// both bi's most frequent successor and bi+1's most frequent predecessor.
// The sequence analyzer treats a trace as one linear scheduling region —
// the scope the paper's branch-and-bound search walks on the optimized
// program graph.  Back edges end traces, so an un-unrolled loop exposes at
// most one iteration, while the unrolled ("pipelined") loop places two
// iterations on one trace — exactly how pipelining exposes cross-iteration
// sequences in the paper.  Each block's most frequent successor and
// predecessor are found once, in one pass over the edges, before any
// trace grows.
#pragma once

#include <vector>

#include "ir/function.hpp"

namespace asipfb::analysis {

/// Partitions all blocks into traces (every block appears exactly once).
/// Requires profile annotations (blocks with zero counts become singleton
/// traces).  Trace order is deterministic.
[[nodiscard]] std::vector<std::vector<ir::BlockId>> form_traces(const ir::Function& fn);

}  // namespace asipfb::analysis
