// Control-flow graph utilities over ir::Function.  A block's successors
// are BasicBlock::successors(), read from the opcode table; this module
// derives predecessor lists and orders from them.
#pragma once

#include <vector>

#include "ir/function.hpp"

namespace asipfb::analysis {

/// Predecessor lists, one per block.
using Preds = std::vector<std::vector<ir::BlockId>>;

/// The predecessor lists of `fn`'s CFG, each in ascending block order.
[[nodiscard]] Preds predecessors(const ir::Function& fn);

/// Blocks in reverse post-order from the entry (unreachable blocks excluded).
[[nodiscard]] std::vector<ir::BlockId> reverse_post_order(const ir::Function& fn);

/// True for blocks reachable from the entry.
[[nodiscard]] std::vector<bool> reachable_blocks(const ir::Function& fn);

}  // namespace asipfb::analysis
