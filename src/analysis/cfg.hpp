// Control-flow graph utilities over ir::Function.
#pragma once

#include <array>
#include <vector>

#include "ir/function.hpp"

namespace asipfb::analysis {

/// BasicBlock::successors() without allocating: the distinct targets of
/// the terminator, padded with kNoBlock.
[[nodiscard]] inline std::array<ir::BlockId, 2> successor_pair(const ir::BasicBlock& bb) {
  if (bb.instrs.empty()) return {ir::kNoBlock, ir::kNoBlock};
  const ir::Instr& t = bb.terminator();
  switch (t.op) {
    case ir::Opcode::Br:
      return {t.target0, ir::kNoBlock};
    case ir::Opcode::CondBr:
      return {t.target0, t.target0 == t.target1 ? ir::kNoBlock : t.target1};
    default:
      return {ir::kNoBlock, ir::kNoBlock};
  }
}

/// Predecessor lists, one per block.
[[nodiscard]] std::vector<std::vector<ir::BlockId>> predecessors(const ir::Function& fn);

/// Blocks in reverse post-order from the entry (unreachable blocks excluded).
[[nodiscard]] std::vector<ir::BlockId> reverse_post_order(const ir::Function& fn);

/// True for blocks reachable from the entry.
[[nodiscard]] std::vector<bool> reachable_blocks(const ir::Function& fn);

}  // namespace asipfb::analysis
