// Test-preserving loop unrolling (the pipelining enabler).
//
// Each selected innermost loop's body gets `factor - 1` new copies
// (`factor` in all) with the original exit test kept between copies, and
// the back edge threaded original -> copy1 -> ... -> original.  This is
// exactly semantics-preserving (every iteration is still guarded) and gives
// percolation scheduling the room to move operations of iteration i+1 up
// beside iteration i — the paper's "loop pipelining" effect that exposes
// cross-iteration chains such as add-multiply.
#pragma once

#include "ir/function.hpp"

namespace asipfb::opt {

struct UnrollOptions {
  int factor = 2;                    ///< Total copies of the body (>= 2).
  std::size_t max_loop_instrs = 200; ///< Skip loops larger than this.
};

/// Unrolls eligible innermost loops; profile counts are split across copies
/// so the module's total dynamic op count is preserved.  Returns the number
/// of loops unrolled.
int unroll_loops(ir::Function& fn, const UnrollOptions& options = {});

}  // namespace asipfb::opt
