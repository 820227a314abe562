// The "customized compiler" half of the paper's Figure 1: rewriting the
// program to use the selected chained instructions.
//
// Each committed coverage occurrence (a data-flow path p1 -> ... -> pL the
// analyzer proved fusable) is turned into one chained instruction by marking
// p2..pL as fused followers: the operations still execute — semantics are
// untouched, so differential testing still applies — but they retire in the
// leader's cycle.  Simulating the rewritten program then *measures* the
// customized ASIP's cycle count instead of estimating it.
#pragma once

#include <vector>

#include "chain/coverage.hpp"
#include "ir/function.hpp"

namespace asipfb::asip {

struct RewriteStats {
  int occurrences_fused = 0;  ///< Chained-instruction instances created.
  int ops_fused = 0;          ///< Follower operations absorbed.
};

/// Applies the coverage result's committed occurrences to `module` for the
/// given signatures (empty = all steps).  The module must be the same
/// (or an identically-built) module the coverage analysis ran on — matching
/// is by instruction id.
RewriteStats apply_fusion(ir::Module& module, const chain::CoverageResult& coverage,
                          const std::vector<chain::Signature>& signatures = {});

/// Clears all fusion marks.
void clear_fusion(ir::Module& module);

}  // namespace asipfb::asip
