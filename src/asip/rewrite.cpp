#include "asip/rewrite.hpp"

#include <algorithm>
#include <map>

namespace asipfb::asip {

RewriteStats apply_fusion(ir::Module& module, const chain::CoverageResult& coverage,
                          const std::vector<chain::Signature>& signatures) {
  // Index instructions by (function, id) for direct marking.
  std::map<chain::OpRef, ir::Instr*> index;
  for (std::size_t f = 0; f < module.functions.size(); ++f) {
    for (auto& block : module.functions[f].blocks) {
      for (auto& instr : block.instrs) {
        index[{static_cast<ir::FuncId>(f), instr.id}] = &instr;
      }
    }
  }

  auto selected = [&](const chain::Signature& sig) {
    if (signatures.empty()) return true;
    return std::find(signatures.begin(), signatures.end(), sig) != signatures.end();
  };

  RewriteStats stats;
  for (const auto& step : coverage.steps) {
    if (!selected(step.signature)) continue;
    for (const auto& match : step.matches) {
      bool all_found = true;
      for (const auto& op : match) {
        if (index.find(op) == index.end()) all_found = false;
      }
      if (!all_found || match.size() < 2) continue;
      // Only fuse when every op executes exactly as often as the leader:
      // a follower on a more-frequent path would otherwise ride free on
      // executions where the chain never formed.
      bool uniform = true;
      for (const auto& op : match) {
        if (index[op]->exec_count != index[match[0]]->exec_count) uniform = false;
      }
      if (!uniform) continue;
      // The first op is the leader (charged one cycle); the rest follow.
      for (std::size_t k = 1; k < match.size(); ++k) {
        index[match[k]]->fused_follower = true;
      }
      ++stats.occurrences_fused;
      stats.ops_fused += static_cast<int>(match.size() - 1);
    }
  }
  return stats;
}

void clear_fusion(ir::Module& module) {
  for (auto& fn : module.functions) {
    for (auto& block : fn.blocks) {
      for (auto& instr : block.instrs) instr.fused_follower = false;
    }
  }
}

}  // namespace asipfb::asip
