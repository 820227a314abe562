// Hashes that pin simulator behaviour for the recorded-baseline workflow.
//
// examples/sim_baseline_dump.cpp records these values from a run and
// tests/pipeline/suite_differential_test.cpp checks them against its
// recorded table — both must compute them identically, so the definitions
// live here and nowhere else.  FNV-1a (support/bytes.hpp) over explicit
// little-endian bytes keeps the values platform-independent.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "ir/function.hpp"
#include "support/bytes.hpp"

namespace asipfb::sim {

/// Hash of every instruction's (id, exec_count) in module traversal order —
/// detects misattributed execution counts, not just wrong totals.
[[nodiscard]] inline std::uint64_t profile_hash(const ir::Module& module) {
  support::Fnv1a h(support::kFnvShortBasis);
  for (const auto& fn : module.functions) {
    for (const auto& block : fn.blocks) {
      for (const auto& instr : block.instrs) {
        h.u64(instr.id).u64(instr.exec_count);
      }
    }
  }
  return h.value();
}

/// Hash of the named globals' captured words, in `names` order.
[[nodiscard]] inline std::uint64_t output_hash(
    const std::map<std::string, std::vector<std::int32_t>>& outputs,
    const std::vector<std::string>& names) {
  support::Fnv1a h(support::kFnvShortBasis);
  for (const auto& name : names) {
    for (std::int32_t word : outputs.at(name)) {
      h.u64(static_cast<std::uint32_t>(word));
    }
  }
  return h.value();
}

}  // namespace asipfb::sim
