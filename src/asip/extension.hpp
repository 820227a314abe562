// Instruction-set extension selection — the "ASIP design" box of the
// paper's Figure 1.
//
// The compiler feedback (coverage analysis) supplies candidate chained
// instructions with realized dynamic frequencies; this module prices each
// candidate with the datapath model, rejects chains that do not fit the
// cycle-time budget, and greedily selects by cycles-saved per unit area
// under an area budget.  The resulting proposal quantifies the customized
// ASIP's speedup: every length-L occurrence collapses from L operations to
// one chained instruction.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "asip/datapath.hpp"
#include "chain/coverage.hpp"

namespace asipfb::asip {

/// One priced candidate chained instruction.
struct ChainedInstruction {
  chain::Signature signature;
  double area = 0.0;             ///< Datapath area (adder equivalents).
  double delay = 0.0;            ///< Combinational delay (adder delays).
  std::uint64_t cycles_saved = 0;  ///< Dynamic cycles removed if adopted.
  double frequency = 0.0;        ///< Realized dynamic frequency (percent).
  bool fits_cycle = false;       ///< Delay within the clock budget.
};

struct SelectionOptions {
  double area_budget = 40.0;      ///< Total extension area allowed.
  double cycle_budget = 8.0;      ///< Max chained delay for 1-cycle execution.
};

/// The proposed ASIP customization.
struct ExtensionProposal {
  std::vector<ChainedInstruction> candidates;  ///< All priced candidates.
  std::vector<ChainedInstruction> selected;    ///< Chosen under the budgets.
  double total_area = 0.0;
  std::uint64_t baseline_cycles = 0;
  std::uint64_t customized_cycles = 0;

  [[nodiscard]] double speedup() const {
    return customized_cycles == 0
               ? 1.0
               : static_cast<double>(baseline_cycles) /
                     static_cast<double>(customized_cycles);
  }
};

/// Builds and selects extensions from a coverage analysis.
/// `baseline_cycles` is the unoptimized profile's total dynamic op count.
/// Throws std::invalid_argument unless both budgets in `options` are
/// finite and >= 0.
[[nodiscard]] ExtensionProposal propose_extensions(
    const chain::CoverageResult& coverage, std::uint64_t baseline_cycles,
    const DatapathModel& model = {}, const SelectionOptions& options = {});

/// Renders the proposal as a designer-facing table.
[[nodiscard]] std::string render_proposal(const ExtensionProposal& proposal);

}  // namespace asipfb::asip
