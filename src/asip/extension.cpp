#include "asip/extension.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "support/table.hpp"

namespace asipfb::asip {

ExtensionProposal propose_extensions(const chain::CoverageResult& coverage,
                                     std::uint64_t baseline_cycles,
                                     const DatapathModel& model,
                                     const SelectionOptions& options) {
  // A NaN area budget would lift the area limit (every `> NaN` test is
  // false) and a NaN cycle budget would reject every candidate.
  if (!std::isfinite(options.area_budget) || options.area_budget < 0.0 ||
      !std::isfinite(options.cycle_budget) || options.cycle_budget < 0.0) {
    throw std::invalid_argument(
        "extension: area_budget and cycle_budget must be finite and >= 0");
  }
  ExtensionProposal proposal;
  proposal.baseline_cycles = baseline_cycles;

  for (const auto& step : coverage.steps) {
    ChainedInstruction candidate;
    candidate.signature = step.signature;
    candidate.area = model.chain_area(step.signature);
    candidate.delay = model.chain_delay(step.signature);
    candidate.fits_cycle = candidate.delay <= options.cycle_budget;
    candidate.frequency = step.frequency;
    // step.cycles = sum(weight * L); occurrences collapse L ops to 1, saving
    // weight * (L - 1) cycles each.
    const auto length = static_cast<std::uint64_t>(step.signature.length());
    const std::uint64_t total_weight = length == 0 ? 0 : step.cycles / length;
    candidate.cycles_saved = total_weight * (length - 1);
    proposal.candidates.push_back(std::move(candidate));
  }

  // Greedy selection by savings density (cycles saved per unit area).
  std::vector<std::size_t> order(proposal.candidates.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const auto& ca = proposal.candidates[a];
    const auto& cb = proposal.candidates[b];
    const double da = ca.area > 0 ? static_cast<double>(ca.cycles_saved) / ca.area : 0;
    const double db = cb.area > 0 ? static_cast<double>(cb.cycles_saved) / cb.area : 0;
    return da > db;
  });

  std::uint64_t saved = 0;
  for (std::size_t i : order) {
    const auto& candidate = proposal.candidates[i];
    if (!candidate.fits_cycle) continue;
    if (proposal.total_area + candidate.area > options.area_budget) continue;
    proposal.total_area += candidate.area;
    saved += candidate.cycles_saved;
    proposal.selected.push_back(candidate);
  }
  proposal.customized_cycles = baseline_cycles > saved ? baseline_cycles - saved : 0;
  return proposal;
}

std::string render_proposal(const ExtensionProposal& proposal) {
  TextTable table({"chained instruction", "freq", "area", "delay", "cycles saved",
                   "selected"});
  for (const auto& candidate : proposal.candidates) {
    const bool selected =
        std::any_of(proposal.selected.begin(), proposal.selected.end(),
                    [&](const ChainedInstruction& s) {
                      return s.signature == candidate.signature;
                    });
    table.add_row({candidate.signature.to_string(),
                   format_percent(candidate.frequency),
                   format_fixed(candidate.area, 2), format_fixed(candidate.delay, 2),
                   std::to_string(candidate.cycles_saved),
                   selected ? "yes" : (candidate.fits_cycle ? "no (area)" : "no (delay)")});
  }
  std::string out = table.render();
  out += "total extension area: " + format_fixed(proposal.total_area, 2) +
         " adder-equivalents\n";
  out += "cycles: " + std::to_string(proposal.baseline_cycles) + " -> " +
         std::to_string(proposal.customized_cycles) + "  (speedup " +
         format_fixed(proposal.speedup(), 3) + "x)\n";
  return out;
}

}  // namespace asipfb::asip
