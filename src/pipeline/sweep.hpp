// Design-space sweep over one Session: the Figure-1 designer's question
// "what does the customized ASIP achieve at each (optimization level,
// coverage floor, area budget) corner?" asked of one workload.
//
// Every grid point is one coverage and one extension query on the
// Session, so the memo shares the heavy sub-artifacts across the grid:
// one optimization per level, one coverage per (level, floor), and only
// the cheap selection per point.  The sweep is serial; a caller that
// wants threads runs parallel_for (support/parallel.hpp) over its
// Sessions.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "asip/extension.hpp"
#include "chain/coverage.hpp"
#include "opt/optimizer.hpp"
#include "pipeline/session.hpp"

namespace asipfb::pipeline {

/// The exploration grid: every (level, floor_percent, area_budget)
/// combination is one design point.
struct SweepGrid {
  std::vector<opt::OptLevel> levels = {opt::OptLevel::O0, opt::OptLevel::O1,
                                       opt::OptLevel::O2};
  std::vector<double> floor_percents = {4.0};  ///< Coverage significance floors.
  std::vector<double> area_budgets = {40.0};   ///< Extension area budgets.
};

/// One design point: what the customized ASIP achieves at this
/// (level, floor, budget) corner.
struct SweepPoint {
  opt::OptLevel level = opt::OptLevel::O0;
  double floor_percent = 0.0;
  double area_budget = 0.0;

  double total_coverage = 0.0;      ///< Coverage of the selected sequences.
  std::size_t coverage_steps = 0;   ///< Chained instructions above the floor.
  std::size_t selected = 0;         ///< Candidates chosen under the budget.
  double total_area = 0.0;          ///< Area actually spent.
  double speedup = 1.0;             ///< Estimated customized-ASIP speedup.
  std::string error;                ///< Nonempty when the point failed.

  [[nodiscard]] bool ok() const { return error.empty(); }
};

/// Evaluates every grid point on `session`, in grid order: level, then
/// floor, then budget.  `coverage` and `selection` are the base options
/// whose floor and area budget each point overrides.  A point that throws
/// carries its error and the rest still run, so this never throws for a
/// point's sake.
[[nodiscard]] std::vector<SweepPoint> sweep(
    const Session& session, const SweepGrid& grid,
    const chain::CoverageOptions& coverage = {},
    const asip::SelectionOptions& selection = {},
    const asip::DatapathModel& datapath = {},
    const opt::OptimizeOptions& optimize = {});

}  // namespace asipfb::pipeline
