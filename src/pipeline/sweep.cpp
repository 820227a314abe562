#include "pipeline/sweep.hpp"

#include <exception>

namespace asipfb::pipeline {

std::vector<SweepPoint> sweep(const Session& session, const SweepGrid& grid,
                              const chain::CoverageOptions& coverage,
                              const asip::SelectionOptions& selection,
                              const asip::DatapathModel& datapath,
                              const opt::OptimizeOptions& optimize) {
  std::vector<SweepPoint> points;
  points.reserve(grid.levels.size() * grid.floor_percents.size() *
                 grid.area_budgets.size());
  for (const auto level : grid.levels) {
    for (const double floor : grid.floor_percents) {
      for (const double budget : grid.area_budgets) {
        SweepPoint& p = points.emplace_back();
        p.level = level;
        p.floor_percent = floor;
        p.area_budget = budget;
        try {
          chain::CoverageOptions cov = coverage;
          cov.floor_percent = floor;
          asip::SelectionOptions sel = selection;
          sel.area_budget = budget;
          const auto& covered = session.coverage(level, cov, optimize);
          const auto& proposal =
              session.extension(level, sel, datapath, cov, optimize);
          p.total_coverage = covered.total_coverage;
          p.coverage_steps = covered.steps.size();
          p.selected = proposal.selected.size();
          p.total_area = proposal.total_area;
          p.speedup = proposal.speedup();
        } catch (const std::exception& ex) {
          p.error = ex.what();
        } catch (...) {
          p.error = "unknown error";
        }
      }
    }
  }
  return points;
}

}  // namespace asipfb::pipeline
