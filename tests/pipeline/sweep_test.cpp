// The design-space sweep over one Session (pipeline/sweep.hpp): grid
// order, per-point errors, memo sharing across the grid, base options,
// and sweeps of pooled Sessions spread over threads.
#include "pipeline/sweep.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "support/parallel.hpp"
#include "workloads/suite.hpp"

namespace asipfb::pipeline {
namespace {

void expect_same_points(const std::vector<SweepPoint>& a,
                        const std::vector<SweepPoint>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].level, b[i].level) << i;
    EXPECT_EQ(a[i].floor_percent, b[i].floor_percent) << i;
    EXPECT_EQ(a[i].area_budget, b[i].area_budget) << i;
    EXPECT_EQ(a[i].total_coverage, b[i].total_coverage) << i;
    EXPECT_EQ(a[i].coverage_steps, b[i].coverage_steps) << i;
    EXPECT_EQ(a[i].selected, b[i].selected) << i;
    EXPECT_EQ(a[i].total_area, b[i].total_area) << i;
    EXPECT_EQ(a[i].speedup, b[i].speedup) << i;
    EXPECT_EQ(a[i].error, b[i].error) << i;
  }
}

TEST(Sweep, GridShapeOrderAndWarmthIndependence) {
  SweepGrid grid;
  grid.levels = {opt::OptLevel::O0, opt::OptLevel::O1};
  grid.floor_percents = {2.0, 4.0};
  grid.area_budgets = {10.0, 40.0};
  const auto& w = wl::workload("fir");
  const Session session(w.source, w.name, w.input);
  const auto points = sweep(session, grid);
  ASSERT_EQ(points.size(), 8u);

  // Grid order: level-major, then floor, then budget.
  std::size_t i = 0;
  for (const auto level : grid.levels) {
    for (const double floor : grid.floor_percents) {
      for (const double budget : grid.area_budgets) {
        EXPECT_EQ(points[i].level, level) << i;
        EXPECT_EQ(points[i].floor_percent, floor) << i;
        EXPECT_EQ(points[i].area_budget, budget) << i;
        EXPECT_TRUE(points[i].ok()) << points[i].error;
        ++i;
      }
    }
  }

  // Each point is exactly the Session's own answer at that corner.
  chain::CoverageOptions cov;
  cov.floor_percent = 2.0;
  asip::SelectionOptions sel;
  sel.area_budget = 40.0;
  const auto& proposal = session.extension(opt::OptLevel::O1, sel, {}, cov);
  EXPECT_EQ(points[5].selected, proposal.selected.size());
  EXPECT_EQ(points[5].total_area, proposal.total_area);
  EXPECT_EQ(points[5].speedup, proposal.speedup());
  EXPECT_EQ(points[5].total_coverage,
            session.coverage(opt::OptLevel::O1, cov).total_coverage);

  // Sweeping again (every artifact now a memo hit) and sweeping a fresh
  // Session give the same points.
  expect_same_points(sweep(session, grid), points);
  const Session fresh(w.source, w.name, w.input);
  expect_same_points(sweep(fresh, grid), points);
}

TEST(Sweep, SharesSubArtifactsAcrossTheGrid) {
  SweepGrid grid;
  grid.levels = {opt::OptLevel::O1};
  grid.floor_percents = {2.0, 4.0};
  grid.area_budgets = {10.0, 40.0, 80.0};
  const auto& w = wl::workload("sewha");
  const Session session(w.source, w.name, w.input);
  const auto points = sweep(session, grid);
  ASSERT_EQ(points.size(), 6u);
  for (const auto& p : points) EXPECT_TRUE(p.ok()) << p.error;

  // A larger budget can only widen the selection.
  EXPECT_LE(points[0].selected, points[1].selected);
  EXPECT_LE(points[1].selected, points[2].selected);

  // Memoization across the grid: one optimization for the level, one
  // coverage per floor, one selection per point.
  const Session::Stats stats = session.stats();
  EXPECT_EQ(stats.optimize_runs, 1u);
  EXPECT_EQ(stats.coverage_runs, 2u);
  EXPECT_EQ(stats.extension_runs, 6u);
}

TEST(Sweep, AFailingPointCarriesItsErrorAndTheRestStillRun) {
  SweepGrid grid;
  grid.levels = {opt::OptLevel::O1};
  grid.floor_percents = {4.0};
  grid.area_budgets = {10.0, std::numeric_limits<double>::quiet_NaN(), 40.0};
  const auto& w = wl::workload("fir");
  const Session session(w.source, w.name, w.input);
  const auto points = sweep(session, grid);
  ASSERT_EQ(points.size(), 3u);
  EXPECT_TRUE(points[0].ok()) << points[0].error;
  EXPECT_FALSE(points[1].ok());
  EXPECT_NE(points[1].error.find("area_budget"), std::string::npos)
      << points[1].error;
  EXPECT_EQ(points[1].speedup, 1.0);
  EXPECT_EQ(points[1].selected, 0u);
  EXPECT_TRUE(points[2].ok()) << points[2].error;
}

TEST(Sweep, EmptyAxisGivesNoPoints) {
  const auto& w = wl::workload("sewha");
  const Session session(w.source, w.name, w.input);
  SweepGrid grid;
  grid.area_budgets.clear();
  EXPECT_TRUE(sweep(session, grid).empty());
  EXPECT_EQ(session.stats().coverage_runs, 0u);
}

TEST(Sweep, BaseOptionsReachEveryPoint) {
  // Coverage and selection options other than the floor and the budget
  // come from the caller and hold at every point.
  chain::CoverageOptions coverage;
  coverage.min_length = 2;
  coverage.max_length = 2;
  asip::SelectionOptions selection;
  selection.cycle_budget = 4.0;
  SweepGrid grid;
  grid.levels = {opt::OptLevel::O1, opt::OptLevel::O2};
  grid.floor_percents = {2.0, 4.0};
  grid.area_budgets = {20.0};
  const auto& w = wl::workload("edge");
  const Session session(w.source, w.name, w.input);
  const auto points = sweep(session, grid, coverage, selection);
  ASSERT_EQ(points.size(), 4u);
  const auto coverage_runs = session.stats().coverage_runs;
  const auto extension_runs = session.stats().extension_runs;

  for (const auto& p : points) {
    ASSERT_TRUE(p.ok()) << p.error;
    chain::CoverageOptions cov = coverage;
    cov.floor_percent = p.floor_percent;
    asip::SelectionOptions sel = selection;
    sel.area_budget = p.area_budget;
    const auto& covered = session.coverage(p.level, cov);
    ASSERT_FALSE(covered.steps.empty()) << p.floor_percent;
    for (const auto& step : covered.steps) EXPECT_EQ(step.signature.length(), 2u);
    EXPECT_EQ(p.total_coverage, covered.total_coverage);
    EXPECT_EQ(p.coverage_steps, covered.steps.size());
    const auto& proposal = session.extension(p.level, sel, {}, cov);
    EXPECT_EQ(p.selected, proposal.selected.size());
    EXPECT_EQ(p.total_area, proposal.total_area);
    EXPECT_EQ(p.speedup, proposal.speedup());
  }
  // Every lookup above was the sweep's own artifact, not a new run.
  EXPECT_EQ(session.stats().coverage_runs, coverage_runs);
  EXPECT_EQ(session.stats().extension_runs, extension_runs);
}

TEST(Sweep, PooledSessionsOnThreadsMatchSerialSweeps) {
  // The bench and corpus drivers' pattern: one sweep per Session, spread
  // over threads with parallel_for.  Two tasks per workload share each
  // pooled Session; every sweep equals a serial sweep on a fresh Session.
  SweepGrid grid;
  grid.levels = {opt::OptLevel::O0, opt::OptLevel::O1};
  grid.floor_percents = {4.0};
  grid.area_budgets = {10.0, 40.0};
  const std::vector<std::string> names = {"fir", "sewha", "edge"};

  std::vector<std::vector<SweepPoint>> serial;
  for (const auto& name : names) {
    const auto& w = wl::workload(name);
    const Session session(w.source, w.name, w.input);
    serial.push_back(sweep(session, grid));
  }

  SessionPool pool;
  std::vector<std::vector<SweepPoint>> threaded(2 * names.size());
  const unsigned threads = std::max(2u, std::thread::hardware_concurrency());
  parallel_for(threaded.size(), threads, [&](std::size_t i) {
    std::shared_ptr<Session> session;
    try {
      session = pool.get(names[i % names.size()]);
    } catch (...) {
      return;  // Leaves the slot empty, which the size check below reports.
    }
    threaded[i] = sweep(*session, grid);
  });
  EXPECT_EQ(pool.size(), names.size());
  for (std::size_t i = 0; i < threaded.size(); ++i) {
    SCOPED_TRACE(names[i % names.size()]);
    expect_same_points(threaded[i], serial[i % names.size()]);
  }
}

}  // namespace
}  // namespace asipfb::pipeline
