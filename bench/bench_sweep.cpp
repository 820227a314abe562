// Design-space exploration over the paper suite: pipeline::sweep() walks a
// grid of (optimization level, coverage floor, extension area budget)
// corners for every workload and reports what the customized ASIP achieves
// at each — coverage, selected extensions, area spent, and speedup.  The
// workloads' Sessions are swept on a thread pool, one task per workload; a
// workload whose Session cannot be prepared reports the error at every
// one of its grid points.
//
// Prints a per-corner table, then emits the grid as machine-readable JSON
// (BENCH_sweep.json in the current directory; override with the positional
// argument).  Exits 1 when any grid point failed.
#include <algorithm>
#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "pipeline/sweep.hpp"
#include "support/json.hpp"
#include "support/parallel.hpp"
#include "support/table.hpp"

namespace {

using namespace asipfb;

pipeline::SweepGrid sweep_grid() {
  pipeline::SweepGrid grid;
  grid.levels = {opt::OptLevel::O0, opt::OptLevel::O1, opt::OptLevel::O2};
  grid.floor_percents = {2.0, 4.0};
  grid.area_budgets = {10.0, 40.0, 80.0};
  return grid;
}

/// One workload's grid, in grid order.
struct WorkloadSweep {
  std::string workload;
  std::vector<pipeline::SweepPoint> points;
};

/// The grid's points in grid order, each carrying `error`: what a
/// workload whose Session cannot be prepared reports.
std::vector<pipeline::SweepPoint> failed_points(const pipeline::SweepGrid& grid,
                                                const std::string& error) {
  std::vector<pipeline::SweepPoint> points;
  for (const auto level : grid.levels) {
    for (const double floor : grid.floor_percents) {
      for (const double budget : grid.area_budgets) {
        points.push_back({.level = level, .floor_percent = floor,
                          .area_budget = budget, .error = error});
      }
    }
  }
  return points;
}

/// Sweeps every suite workload's Session, in suite order.
std::vector<WorkloadSweep> sweep_workloads() {
  const pipeline::SweepGrid grid = sweep_grid();
  std::vector<WorkloadSweep> swept(wl::suite().size());
  parallel_for(swept.size(), 0, [&](std::size_t i) {
    WorkloadSweep& w = swept[i];
    w.workload = wl::suite()[i].name;
    try {
      w.points = pipeline::sweep(bench::session(w.workload), grid);
    } catch (const std::exception& ex) {
      w.points = failed_points(grid, ex.what());
    }
  });
  return swept;
}

std::size_t failures(const std::vector<WorkloadSweep>& swept) {
  std::size_t n = 0;
  for (const auto& w : swept) {
    n += static_cast<std::size_t>(
        std::count_if(w.points.begin(), w.points.end(),
                      [](const pipeline::SweepPoint& p) { return !p.ok(); }));
  }
  return n;
}

std::string render_sweep_json(const std::vector<WorkloadSweep>& swept) {
  std::size_t points = 0;
  for (const auto& w : swept) points += w.points.size();
  support::JsonWriter json;
  json.begin_object()
      .member("bench", "sweep")
      .member("points", static_cast<std::uint64_t>(points))
      .member("failures", static_cast<std::uint64_t>(failures(swept)))
      .key("grid")
      .begin_array();
  for (const auto& w : swept) {
    for (const auto& p : w.points) {
      json.inline_object()
          .member("workload", w.workload)
          .member("level", std::string(opt::to_string(p.level)))
          .member("floor", p.floor_percent)
          .member("area_budget", p.area_budget)
          .member("coverage", p.total_coverage)
          .member("selected", static_cast<std::uint64_t>(p.selected))
          .member("area", p.total_area)
          .member("speedup", p.speedup);
      if (!p.ok()) json.member("error", p.error);
      json.end_object();
    }
  }
  json.end_array().end_object();
  return json.str() + "\n";
}

void print_sweep(const std::vector<WorkloadSweep>& swept) {
  std::printf("=== Design-space sweep: level x coverage floor x area budget ===\n");
  TextTable table({"Benchmark", "Level", "Floor", "Area budget", "Coverage",
                   "Selected", "Area", "Speedup"});
  for (const auto& w : swept) {
    for (const auto& p : w.points) {
      if (!p.ok()) {
        table.add_row({w.workload, std::string(opt::to_string(p.level)), "-",
                       "-", "error: " + p.error, "-", "-", "-"});
        continue;
      }
      table.add_row({w.workload, std::string(opt::to_string(p.level)),
                     format_percent(p.floor_percent),
                     format_fixed(p.area_budget, 1),
                     format_percent(p.total_coverage),
                     std::to_string(p.selected), format_fixed(p.total_area, 2),
                     format_fixed(p.speedup, 3) + "x"});
    }
  }
  std::printf("%s\n", table.render().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  std::string path;
  if (!bench::parse_bench_args(argc, argv, {"bench_sweep", "BENCH_sweep.json"},
                               &path)) {
    return 2;
  }
  const auto swept = sweep_workloads();
  print_sweep(swept);
  const std::string json = render_sweep_json(swept);
  std::fputs(json.c_str(), stdout);
  if (!support::JsonWriter::write_file(path, json)) return 1;
  return failures(swept) == 0 ? 0 : 1;
}
