// Design-space exploration over the paper suite: pipeline::sweep() walks a
// grid of (optimization level, coverage floor, extension area budget)
// corners for every workload and reports what the customized ASIP achieves
// at each — coverage, selected extensions, area spent, and speedup.
//
// Prints a per-corner table, then emits the grid as machine-readable JSON
// (BENCH_sweep.json in the current directory; override with the positional argument).
#include <cstdio>
#include <string>

#include "bench/common.hpp"
#include "support/json.hpp"
#include "pipeline/batch.hpp"
#include "support/table.hpp"

namespace {

using namespace asipfb;

pipeline::SweepOptions sweep_grid() {
  pipeline::SweepOptions options;
  options.levels = {opt::OptLevel::O0, opt::OptLevel::O1, opt::OptLevel::O2};
  options.floor_percents = {2.0, 4.0};
  options.area_budgets = {10.0, 40.0, 80.0};
  return options;
}

std::string render_sweep_json(const pipeline::SweepResult& result) {
  support::JsonWriter json;
  json.begin_object()
      .member("bench", "sweep")
      .member("points", static_cast<std::uint64_t>(result.points.size()))
      .member("failures", static_cast<std::uint64_t>(result.failures()))
      .key("grid")
      .begin_array();
  for (const auto& p : result.points) {
    json.inline_object()
        .member("workload", p.workload)
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
  json.end_array().end_object();
  return json.str() + "\n";
}

void print_sweep(const pipeline::SweepResult& result) {
  std::printf("=== Design-space sweep: level x coverage floor x area budget ===\n");
  TextTable table({"Benchmark", "Level", "Floor", "Area budget", "Coverage",
                   "Selected", "Area", "Speedup"});
  for (const auto& p : result.points) {
    if (!p.ok()) {
      table.add_row({p.workload, std::string(opt::to_string(p.level)), "-", "-",
                     "error: " + p.error, "-", "-", "-"});
      continue;
    }
    table.add_row({p.workload, std::string(opt::to_string(p.level)),
                   format_percent(p.floor_percent), format_fixed(p.area_budget, 1),
                   format_percent(p.total_coverage), std::to_string(p.selected),
                   format_fixed(p.total_area, 2),
                   format_fixed(p.speedup, 3) + "x"});
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
  const auto result = pipeline::sweep_suite(sweep_grid());
  print_sweep(result);
  const std::string json = render_sweep_json(result);
  std::fputs(json.c_str(), stdout);
  if (!support::JsonWriter::write_file(path, json)) return 1;
  return 0;
}
