// Closing the paper's Figure-1 loop: the ASIP design stage consumes the
// compiler feedback (coverage at the pipelined level), selects chained
// instructions under an area budget, and reports the customized processor's
// speedup per benchmark.  Swept over area budgets.
#include <cstdio>

#include "asip/extension.hpp"
#include "asip/rewrite.hpp"
#include "bench/common.hpp"
#include "support/table.hpp"

namespace {

using namespace asipfb;

/// Simulated speedup: fuse the selected chains in the optimized program and
/// re-run it — cycles are measured, not estimated.  The optimized module,
/// coverage, and proposal all come memoized from the workload's Session;
/// only the fused variant (whose instruction ids match the cached module
/// the coverage ran on) is a private copy.
double measured_speedup(const std::string& name, double area_budget) {
  const auto& w = wl::workload(name);
  auto& session = bench::session(name);
  const auto& coverage = session.coverage(opt::OptLevel::O1);

  asip::SelectionOptions options;
  options.area_budget = area_budget;
  const auto& proposal = session.extension(opt::OptLevel::O1, options);
  std::vector<chain::Signature> selected;
  for (const auto& s : proposal.selected) selected.push_back(s.signature);
  ir::Module variant = session.optimized(opt::OptLevel::O1);
  asip::apply_fusion(variant, coverage, selected);

  const auto run = pipeline::execute(variant, w.input, {});
  return static_cast<double>(run.steps) / static_cast<double>(run.cycles);
}

void print_speedups() {
  std::printf("=== ASIP customization speedup (Figure-1 loop closed) ===\n");
  const double budgets[] = {10.0, 20.0, 40.0, 80.0};
  TextTable table({"Benchmark", "area 10", "area 20", "area 40", "area 80",
                   "measured (sim, area 40)", "top selection (area 40)"});
  for (const auto& w : wl::suite()) {
    auto& session = bench::session(w.name);
    std::vector<std::string> row{w.name};
    std::string top_selection = "-";
    for (double budget : budgets) {
      asip::SelectionOptions options;
      options.area_budget = budget;
      const auto& proposal = session.extension(opt::OptLevel::O1, options);
      row.push_back(format_fixed(proposal.speedup(), 3) + "x");
      if (budget == 40.0 && !proposal.selected.empty()) {
        top_selection = proposal.selected[0].signature.to_string();
      }
    }
    row.push_back(format_fixed(measured_speedup(w.name, 40.0), 3) + "x");
    row.push_back(top_selection);
    table.add_row(std::move(row));
  }
  std::printf("%s\n", table.render().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  if (!bench::parse_bench_args(argc, argv, {"bench_asip_speedup"}, nullptr)) {
    return 2;
  }
  print_speedups();
  return 0;
}
