// asip_designer: closes the paper's Figure-1 loop over the whole suite.
//
// For every benchmark: run the compiler feedback analysis (coverage at the
// pipelined level), hand the candidates to the ASIP design stage, and print
// the selected chained-instruction extensions with their area, delay, and
// the customized processor's speedup.
//
//   $ ./examples/asip_designer [area-budget]     (default 40 adder-equivalents)
#include <cstdio>
#include <cmath>

#include "asip/extension.hpp"
#include "examples/flag_parse.hpp"
#include "pipeline/session.hpp"
#include "workloads/suite.hpp"

using namespace asipfb;

namespace {

int usage_error() {
  std::fprintf(stderr, "usage: asip_designer [area-budget >= 0]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  asip::SelectionOptions selection;
  if (argc > 2) return usage_error();
  if (argc == 2) {
    const auto budget = examples::parse_double_flag(argv[1]);
    if (!budget || !std::isfinite(*budget) || *budget < 0.0) return usage_error();
    selection.area_budget = *budget;
  }
  std::printf("ASIP designer — area budget %.1f adder-equivalents, cycle "
              "budget %.1f adder delays\n\n",
              selection.area_budget, selection.cycle_budget);

  double speedup_product = 1.0;
  int count = 0;
  for (const auto& w : wl::suite()) {
    // Sessions come from the process-wide pool: rerunning with a second
    // budget inside one process would reuse every coverage analysis and
    // only redo the (cheap) selection.
    const auto session = pipeline::SessionPool::instance().get(w.name);
    const auto& proposal = session->extension(opt::OptLevel::O1, selection);
    std::printf("=== %s ===\n%s\n", w.name.c_str(),
                asip::render_proposal(proposal).c_str());
    speedup_product *= proposal.speedup();
    ++count;
  }

  std::printf("geometric-mean speedup over the suite: %.3fx\n",
              count > 0 ? std::pow(speedup_product, 1.0 / count) : 1.0);
  return 0;
}
