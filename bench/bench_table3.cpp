// Reproduces paper Table 3: iterative sequence coverage on sewha, feowf,
// bspline, edge, and iir — with ("yes" = pipelined+percolated) and without
// ("no" = unscheduled, adjacency-restricted) the parallelizing optimizations.
#include <cstdio>

#include "bench/common.hpp"
#include "chain/report.hpp"
#include "support/table.hpp"

namespace {

using namespace asipfb;

const char* const kTable3Benchmarks[] = {"sewha", "feowf", "bspline", "edge", "iir"};

void print_table3() {
  std::printf("=== Table 3: Sequence Coverage ===\n");
  TextTable table({"Benchmark", "Opt.", "Sequences", "Frequency", "Coverage"});
  for (const char* name : kTable3Benchmarks) {
    auto& session = bench::session(name);
    for (bool optimized : {true, false}) {
      const auto& coverage =
          session.coverage(optimized ? opt::OptLevel::O1 : opt::OptLevel::O0);
      bool first = true;
      for (const auto& step : coverage.steps) {
        table.add_row({first ? name : "", first ? (optimized ? "yes" : "no") : "",
                       step.signature.to_string(), format_percent(step.frequency),
                       first ? format_percent(coverage.total_coverage) : ""});
        first = false;
      }
      if (first) {
        table.add_row({name, optimized ? "yes" : "no", "(none above floor)",
                       "-", format_percent(0.0)});
      }
    }
  }
  std::printf("%s\n", table.render().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  if (!bench::parse_bench_args(argc, argv, {"bench_table3"}, nullptr)) {
    return 2;
  }
  print_table3();
  return 0;
}
