// Reproduces paper Figure 6: per-benchmark length-4 sequences with dynamic
// frequency >= 5%, at the optimized (pipelined) level.
#include <cstdio>

#include "bench/common.hpp"
#include "support/table.hpp"

namespace {

using namespace asipfb;

void print_figure6() {
  std::printf("=== Figure 6: detected chainable sequences of length 4 "
              "(>= 5%%, pipelined) ===\n");
  chain::DetectorOptions options;
  options.min_length = 4;
  options.max_length = 4;
  for (const auto& w : wl::suite()) {
    const auto& result = bench::session(w.name).detection(opt::OptLevel::O1, options);
    TextTable table({"sequence", "dyn freq"});
    for (const auto& stat : result.sequences) {
      if (stat.frequency < 5.0) break;
      table.add_row({stat.signature.to_string(), format_percent(stat.frequency)});
    }
    std::printf("--- %s ---\n%s\n", w.name.c_str(), table.render().c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (!bench::parse_bench_args(argc, argv, {"bench_fig6_perbench4"}, nullptr)) {
    return 2;
  }
  print_figure6();
  return 0;
}
