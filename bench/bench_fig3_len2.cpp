// Reproduces paper Figure 3: dynamic frequencies of all length-2 sequences
// detected across the combined benchmark suite, sorted descending, at the
// three optimization levels.
#include <cstdio>

#include "bench/common.hpp"

namespace {

using namespace asipfb;

void print_figure3() {
  for (auto level : {opt::OptLevel::O0, opt::OptLevel::O1, opt::OptLevel::O2}) {
    const auto series = bench::combined_series(2, level);
    std::printf("=== Figure 3: length-2 sequences, %s (%zu sequences) ===\n%s\n",
                std::string(opt::to_string(level)).c_str(), series.size(),
                bench::render_series(series).c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (!bench::parse_bench_args(argc, argv, {"bench_fig3_len2"}, nullptr)) {
    return 2;
  }
  print_figure3();
  return 0;
}
