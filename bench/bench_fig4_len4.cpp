// Reproduces paper Figure 4: dynamic frequencies of all length-4 sequences
// detected across the combined suite at the three optimization levels.
#include <cstdio>

#include "bench/common.hpp"

namespace {

using namespace asipfb;

void print_figure4() {
  for (auto level : {opt::OptLevel::O0, opt::OptLevel::O1, opt::OptLevel::O2}) {
    const auto series = bench::combined_series(4, level);
    std::printf("=== Figure 4: length-4 sequences, %s (%zu sequences) ===\n%s\n",
                std::string(opt::to_string(level)).c_str(), series.size(),
                bench::render_series(series).c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (!bench::parse_bench_args(argc, argv, {"bench_fig4_len4"}, nullptr)) {
    return 2;
  }
  print_figure4();
  return 0;
}
