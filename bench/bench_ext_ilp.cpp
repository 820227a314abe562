// Extension (paper section 8, future work): ILP characterization of the
// application suite for multiple-issue instruction-set feedback.
// ops/cycle per benchmark at issue widths 1/2/4/8, unoptimized vs fully
// optimized — renaming raises ILP even though it erodes chains.
#include <cstdio>

#include "bench/common.hpp"
#include "opt/ilp.hpp"
#include "support/table.hpp"

namespace {

using namespace asipfb;

void print_ilp() {
  std::printf("=== Extension: ILP characterization (ops/cycle) ===\n");
  TextTable table({"Benchmark", "O0 w1", "O0 w2", "O0 w4", "O0 w8",
                   "O2 w1", "O2 w2", "O2 w4", "O2 w8"});
  for (const auto& w : wl::suite()) {
    std::vector<std::string> row{w.name};
    for (auto level : {opt::OptLevel::O0, opt::OptLevel::O2}) {
      // Served from the Session cache — no copy, the measurement reads it.
      const ir::Module& variant = bench::session(w.name).optimized(level);
      for (int width : {1, 2, 4, 8}) {
        row.push_back(format_fixed(opt::measure_ilp(variant, width).ops_per_cycle, 2));
      }
    }
    table.add_row(std::move(row));
  }
  std::printf("%s\n", table.render().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  if (!bench::parse_bench_args(argc, argv, {"bench_ext_ilp"}, nullptr)) {
    return 2;
  }
  print_ilp();
  return 0;
}
