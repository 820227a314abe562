// Ablation B: unroll (pipelining) factor sweep.  Cross-iteration chains
// (add-add, add-compare) should appear at factor 2 and keep growing slowly;
// factor 1 (no pipelining, percolation only) isolates the pipelining
// contribution from pure percolation.
#include <cstdio>

#include "bench/common.hpp"
#include "support/table.hpp"

namespace {

using namespace asipfb;

double combined_at_factor(const char* name, int factor) {
  const auto sig = chain::parse_signature(name);
  opt::OptimizeOptions options;
  options.unroll.factor = factor;
  double sum = 0.0;
  for (const auto& w : wl::suite()) {
    // Session memoizes per (level, options): each factor's detection runs
    // once per workload no matter how many sequences this table asks about.
    const auto& result =
        bench::session(w.name).detection(opt::OptLevel::O1, {}, options);
    sum += result.frequency_of(*sig);
  }
  return sum / static_cast<double>(wl::suite().size());
}

void print_sweep() {
  std::printf("=== Ablation B: pipelining (unroll) factor sweep at O1 ===\n");
  TextTable table({"sequence", "factor 1", "factor 2", "factor 3", "factor 4"});
  for (const char* name :
       {"add-add", "add-compare", "fadd-fadd", "add-multiply", "fmultiply-fadd",
        "add-load"}) {
    std::vector<std::string> row{name};
    for (int factor : {1, 2, 3, 4}) {
      row.push_back(format_percent(combined_at_factor(name, factor)));
    }
    table.add_row(std::move(row));
  }
  std::printf("%s\n", table.render().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  if (!bench::parse_bench_args(argc, argv, {"bench_ablation_unroll"}, nullptr)) {
    return 2;
  }
  print_sweep();
  return 0;
}
