// Ablation C: the branch-and-bound pruning of the sequence detector
// (paper section 5, step 4).  Sweeping the pruning floor shows the
// paths-enumerated reduction while every sequence above the floor keeps its
// exact frequency (soundness is asserted in tests/chain/detect_test.cpp).
#include <cstdio>

#include "bench/common.hpp"
#include "support/table.hpp"

namespace {

using namespace asipfb;

/// Suite-wide detection totals at one pruning floor, served from the
/// process-wide Sessions (each floor's detection memoizes per workload).
std::pair<std::size_t, std::size_t> paths_and_sequences(double prune_percent) {
  chain::DetectorOptions options;
  options.prune_percent = prune_percent;
  std::size_t paths = 0;
  std::size_t sequences = 0;
  for (const auto& w : wl::suite()) {
    const auto& result =
        bench::session(w.name).detection(opt::OptLevel::O1, options);
    paths += result.paths;
    sequences += result.sequences.size();
  }
  return {paths, sequences};
}

const double kPruneLevels[] = {0.0, 0.01, 0.1, 1.0, 5.0};

void print_bnb() {
  std::printf("=== Ablation C: branch-and-bound pruning floor sweep (O1) ===\n");
  TextTable table({"prune floor", "paths enumerated", "sequences reported"});
  for (double level : kPruneLevels) {
    const auto [paths, sequences] = paths_and_sequences(level);
    table.add_row({format_percent(level), std::to_string(paths),
                   std::to_string(sequences)});
  }
  std::printf("%s\n", table.render().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  if (!bench::parse_bench_args(argc, argv, {"bench_ablation_bnb"}, nullptr)) {
    return 2;
  }
  print_bnb();
  return 0;
}
