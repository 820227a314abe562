// Ablation A: isolates the paper's section-6.1 register-renaming effect.
// Same pipelining everywhere; three scheduler configurations:
//   O1            — no renaming, chain-preserving motion,
//   O2            — renaming + unconstrained motion (the paper's level 2),
//   O2/preserve   — renaming but chain-preserving motion (counterfactual:
//                   shows how much of the erosion is due to repair copies
//                   alone versus aggressive motion).
#include <cstdio>

#include "bench/common.hpp"
#include "opt/cleanup.hpp"
#include "opt/rename.hpp"
#include "support/table.hpp"

namespace {

using namespace asipfb;

double combined_with_options(const char* name, opt::OptLevel level,
                             bool chain_preserving) {
  const auto sig = chain::parse_signature(name);
  opt::OptimizeOptions options;
  options.percolation.chain_preserving = chain_preserving;
  double sum = 0.0;
  for (const auto& w : wl::suite()) {
    // Optimize manually instead of through Session: the counterfactual
    // O2+chain-preserving configuration is exactly what the pipeline's
    // per-level normalization forbids, so its cache can never serve it.
    ir::Module variant = bench::prepared_workload(w.name).module;
    for (auto& fn : variant.functions) {
      opt::unroll_loops(fn, options.unroll);
      if (level == opt::OptLevel::O2) opt::rename_registers(fn);
      opt::percolate(fn, options.percolation);
      opt::dead_code_elimination(fn);
    }
    const auto result = chain::detect_sequences(
        variant, {}, bench::prepared_workload(w.name).total_cycles);
    sum += result.frequency_of(*sig);
  }
  return sum / static_cast<double>(wl::suite().size());
}

void print_ablation() {
  std::printf("=== Ablation A: the register-renaming effect (section 6.1) ===\n");
  TextTable table({"sequence", "O1 (no rename)", "O2 (rename)",
                   "O2 + chain-preserving motion"});
  for (const char* name :
       {"add-add", "add-compare", "fadd-fadd", "fmultiply-fadd", "add-multiply",
        "add-load", "fload-fmultiply"}) {
    table.add_row({name,
                   format_percent(combined_with_options(name, opt::OptLevel::O1, true)),
                   format_percent(combined_with_options(name, opt::OptLevel::O2, false)),
                   format_percent(combined_with_options(name, opt::OptLevel::O2, true))});
  }
  std::printf("%s\n", table.render().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  if (!bench::parse_bench_args(argc, argv, {"bench_ablation_renaming"}, nullptr)) {
    return 2;
  }
  print_ablation();
  return 0;
}
