// Reproduces paper Table 2: example sequences and their dynamic frequencies
// across the three optimization levels (suite-combined).  The paper's five
// rows are printed first, then our measured top sequences for context.
#include <cstdio>

#include "bench/common.hpp"
#include "support/table.hpp"

namespace {

using namespace asipfb;

void print_table2() {
  const char* paper_rows[] = {"multiply-add", "add-multiply", "add-add",
                              "add-multiply-add", "multiply-add-add"};
  // Our float-heavy suite expresses the MAC as fmultiply-fadd as well.
  const char* extra_rows[] = {"fmultiply-fadd", "fadd-fadd", "add-compare",
                              "add-shift-add", "add-load", "fload-fmultiply"};

  TextTable table({"Operation Sequence", "O0 (none)", "O1 (pipelined)",
                   "O2 (pipelined+renamed)"});
  auto add_row = [&](const char* name) {
    const auto sig = chain::parse_signature(name);
    if (!sig) return;
    table.add_row({name,
                   format_percent(bench::combined_frequency(*sig, opt::OptLevel::O0)),
                   format_percent(bench::combined_frequency(*sig, opt::OptLevel::O1)),
                   format_percent(bench::combined_frequency(*sig, opt::OptLevel::O2))});
  };
  for (const char* name : paper_rows) add_row(name);
  std::printf("=== Table 2: detected sequence examples (paper rows) ===\n%s\n",
              table.render().c_str());

  TextTable extra({"Operation Sequence", "O0", "O1", "O2"});
  for (const char* name : extra_rows) {
    const auto sig = chain::parse_signature(name);
    extra.add_row({name,
                   format_percent(bench::combined_frequency(*sig, opt::OptLevel::O0)),
                   format_percent(bench::combined_frequency(*sig, opt::OptLevel::O1)),
                   format_percent(bench::combined_frequency(*sig, opt::OptLevel::O2))});
  }
  std::printf("=== Table 2 (cont.): additional prominent sequences ===\n%s\n",
              extra.render().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  if (!bench::parse_bench_args(argc, argv, {"bench_table2"}, nullptr)) {
    return 2;
  }
  print_table2();
  return 0;
}
