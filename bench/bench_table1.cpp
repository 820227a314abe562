// Reproduces paper Table 1: benchmark descriptions, sizes, and data inputs —
// extended with the measured baseline dynamic operation counts.
#include <cstdio>

#include "bench/common.hpp"
#include "support/table.hpp"

namespace {

using namespace asipfb;

void print_table1() {
  TextTable table({"Benchmark", "Lines", "Description", "Data Input",
                   "Dynamic ops (O0)"});
  for (const auto& w : wl::suite()) {
    const auto& p = bench::prepared_workload(w.name);
    table.add_row({w.name, std::to_string(wl::source_lines(w)), w.description,
                   w.data_description, std::to_string(p.total_cycles)});
  }
  std::printf("=== Table 1: Benchmark Descriptions ===\n%s\n",
              table.render().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  if (!bench::parse_bench_args(argc, argv, {"bench_table1"}, nullptr)) {
    return 2;
  }
  print_table1();
  return 0;
}
