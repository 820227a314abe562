// coverage_study: the paper's section-7 experiment (Table 3) on demand.
//
// For a chosen benchmark, iteratively uncovers the highest-frequency
// chained sequences with and without the parallelizing optimizations and
// prints both coverage tables side by side.
//
//   $ ./examples/coverage_study [workload-name] [floor-percent]
#include <cstdio>
#include <string>

#include "chain/report.hpp"
#include "examples/flag_parse.hpp"
#include "pipeline/session.hpp"
#include "workloads/generator.hpp"

using namespace asipfb;

namespace {

int usage_error() {
  std::fprintf(stderr,
               "usage: coverage_study [workload-name] [floor-percent in 0..100]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 3) return usage_error();
  // Any Table-1 name or a generated corpus scenario ("gen_fused_005", ...).
  const std::string name = argc > 1 ? argv[1] : "sewha";
  chain::CoverageOptions options;
  if (argc > 2) {
    const auto floor = examples::parse_double_flag(argv[2]);
    if (!floor || !(*floor >= 0.0 && *floor <= 100.0)) return usage_error();
    options.floor_percent = *floor;
  }

  const auto& w = wl::any_workload(name);
  const pipeline::Session session(w.source, w.name, w.input);
  std::printf("benchmark: %s (%llu dynamic ops), significance floor %.1f%%\n\n",
              w.name.c_str(),
              static_cast<unsigned long long>(session.total_cycles()),
              options.floor_percent);

  const auto& with_opt = session.coverage(opt::OptLevel::O1, options);
  const auto& without_opt = session.coverage(opt::OptLevel::O0, options);

  std::printf("--- with parallelizing optimizations (yes) ---\n%s\n",
              chain::render_coverage(with_opt).c_str());
  std::printf("--- without (no) ---\n%s\n",
              chain::render_coverage(without_opt).c_str());
  std::printf("coverage improvement: %+.2f percentage points\n",
              with_opt.total_coverage - without_opt.total_coverage);
  return 0;
}
