// corpus_tour: the generated-workload subsystem end to end.
//
// Generates a small deterministic corpus (docs/WORKLOADS.md), checks one
// scenario's simulation against its plain-C++ oracle word for word, then
// gives every scenario its own Session on a thread pool (parallel_for) and
// runs detection and a small design-space sweep on it — the corpus-scale
// version of what fir_explorer does for one benchmark.
//
//   $ ./examples/corpus_tour [count]          (default 12 scenarios)
#include <algorithm>
#include <climits>
#include <cstdio>
#include <exception>
#include <optional>
#include <vector>

#include "chain/report.hpp"
#include "examples/flag_parse.hpp"
#include "pipeline/sweep.hpp"
#include "support/parallel.hpp"
#include "workloads/generator.hpp"

using namespace asipfb;

namespace {

int usage_error() {
  std::fprintf(stderr, "usage: corpus_tour [count >= 1]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  wl::CorpusSpec spec;
  spec.count = 12;
  if (argc > 2) return usage_error();
  if (argc == 2) {
    const auto count = examples::parse_int_flag(argv[1], 1, INT_MAX);
    if (!count) return usage_error();
    spec.count = static_cast<std::size_t>(*count);
  }
  const auto corpus = wl::corpus(spec);
  std::printf("generated %zu scenarios (seed 0x%llx):\n", corpus.size(),
              static_cast<unsigned long long>(spec.seed));
  for (const auto& w : corpus) {
    std::printf("  %-16s %s\n", w.name.c_str(), w.description.c_str());
  }

  // One scenario under the microscope: simulate and compare against the
  // oracle reference the generator computed.
  const wl::Workload& probe = corpus.front();
  auto prepared = pipeline::prepare(probe.source, probe.name, probe.input);
  const auto run = pipeline::execute(prepared.module, probe.input, probe.outputs);
  const bool oracle_ok = wl::oracle_matches(probe, run.exit_code, run.outputs);
  std::printf("\n%s: %llu dynamic ops, sim-vs-oracle %s\n", probe.name.c_str(),
              static_cast<unsigned long long>(prepared.total_cycles),
              oracle_ok ? "bit-identical" : "MISMATCH!");

  // Corpus-wide sweep and detection, one Session per scenario on a thread
  // pool (each compiled + profiled once; results independent of the
  // thread count).  Both share the Session's memoized O1 module.
  pipeline::SweepGrid grid;
  grid.levels = {opt::OptLevel::O1};
  grid.floor_percents = {4.0};
  grid.area_budgets = {20.0, 60.0};
  struct Tour {
    std::optional<std::size_t> sequences;      ///< Empty if detection failed.
    std::vector<pipeline::SweepPoint> points;  ///< Empty if not prepared.
  };
  std::vector<Tour> tours(corpus.size());
  parallel_for(corpus.size(), 0, [&](std::size_t i) {
    // A task must not throw: a scenario that fails counts as a failure.
    const wl::Workload& w = corpus[i];
    try {
      const pipeline::Session session(w.source, w.name, w.input);
      tours[i].points = pipeline::sweep(session, grid);
      tours[i].sequences = session.detection(opt::OptLevel::O1).sequences.size();
    } catch (const std::exception&) {
    }
  });

  const std::size_t grid_points = grid.area_budgets.size();
  std::size_t detect_failures = 0, sequences = 0, sweep_failures = 0;
  for (const auto& t : tours) {
    detect_failures += t.sequences ? 0 : 1;
    sequences += t.sequences.value_or(0);
    sweep_failures += grid_points - static_cast<std::size_t>(std::count_if(
        t.points.begin(), t.points.end(),
        [](const pipeline::SweepPoint& p) { return p.ok(); }));
  }
  std::printf("\ndetection over the corpus: %zu entries, %zu failures, "
              "%zu chainable sequences at O1\n",
              corpus.size(), detect_failures, sequences);
  std::printf("sweep over the corpus: %zu points, %zu failures; first point "
              "%s@O1 budget %.0f -> speedup %.3fx\n",
              corpus.size() * grid_points, sweep_failures,
              corpus.front().name.c_str(), grid.area_budgets.front(),
              tours.front().points.empty() ? 1.0
                                           : tours.front().points.front().speedup);
  return 0;
}
