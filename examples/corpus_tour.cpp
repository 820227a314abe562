// corpus_tour: the generated-workload subsystem end to end.
//
// Generates a small deterministic corpus (docs/WORKLOADS.md), checks one
// scenario's simulation against its plain-C++ oracle word for word, fans
// detection out over every scenario with pipeline::run_stages, and runs a
// small design-space sweep over the same jobs — the corpus-scale version
// of what fir_explorer does for one benchmark.
//
//   $ ./examples/corpus_tour [count]          (default 12 scenarios)
#include <climits>
#include <cstdio>
#include <vector>

#include "chain/report.hpp"
#include "examples/flag_parse.hpp"
#include "pipeline/batch.hpp"
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

  // Corpus-wide detection fan-out on a private pool (each scenario
  // compiled + profiled exactly once, results thread-count independent).
  std::vector<pipeline::BatchJob> jobs;
  for (const auto& w : corpus) jobs.push_back({w.name, w.source, w.input});
  pipeline::SessionPool pool;
  const auto batch = pipeline::run_stages(
      jobs, {pipeline::StageRequest::detection_at(opt::OptLevel::O1)}, {}, &pool);
  std::size_t sequences = 0;
  for (const auto& e : batch.entries) {
    if (e.detection.has_value()) sequences += e.detection->sequences.size();
  }
  std::printf("\ndetection over the corpus: %zu entries, %zu failures, "
              "%zu chainable sequences at O1\n",
              batch.entries.size(), batch.failures(), sequences);

  // Design-space sweep over the same jobs; the pool's memoized Sessions
  // are reused, so only coverage + selection run per grid point.
  pipeline::SweepOptions grid;
  grid.levels = {opt::OptLevel::O1};
  grid.floor_percents = {4.0};
  grid.area_budgets = {20.0, 60.0};
  const auto swept = pipeline::sweep(jobs, grid, &pool);
  std::printf("sweep over the corpus: %zu points, %zu failures; first point "
              "%s@O1 budget %.0f -> speedup %.3fx\n",
              swept.points.size(), swept.failures(),
              swept.points.front().workload.c_str(),
              swept.points.front().area_budget, swept.points.front().speedup);
  return 0;
}
