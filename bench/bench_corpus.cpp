// Generated-corpus service throughput: the full corpus (workloads/
// generator.hpp — parameterized FIR/IIR/DFT/conv2d/histeq/fused scenarios)
// through the Session-based pipeline.
//
// Four measurements:
//   * differential: every scenario simulated and checked against its
//     plain-C++ oracle outputs (a failing scenario fails the binary),
//   * cold: pipeline::run_stages() detection over the whole corpus on a
//     fresh SessionPool — compile + profile + optimize + detect per
//     workload (the first-request service path),
//   * warm: the same fan-out again on the now-warm pool — the memoized
//     steady-state service path (both reported as workloads/second), and
//   * cache cold/warm: the same fan-out in two *fresh child processes*
//     sharing one on-disk artifact cache (src/cache/) — the first
//     populates it, the second warm-starts from it.  Their ratio is the
//     warm-restart speedup the persistent cache buys, gated at face
//     value by tools/check_perf.py ("cache.warm_speedup").
//
// Prints a per-family table, then emits BENCH_corpus.json in the current
// directory (override the path with the positional argument).
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

#include "bench/common.hpp"
#include "cache/store.hpp"
#include "pipeline/batch.hpp"
#include "support/json.hpp"
#include "support/table.hpp"
#include "workloads/generator.hpp"

namespace {

using namespace asipfb;
using Clock = std::chrono::steady_clock;

struct FamilyStats {
  int scenarios = 0;
  int diff_pass = 0;
  std::uint64_t dynamic_ops = 0;
  std::uint64_t sequences = 0;
};

struct CorpusReport {
  std::map<std::string, FamilyStats> families;  // Keyed by family name.
  int diff_pass = 0;
  int diff_fail = 0;
  std::size_t stage_failures = 0;
  double cold_seconds = 0.0;
  double warm_seconds = 0.0;
  double cache_cold_seconds = 0.0;  ///< Fresh process, empty artifact cache.
  double cache_warm_seconds = 0.0;  ///< Fresh process, populated cache.

  [[nodiscard]] double cold_workloads_per_sec(std::size_t n) const {
    return cold_seconds > 0.0 ? static_cast<double>(n) / cold_seconds : 0.0;
  }
  [[nodiscard]] double warm_workloads_per_sec(std::size_t n) const {
    return warm_seconds > 0.0 ? static_cast<double>(n) / warm_seconds : 0.0;
  }
  [[nodiscard]] double cache_warm_speedup() const {
    return cache_warm_seconds > 0.0 ? cache_cold_seconds / cache_warm_seconds
                                    : 0.0;
  }
};

std::string family_of(const std::string& scenario_name) {
  const std::string_view family = wl::family_of(scenario_name);
  return family.empty() ? scenario_name : std::string(family);
}

std::vector<pipeline::BatchJob> corpus_jobs() {
  std::vector<pipeline::BatchJob> jobs;
  for (const auto& w : wl::default_corpus()) {
    jobs.push_back({w.name, w.source, w.input});
  }
  return jobs;
}

/// Simulates every scenario and compares outputs + exit code against the
/// generator's oracle reference.
void run_differential(CorpusReport& report) {
  for (const auto& w : wl::default_corpus()) {
    FamilyStats& fam = report.families[family_of(w.name)];
    ++fam.scenarios;
    bool ok = false;
    try {
      auto prepared = pipeline::prepare(w.source, w.name, w.input);
      const auto run = pipeline::execute(prepared.module, w.input, w.outputs);
      ok = wl::oracle_matches(w, run.exit_code, run.outputs);
      fam.dynamic_ops += prepared.total_cycles;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "differential error in %s: %s\n", w.name.c_str(),
                   e.what());
    }
    if (ok) {
      ++report.diff_pass;
      ++fam.diff_pass;
    } else {
      ++report.diff_fail;
      std::fprintf(stderr, "sim-vs-oracle MISMATCH in %s\n", w.name.c_str());
    }
  }
}

/// One full-corpus detection fan-out against `pool`; returns wall seconds.
double timed_fanout(const std::vector<pipeline::BatchJob>& jobs,
                    pipeline::SessionPool& pool, CorpusReport& report,
                    bool record_sequences) {
  const std::vector<pipeline::StageRequest> requests = {
      pipeline::StageRequest::detection_at(opt::OptLevel::O1)};
  const auto start = Clock::now();
  const auto batch = pipeline::run_stages(jobs, requests, {}, &pool);
  const double seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  report.stage_failures += batch.failures();
  if (record_sequences) {
    for (const auto& e : batch.entries) {
      if (e.ok() && e.detection.has_value()) {
        report.families[family_of(e.workload)].sequences +=
            e.detection->sequences.size();
      }
    }
  }
  return seconds;
}

// --- Cross-process warm start ----------------------------------------------
// The in-process warm number above measures the SessionPool memo.  The
// persistent cache's promise is surviving a *restart*, so its phases run
// in child processes: each one builds a SessionPool over a cache::Store
// at `dir`, runs the full detection fan-out, and prints its wall seconds
// on a marker line the parent scrapes.  Child one sees an empty
// directory (cold: compute + write-back); child two, a brand-new
// process, sees the populated one (warm: deserialize instead of
// compile/profile/optimize/detect).

constexpr std::string_view kCachePhaseFlag = "--cache-phase";
constexpr const char* kCachePhaseMarker = "cache_phase_seconds=";

/// Child-process entry: timed corpus fan-out against the store at `dir`.
int run_cache_phase(const std::string& dir) {
  const auto jobs = corpus_jobs();
  const std::vector<pipeline::StageRequest> requests = {
      pipeline::StageRequest::detection_at(opt::OptLevel::O1)};
  const auto start = Clock::now();
  cache::StoreOptions store_options;
  store_options.dir = dir;
  pipeline::SessionPool pool(
      std::make_shared<cache::Store>(std::move(store_options)));
  const auto batch = pipeline::run_stages(jobs, requests, {}, &pool);
  const double seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  if (batch.failures() != 0) {
    std::fprintf(stderr, "cache phase: %zu stage failures\n",
                 batch.failures());
    return 1;
  }
  std::printf("%s%.6f\n", kCachePhaseMarker, seconds);
  return 0;
}

/// Runs `self --cache-phase dir` as a child and returns its reported wall
/// seconds, or a negative value if the child failed.
double spawn_cache_phase(const std::string& self, const std::string& dir) {
  if (self.find('"') != std::string::npos ||
      dir.find('"') != std::string::npos) {
    std::fprintf(stderr, "cache phase: refusing to shell-quote '\"'\n");
    return -1.0;
  }
  const std::string command =
      "\"" + self + "\" " + std::string(kCachePhaseFlag) + " \"" + dir + "\"";
  FILE* child = ::popen(command.c_str(), "r");
  if (child == nullptr) {
    std::fprintf(stderr, "cache phase: popen(%s) failed\n", command.c_str());
    return -1.0;
  }
  double seconds = -1.0;
  char line[256];
  while (std::fgets(line, sizeof line, child) != nullptr) {
    double value = 0.0;
    if (std::sscanf(line, "cache_phase_seconds=%lf", &value) == 1) {
      seconds = value;
    }
  }
  const int status = ::pclose(child);
  if (status != 0 || seconds < 0.0) {
    std::fprintf(stderr, "cache phase: child failed (status %d)\n", status);
    return -1.0;
  }
  return seconds;
}

void print_report(const CorpusReport& report, std::size_t total) {
  std::printf("=== Generated corpus through the Session pipeline ===\n");
  TextTable table({"Family", "Scenarios", "Oracle pass", "Dynamic ops",
                   "Sequences @O1"});
  for (const auto& [name, fam] : report.families) {
    table.add_row({name, std::to_string(fam.scenarios),
                   std::to_string(fam.diff_pass),
                   std::to_string(fam.dynamic_ops),
                   std::to_string(fam.sequences)});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("oracle differential: %d/%zu pass\n", report.diff_pass, total);
  std::printf("cold fan-out: %.3f s (%.1f workloads/s)\n", report.cold_seconds,
              report.cold_workloads_per_sec(total));
  std::printf("warm fan-out: %.3f s (%.1f workloads/s)\n", report.warm_seconds,
              report.warm_workloads_per_sec(total));
  std::printf("cache cold (fresh process, empty cache): %.3f s\n",
              report.cache_cold_seconds);
  std::printf(
      "cache warm (fresh process, populated cache): %.3f s (%.1fx speedup)\n\n",
      report.cache_warm_seconds, report.cache_warm_speedup());
}

std::string render_json(const CorpusReport& report, std::size_t total) {
  support::JsonWriter json;
  json.begin_object()
      .member("bench", "corpus")
      .member("workloads", static_cast<std::uint64_t>(total))
      .member("differential_pass", report.diff_pass)
      .member("differential_fail", report.diff_fail)
      .member("stage_failures", static_cast<std::uint64_t>(report.stage_failures))
      .key("families")
      .begin_array();
  for (const auto& [name, fam] : report.families) {
    json.inline_object()
        .member("family", name)
        .member("scenarios", fam.scenarios)
        .member("oracle_pass", fam.diff_pass)
        .member("dynamic_ops", fam.dynamic_ops)
        .member("sequences_o1", fam.sequences)
        .end_object();
  }
  json.end_array()
      .key("cold")
      .begin_object()
      .member("seconds", report.cold_seconds)
      .member("workloads_per_sec", report.cold_workloads_per_sec(total))
      .end_object()
      .key("warm")
      .begin_object()
      .member("seconds", report.warm_seconds)
      .member("workloads_per_sec", report.warm_workloads_per_sec(total))
      .end_object()
      .key("cache")
      .begin_object()
      .member("cold_seconds", report.cache_cold_seconds)
      .member("warm_seconds", report.cache_warm_seconds)
      .member("warm_speedup", report.cache_warm_speedup())
      .end_object()
      .end_object();
  return json.str() + "\n";
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::string_view(argv[1]) == kCachePhaseFlag) {
    if (argc != 3) {
      std::fprintf(stderr, "usage: bench_corpus %s DIR\n",
                   std::string(kCachePhaseFlag).c_str());
      return 2;
    }
    return run_cache_phase(argv[2]);
  }
  const std::string self = argv[0];
  std::string path;
  if (!bench::parse_bench_args(argc, argv,
                               {"bench_corpus", "BENCH_corpus.json"}, &path)) {
    return 2;
  }
  const auto& corpus = wl::default_corpus();
  const auto jobs = corpus_jobs();

  CorpusReport report;
  run_differential(report);

  pipeline::SessionPool pool;  // Private pool: cold means cold.
  report.cold_seconds = timed_fanout(jobs, pool, report, /*record_sequences=*/true);
  report.warm_seconds = timed_fanout(jobs, pool, report, /*record_sequences=*/false);

  // Scratch cache next to the artifact; wiped before the cold child so
  // cold means cold, and after the warm one so reruns start clean.
  const std::string cache_dir = path + ".cache";
  std::error_code discard;
  std::filesystem::remove_all(cache_dir, discard);
  report.cache_cold_seconds = spawn_cache_phase(self, cache_dir);
  report.cache_warm_seconds = spawn_cache_phase(self, cache_dir);
  std::filesystem::remove_all(cache_dir, discard);
  if (report.cache_cold_seconds < 0.0 || report.cache_warm_seconds < 0.0) {
    std::fprintf(stderr, "cache warm-start phases failed\n");
    return 1;
  }

  print_report(report, corpus.size());
  const std::string json = render_json(report, corpus.size());
  std::fputs(json.c_str(), stdout);

  if (!support::JsonWriter::write_file(path, json)) return 1;
  if (report.diff_fail != 0 || report.stage_failures != 0) return 1;
  return 0;
}
