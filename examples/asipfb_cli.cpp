// asipfb_cli: run the full compiler-feedback flow on your own BenchC file,
// or on a generated corpus of parameterized scenarios.
//
//   $ ./examples/asipfb_cli kernel.bc [options]
//   $ ./examples/asipfb_cli --corpus 24 [--seed S] [options]
//   $ ./examples/asipfb_cli --help
//
// Run with --help for the full flag reference.
//
// Input data: all globals start zeroed; seed arrays from inside main (the
// bundled benchmarks show the pattern), or extend WorkloadInput binding here.
// Corpus scenarios carry their own deterministic inputs and oracle outputs.
#include <climits>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>

#include "asip/extension.hpp"
#include "cache/store.hpp"
#include "chain/report.hpp"
#include "examples/flag_parse.hpp"
#include "ir/printer.hpp"
#include "opt/ilp.hpp"
#include "pipeline/session.hpp"
#include "support/table.hpp"
#include "workloads/generator.hpp"

using namespace asipfb;

namespace {

struct CliOptions {
  std::string file;
  opt::OptLevel level = opt::OptLevel::O1;
  chain::DetectorOptions detector;
  bool run_coverage = false;
  chain::CoverageOptions coverage;
  bool run_ilp = false;
  double asip_area = -1.0;
  bool dump_ir = false;
  std::string cache_dir;
  bool help = false;
  int corpus_count = 0;  ///< > 0 selects corpus mode (no input file needed).
  std::uint64_t corpus_seed = wl::CorpusSpec{}.seed;
};

void print_usage(std::FILE* out) {
  std::fprintf(out,
               "usage: asipfb_cli <file.bc> [options]\n"
               "       asipfb_cli --corpus N [--seed S] [options]\n"
               "\n"
               "Runs the paper's compiler-feedback flow: compile BenchC to\n"
               "three-address code, simulate + profile, optimize, and report\n"
               "the chainable operation sequences an ASIP designer should\n"
               "turn into chained instructions.\n"
               "\n"
               "modes:\n"
               "  <file.bc>            analyze one BenchC program (globals start\n"
               "                       zeroed; seed arrays from inside main)\n"
               "  --corpus N           generate N deterministic scenarios from the\n"
               "                       parameterized workload families (FIR, IIR,\n"
               "                       DFT, conv2d, histeq, fused pipelines), check\n"
               "                       each simulation against its C++ oracle, and\n"
               "                       print a per-family analysis summary\n"
               "  --help               print this help and exit\n"
               "\n"
               "analysis options:\n"
               "  --level O0|O1|O2     optimization level for analysis  (default O1)\n"
               "  --min N              minimum sequence length (>= 1)   (default 2)\n"
               "  --max N              maximum sequence length (>= min) (default 5)\n"
               "  --coverage           run the iterative coverage analysis too\n"
               "  --floor P            coverage significance floor      (default 4.0)\n"
               "  --asip AREA          propose chained instructions under an area\n"
               "                       budget (adder-equivalent units)\n"
               "  --ilp                print ops/cycle at issue widths 1/2/4/8\n"
               "  --dump-ir            print the optimized 3-address code\n"
               "  --cache-dir DIR      persistent artifact cache: profiled\n"
               "                       baselines and analysis artifacts are read\n"
               "                       from DIR when valid and written back after\n"
               "                       cold computes (warm-starts repeated runs)\n"
               "\n"
               "corpus options:\n"
               "  --seed S             corpus master seed               (default %llu)\n",
               static_cast<unsigned long long>(wl::CorpusSpec{}.seed));
}

int usage_error() {
  print_usage(stderr);
  return 2;
}

bool parse_args(int argc, char** argv, CliOptions& options) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    if (arg == "--help" || arg == "-h") {
      options.help = true;
      return true;
    } else if (arg == "--level") {
      const char* v = next();
      if (v == nullptr) return false;
      const auto level = opt::parse_opt_level(v);
      if (!level.has_value()) return false;
      options.level = *level;
    } else if (arg == "--min") {
      const auto v = examples::parse_int_flag(next(), 1, INT_MAX);
      if (!v) return false;
      options.detector.min_length = static_cast<int>(*v);
      options.coverage.min_length = options.detector.min_length;
    } else if (arg == "--max") {
      const auto v = examples::parse_int_flag(next(), 1, INT_MAX);
      if (!v) return false;
      options.detector.max_length = static_cast<int>(*v);
      options.coverage.max_length = options.detector.max_length;
    } else if (arg == "--coverage") {
      options.run_coverage = true;
    } else if (arg == "--floor") {
      const auto floor = examples::parse_double_flag(next());
      if (!floor || !std::isfinite(*floor)) return false;
      options.coverage.floor_percent = *floor;
    } else if (arg == "--ilp") {
      options.run_ilp = true;
    } else if (arg == "--asip") {
      const auto area = examples::parse_double_flag(next());
      if (!area || !std::isfinite(*area)) return false;
      options.asip_area = *area;
    } else if (arg == "--dump-ir") {
      options.dump_ir = true;
    } else if (arg == "--cache-dir") {
      const char* v = next();
      if (v == nullptr || *v == '\0') return false;
      options.cache_dir = v;
    } else if (arg == "--corpus") {
      const auto v = examples::parse_int_flag(next(), 1, INT_MAX);
      if (!v) return false;
      options.corpus_count = static_cast<int>(*v);
    } else if (arg == "--seed") {
      const auto seed = examples::parse_u64_flag(next());
      if (!seed) return false;
      options.corpus_seed = *seed;
    } else if (!arg.empty() && arg[0] != '-') {
      options.file = arg;
    } else {
      return false;
    }
  }
  // Checked after every flag, so "--max 3 --min 4" is caught in either order.
  if (options.detector.max_length < options.detector.min_length) return false;
  return !options.file.empty() || options.corpus_count > 0;
}

/// One-file mode: the whole CLI run is driven by one Session, so the
/// optimized module computed for detection is reused by
/// --coverage/--ilp/--dump-ir and the coverage behind --coverage is reused
/// by --asip, instead of each flag re-running the pipeline.
int run_file(const CliOptions& options,
             const std::shared_ptr<cache::Store>& store) {
  std::ifstream in(options.file);
  if (!in) {
    std::fprintf(stderr, "error: cannot open %s\n", options.file.c_str());
    return 1;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();

  pipeline::WorkloadInput input;
  const pipeline::Session session(buffer.str(), options.file, input, store);
  std::printf("%s: %llu dynamic operations, main returned %d\n\n",
              options.file.c_str(),
              static_cast<unsigned long long>(session.total_cycles()),
              session.prepared().baseline_run.exit_code);

  const auto& detection = session.detection(options.level, options.detector);
  std::printf("--- chainable sequences at %s ---\n%s\n",
              std::string(opt::to_string(options.level)).c_str(),
              chain::render_top_sequences(detection, 20).c_str());

  if (options.run_coverage) {
    const auto& coverage = session.coverage(options.level, options.coverage);
    std::printf("--- coverage ---\n%s\n", chain::render_coverage(coverage).c_str());
  }
  if (options.asip_area > 0.0) {
    asip::SelectionOptions selection;
    selection.area_budget = options.asip_area;
    const auto& proposal =
        session.extension(options.level, selection, {}, options.coverage);
    std::printf("--- ASIP extension proposal ---\n%s\n",
                asip::render_proposal(proposal).c_str());
  }

  if (options.run_ilp) {
    const ir::Module& variant = session.optimized(options.level);
    std::printf("--- ILP (ops/cycle) ---\n");
    for (int width : {1, 2, 4, 8}) {
      std::printf("  width %d: %.2f\n", width,
                  opt::measure_ilp(variant, width).ops_per_cycle);
    }
    std::printf("\n");
  }

  if (options.dump_ir) {
    const ir::Module& variant = session.optimized(options.level);
    std::printf("--- optimized 3-address code ---\n%s\n",
                ir::to_string(variant, /*with_counts=*/true).c_str());
  }
  return 0;
}

/// Corpus mode: generate, oracle-check, and analyze N scenarios.
int run_corpus(const CliOptions& options,
               const std::shared_ptr<cache::Store>& store) {
  wl::CorpusSpec spec;
  spec.seed = options.corpus_seed;
  spec.count = static_cast<std::size_t>(options.corpus_count);
  const auto corpus = wl::corpus(spec);

  struct FamilyRow {
    int scenarios = 0;
    int oracle_pass = 0;
    std::uint64_t dynamic_ops = 0;
    std::uint64_t sequences = 0;
  };
  std::map<std::string, FamilyRow> rows;
  int failures = 0;

  for (const auto& w : corpus) {
    FamilyRow& row = rows[std::string(wl::family_of(w.name))];
    ++row.scenarios;
    try {
      const pipeline::Session session(w.source, w.name, w.input, store);
      auto module = session.prepared().module;  // Private copy for re-execution.
      const auto run = pipeline::execute(module, w.input, w.outputs);
      if (wl::oracle_matches(w, run.exit_code, run.outputs)) {
        ++row.oracle_pass;
      } else {
        ++failures;
        std::fprintf(stderr, "sim-vs-oracle MISMATCH in %s\n", w.name.c_str());
      }
      row.dynamic_ops += session.total_cycles();
      row.sequences +=
          session.detection(options.level, options.detector).sequences.size();
    } catch (const std::exception& e) {
      ++failures;
      std::fprintf(stderr, "error in %s: %s\n", w.name.c_str(), e.what());
    }
  }

  std::printf("=== generated corpus: %zu scenarios, seed 0x%llx, %s ===\n",
              corpus.size(),
              static_cast<unsigned long long>(spec.seed),
              std::string(opt::to_string(options.level)).c_str());
  TextTable table({"Family", "Scenarios", "Oracle pass", "Dynamic ops",
                   "Sequences"});
  for (const auto& [name, row] : rows) {
    table.add_row({name, std::to_string(row.scenarios),
                   std::to_string(row.oracle_pass),
                   std::to_string(row.dynamic_ops),
                   std::to_string(row.sequences)});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("oracle differential: %zu/%zu pass\n", corpus.size() - failures,
              corpus.size());
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions options;
  if (!parse_args(argc, argv, options)) return usage_error();
  if (options.help) {
    print_usage(stdout);
    return 0;
  }
  try {
    std::shared_ptr<cache::Store> store;
    if (!options.cache_dir.empty()) {
      cache::StoreOptions store_options;
      store_options.dir = options.cache_dir;
      store = std::make_shared<cache::Store>(std::move(store_options));
    }
    const int rc = options.corpus_count > 0 ? run_corpus(options, store)
                                            : run_file(options, store);
    if (store != nullptr) {
      const cache::StoreStats s = store->stats();
      std::fprintf(stderr,
                   "asipfb_cli: cache summary: dir=%s hits=%llu misses=%llu "
                   "writes=%llu evictions=%llu corrupt=%llu\n",
                   store->dir().c_str(),
                   static_cast<unsigned long long>(s.hits),
                   static_cast<unsigned long long>(s.misses),
                   static_cast<unsigned long long>(s.writes),
                   static_cast<unsigned long long>(s.evictions),
                   static_cast<unsigned long long>(s.corrupt));
    }
    return rc;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
