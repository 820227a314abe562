// The adversarial differential gauntlet: a large generated population —
// base corpus scenarios plus oracle-preserving structural mutants of each
// (workloads/mutate.hpp) — pushed through the shared differential battery
// (workloads/differential.hpp): sim-vs-oracle and O1/O2-vs-baseline.  Any
// mismatch fails the binary.
//
// Population: `--count` base scenarios from the generator (round-robin
// over all families), each contributing `--mutants` additional programs
// carrying 1..mutants stacked rewrites but the ORIGINAL oracle
// expectations — total programs = count * (1 + mutants).  Per-family
// detection and coverage distributions are measured on the base scenarios
// (mutants share their structure axis, not their profile axis).
//
// Sharding: `--shard I/N` processes scenarios with index % N == I and
// emits a partial JSON; tools/gauntlet.py fans shards out across
// processes and merges them (every distribution is carried as
// sum/min/max/count, so shard merges are exact).
//
//   bench_gauntlet [OUT.json] [--count N] [--mutants M] [--seed S]
//                  [--shard I/N] [--benchmark_* flags]
//
// Defaults reproduce the reduced per-PR scale (125 * 4 = 500 programs);
// the scheduled CI job passes --count 2500 for the full 10,000.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "bench/common.hpp"
#include "pipeline/driver.hpp"
#include "support/json.hpp"
#include "support/table.hpp"
#include "workloads/differential.hpp"
#include "workloads/generator.hpp"
#include "workloads/mutate.hpp"

namespace {

using namespace asipfb;

struct GauntletConfig {
  std::string out_path = "BENCH_gauntlet.json";
  std::size_t count = 125;   ///< Base scenarios (125 * (1+3) = 500 reduced).
  int mutants = 3;           ///< Mutants per base scenario.
  std::uint64_t seed = 0x5EEDC0DE5EEDC0DEull;
  std::size_t shard_index = 0;
  std::size_t shard_total = 1;
};

/// min/max/sum/count of a per-scenario metric — the shard-mergeable
/// distribution form (merge: sum+=, count+=, min=min, max=max).
struct Distribution {
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  std::uint64_t count = 0;

  void add(double v) {
    if (count == 0 || v < min) min = v;
    if (count == 0 || v > max) max = v;
    sum += v;
    ++count;
  }
};

struct FamilyStats {
  std::uint64_t base = 0;      ///< Base scenarios checked.
  std::uint64_t programs = 0;  ///< Base + mutants checked.
  Distribution detect_sequences;  ///< Detected sequences at O1, per base.
  Distribution coverage;          ///< Total coverage at O1, per base.
  Distribution cycles;            ///< Baseline dynamic cycles, per base.
};

struct GauntletReport {
  std::uint64_t programs = 0;
  std::uint64_t base = 0;
  std::uint64_t mutants = 0;
  std::uint64_t compile_fail = 0;
  std::uint64_t oracle_fail = 0;
  std::uint64_t levels_fail = 0;
  std::map<std::string, std::uint64_t> rewrites;  ///< Applied mutation counts.
  std::map<std::string, FamilyStats> families;

  [[nodiscard]] std::uint64_t mismatches() const {
    return compile_fail + oracle_fail + levels_fail;
  }
};

/// splitmix64 over (seed, base index, mutant ordinal) — every mutant's
/// rewrite schedule is independent of every other scenario's.
std::uint64_t mutant_seed(std::uint64_t seed, std::uint64_t index,
                          std::uint64_t ordinal) {
  std::uint64_t z = seed ^ (index * 0x9e3779b97f4a7c15ull) ^
                    ((ordinal + 1) * 0xbf58476d1ce4e5b9ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

void tally_outcome(const wl::DifferentialOutcome& outcome,
                   GauntletReport& report, const std::string& name) {
  if (!outcome.compiled) ++report.compile_fail;
  if (outcome.compiled && !outcome.oracle_ok) ++report.oracle_fail;
  if (outcome.compiled && !outcome.levels_ok) ++report.levels_fail;
  if (!outcome.ok()) {
    std::fprintf(stderr, "GAUNTLET MISMATCH in %s: %s\n", name.c_str(),
                 outcome.error.c_str());
  }
}

GauntletReport run_gauntlet(const GauntletConfig& config) {
  GauntletReport report;
  wl::CorpusSpec spec;
  spec.seed = config.seed;
  spec.count = config.count;
  for (std::size_t i = 0; i < config.count; ++i) {
    if (i % config.shard_total != config.shard_index) continue;
    const wl::Workload w = wl::corpus_scenario(spec, i);
    FamilyStats& fam = report.families[std::string(wl::family_of(w.name))];
    ++fam.base;
    ++fam.programs;
    ++report.base;
    ++report.programs;

    tally_outcome(wl::check_workload(w), report, w.name);

    // Profile-shape distributions on the base scenario: detection and
    // coverage at O1, denominated in the baseline profile.
    try {
      const pipeline::Session session(w.source, w.name, w.input);
      const auto& detection = session.detection(opt::OptLevel::O1);
      const auto& coverage = session.coverage(opt::OptLevel::O1);
      fam.detect_sequences.add(static_cast<double>(detection.sequences.size()));
      fam.coverage.add(coverage.total_coverage);
      fam.cycles.add(static_cast<double>(detection.total_cycles));
    } catch (const std::exception& e) {
      ++report.compile_fail;
      std::fprintf(stderr, "GAUNTLET stage failure in %s: %s\n", w.name.c_str(),
                   e.what());
    }

    // Structural mutants: 1..M stacked rewrites, original oracle.
    for (int m = 1; m <= config.mutants; ++m) {
      const wl::MutationResult mutated = wl::mutate(
          w.source, mutant_seed(config.seed, i, static_cast<std::uint64_t>(m)),
          m);
      for (wl::Rewrite r : mutated.applied) {
        ++report.rewrites[std::string(wl::to_string(r))];
      }
      wl::Workload mutant = w;
      mutant.name = w.name + "_mut" + std::to_string(m);
      mutant.source = mutated.source;
      ++fam.programs;
      ++report.mutants;
      ++report.programs;
      tally_outcome(wl::check_workload(mutant), report, mutant.name);
    }
  }
  return report;
}

void print_report(const GauntletReport& report, const GauntletConfig& config) {
  std::printf("=== Differential gauntlet (%zu-wide shard %zu/%zu) ===\n",
              config.shard_total, config.shard_index, config.shard_total);
  TextTable table({"Family", "Base", "Programs", "Seq@O1 mean", "Coverage mean",
                   "Cycles mean"});
  for (const auto& [name, fam] : report.families) {
    const auto mean = [](const Distribution& d) {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%.2f",
                    d.count != 0 ? d.sum / static_cast<double>(d.count) : 0.0);
      return std::string(buf);
    };
    table.add_row({name, std::to_string(fam.base), std::to_string(fam.programs),
                   mean(fam.detect_sequences), mean(fam.coverage),
                   mean(fam.cycles)});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf(
      "programs: %llu (%llu base + %llu mutants), mismatches: %llu "
      "(compile %llu, oracle %llu, levels %llu)\n\n",
      static_cast<unsigned long long>(report.programs),
      static_cast<unsigned long long>(report.base),
      static_cast<unsigned long long>(report.mutants),
      static_cast<unsigned long long>(report.mismatches()),
      static_cast<unsigned long long>(report.compile_fail),
      static_cast<unsigned long long>(report.oracle_fail),
      static_cast<unsigned long long>(report.levels_fail));
}

void write_distribution(support::JsonWriter& json, const char* key,
                        const Distribution& d) {
  json.key(key)
      .begin_object()
      .member("sum", d.sum)
      .member("min", d.min)
      .member("max", d.max)
      .member("count", d.count)
      .end_object();
}

std::string render_json(const GauntletReport& report,
                        const GauntletConfig& config) {
  support::JsonWriter json;
  json.begin_object()
      .member("bench", "gauntlet")
      .key("spec")
      .begin_object()
      .member("seed", config.seed)
      .member("count", static_cast<std::uint64_t>(config.count))
      .member("mutants", config.mutants)
      .member("shard_index", static_cast<std::uint64_t>(config.shard_index))
      .member("shard_total", static_cast<std::uint64_t>(config.shard_total))
      .end_object()
      .key("programs")
      .begin_object()
      .member("total", report.programs)
      .member("base", report.base)
      .member("mutants", report.mutants)
      .end_object()
      .key("mismatches")
      .begin_object()
      .member("total", report.mismatches())
      .member("compile", report.compile_fail)
      .member("oracle", report.oracle_fail)
      .member("levels", report.levels_fail)
      .end_object()
      .key("rewrites")
      .begin_object();
  for (const auto& [name, count] : report.rewrites) json.member(name, count);
  json.end_object().key("families").begin_array();
  for (const auto& [name, fam] : report.families) {
    json.begin_object()
        .member("family", name)
        .member("base", fam.base)
        .member("programs", fam.programs);
    write_distribution(json, "detect_sequences", fam.detect_sequences);
    write_distribution(json, "coverage", fam.coverage);
    write_distribution(json, "cycles", fam.cycles);
    json.end_object();
  }
  json.end_array().end_object();
  return json.str() + "\n";
}

/// Strips the gauntlet-specific flags from argv (so the shared bench CLI
/// sees only its own contract); returns false on malformed values.
bool parse_gauntlet_flags(int* argc, char** argv, GauntletConfig* config) {
  int out = 1;
  bool ok = true;
  const auto take_value = [&](int& i) -> const char* {
    if (i + 1 >= *argc) {
      ok = false;
      return "";
    }
    return argv[++i];
  };
  for (int i = 1; i < *argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--count") {
      config->count = static_cast<std::size_t>(
          std::strtoull(take_value(i), nullptr, 10));
      if (config->count == 0) ok = false;
    } else if (arg == "--mutants") {
      config->mutants = static_cast<int>(std::strtol(take_value(i), nullptr, 10));
      if (config->mutants < 0 || config->mutants > 64) ok = false;
    } else if (arg == "--seed") {
      config->seed = std::strtoull(take_value(i), nullptr, 10);
    } else if (arg == "--shard") {
      unsigned long long index = 0, total = 0;
      if (std::sscanf(take_value(i), "%llu/%llu", &index, &total) != 2 ||
          total == 0 || index >= total) {
        ok = false;
      }
      config->shard_index = static_cast<std::size_t>(index);
      config->shard_total = static_cast<std::size_t>(total);
    } else {
      argv[out++] = argv[i];
    }
  }
  *argc = out;
  if (!ok) {
    std::fprintf(stderr,
                 "usage: bench_gauntlet [OUT.json] [--count N] [--mutants M] "
                 "[--seed S] [--shard I/N]\n");
  }
  return ok;
}

void BM_GauntletScenarioBattery(benchmark::State& state) {
  // Unit cost of one gauntlet entry: generate + full differential battery.
  wl::CorpusSpec spec;
  spec.count = 1;
  const wl::Workload w = wl::corpus_scenario(spec, 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(wl::check_workload(w).ok());
  }
  state.SetLabel(w.name);
}
BENCHMARK(BM_GauntletScenarioBattery)->Unit(benchmark::kMillisecond);

void BM_GauntletMutate(benchmark::State& state) {
  // Unit cost of producing one 3-rewrite mutant.
  wl::CorpusSpec spec;
  spec.count = 1;
  const wl::Workload w = wl::corpus_scenario(spec, 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(wl::mutate(w.source, 42, 3).source.size());
  }
  state.SetLabel(w.name);
}
BENCHMARK(BM_GauntletMutate)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  GauntletConfig config;
  if (!parse_gauntlet_flags(&argc, argv, &config)) return 2;
  if (!bench::parse_bench_args(&argc, argv,
                               {"bench_gauntlet", "BENCH_gauntlet.json"},
                               &config.out_path)) {
    return 2;
  }

  const GauntletReport report = run_gauntlet(config);
  print_report(report, config);
  const std::string json = render_json(report, config);
  std::fputs(json.c_str(), stdout);
  if (!support::JsonWriter::write_file(config.out_path, json)) return 1;
  if (report.mismatches() != 0) return 1;

  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
