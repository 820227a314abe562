// The adversarial differential gauntlet: a large generated population —
// base corpus scenarios plus oracle-preserving structural mutants of each
// (workloads/mutate.hpp) — pushed through the shared differential battery
// (workloads/differential.hpp): sim-vs-oracle and O1/O2-vs-baseline.  Any
// mismatch fails the binary.
//
// Population: `--count` base scenarios from the generator (round-robin
// over all families), each contributing `--mutants` additional programs
// carrying 1..mutants stacked rewrites but the ORIGINAL oracle
// expectations — total programs = count * (1 + mutants); a smaller
// population fails the binary too.  Per-family detection and coverage
// distributions are measured on the base scenarios (mutants share their
// structure axis, not their profile axis).
//
// Scenarios run on hardware_concurrency() threads (support/parallel.hpp).
// Each fills its own slot and the slots fold in index order, so the
// report, the JSON and the mismatch lines do not depend on the thread
// count.
//
//   bench_gauntlet [OUT.json] [--count N] [--mutants M] [--seed S]
//
// Defaults reproduce the reduced per-PR scale (125 * 4 = 500 programs);
// the scheduled CI job passes --count 2500 for the full 10,000.
#include <cstdint>
#include <cstdio>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "examples/flag_parse.hpp"
#include "pipeline/session.hpp"
#include "support/json.hpp"
#include "support/parallel.hpp"
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
};

/// min/max/sum/count of a per-scenario metric.  Merging a one-value
/// distribution is exactly add(value), so folding per-scenario slots in
/// index order sums in the same order as one serial loop would.
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

  void merge(const Distribution& other) {
    if (other.count == 0) return;
    if (count == 0 || other.min < min) min = other.min;
    if (count == 0 || other.max > max) max = other.max;
    sum += other.sum;
    count += other.count;
  }
};

struct FamilyStats {
  std::uint64_t base = 0;      ///< Base scenarios checked.
  std::uint64_t programs = 0;  ///< Base + mutants checked.
  Distribution detect_sequences;  ///< Detected sequences at O1, per base.
  Distribution coverage;          ///< Total coverage at O1, per base.
  Distribution cycles;            ///< Baseline dynamic cycles, per base.

  void merge(const FamilyStats& other) {
    base += other.base;
    programs += other.programs;
    detect_sequences.merge(other.detect_sequences);
    coverage.merge(other.coverage);
    cycles.merge(other.cycles);
  }
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
  std::string log;  ///< Mismatch lines, in scenario order.

  [[nodiscard]] std::uint64_t mismatches() const {
    return compile_fail + oracle_fail + levels_fail;
  }

  void merge(const GauntletReport& other) {
    programs += other.programs;
    base += other.base;
    mutants += other.mutants;
    compile_fail += other.compile_fail;
    oracle_fail += other.oracle_fail;
    levels_fail += other.levels_fail;
    for (const auto& [name, count] : other.rewrites) rewrites[name] += count;
    for (const auto& [name, fam] : other.families) families[name].merge(fam);
    log += other.log;
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
    report.log += "GAUNTLET MISMATCH in " + name + ": " + outcome.error + "\n";
  }
}

/// Base scenario `i` and its mutants, as a report of their own.
GauntletReport run_scenario(const GauntletConfig& config, std::size_t i) {
  GauntletReport report;
  wl::CorpusSpec spec;
  spec.seed = config.seed;
  spec.count = config.count;
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
    report.log += "GAUNTLET stage failure in " + w.name + ": " + e.what() + "\n";
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
  return report;
}

GauntletReport run_gauntlet(const GauntletConfig& config) {
  std::vector<GauntletReport> slots(config.count);
  parallel_for(config.count, 0,
               [&](std::size_t i) { slots[i] = run_scenario(config, i); });
  GauntletReport report;
  for (const GauntletReport& slot : slots) report.merge(slot);
  return report;
}

void print_report(const GauntletReport& report) {
  std::printf("=== Differential gauntlet ===\n");
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

/// Parses `[OUT.json] [--count N] [--mutants M] [--seed S]`; a malformed
/// value, a second positional or any other flag prints usage and gives
/// false.
bool parse_gauntlet_args(int argc, char** argv, GauntletConfig* config) {
  bool have_out = false;
  bool ok = true;
  for (int i = 1; i < argc && ok; ++i) {
    const std::string_view arg = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (arg == "--count") {
      const auto v = examples::parse_int_flag(value, 1, INT64_MAX);
      ok = v.has_value();
      config->count = static_cast<std::size_t>(v.value_or(0));
      ++i;
    } else if (arg == "--mutants") {
      const auto v = examples::parse_int_flag(value, 0, 64);
      ok = v.has_value();
      config->mutants = static_cast<int>(v.value_or(0));
      ++i;
    } else if (arg == "--seed") {
      const auto v = examples::parse_u64_flag(value);
      ok = v.has_value();
      config->seed = v.value_or(0);
      ++i;
    } else if (arg.empty() || arg[0] == '-' || have_out) {
      ok = false;
    } else {
      config->out_path = argv[i];
      have_out = true;
    }
  }
  if (!ok) {
    std::fprintf(stderr,
                 "usage: bench_gauntlet [OUT.json] [--count N>=1] "
                 "[--mutants 0..64] [--seed S]\n");
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  GauntletConfig config;
  if (!parse_gauntlet_args(argc, argv, &config)) return 2;

  const GauntletReport report = run_gauntlet(config);
  std::fputs(report.log.c_str(), stderr);
  print_report(report);
  const std::string json = render_json(report, config);
  std::fputs(json.c_str(), stdout);
  if (!support::JsonWriter::write_file(config.out_path, json)) return 1;
  if (report.mismatches() != 0) return 1;
  const std::uint64_t expected =
      static_cast<std::uint64_t>(config.count) *
      (1 + static_cast<std::uint64_t>(config.mutants));
  if (report.programs != expected) {
    std::fprintf(stderr, "GAUNTLET population %llu != expected %llu\n",
                 static_cast<unsigned long long>(report.programs),
                 static_cast<unsigned long long>(expected));
    return 1;
  }
  return 0;
}
