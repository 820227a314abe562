// The workload generator's contracts (workloads/generator.hpp):
// determinism (same CorpusSpec + seed => byte-identical BenchC source and
// bit-identical pipeline artifacts, on any thread count), scenario
// distinctness, family coverage, oracle plausibility, and parameter
// validation.
#include "workloads/generator.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <set>
#include <vector>

#include "frontend/compile.hpp"
#include "ir/verifier.hpp"
#include "pipeline/session.hpp"
#include "support/parallel.hpp"

namespace asipfb::wl {
namespace {

CorpusSpec small_spec() {
  CorpusSpec spec;
  spec.seed = 0xABCD1234u;
  spec.count = 18;
  return spec;
}

TEST(Generator, CorpusIsByteDeterministic) {
  // The tentpole determinism contract: a spec is a pure description, so
  // generating twice yields byte-identical programs, identical inputs, and
  // identical oracle outputs.
  const auto a = corpus(small_spec());
  const auto b = corpus(small_spec());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].name, b[i].name);
    EXPECT_EQ(a[i].source, b[i].source) << a[i].name;
    EXPECT_EQ(a[i].input.float_inputs, b[i].input.float_inputs) << a[i].name;
    EXPECT_EQ(a[i].input.int_inputs, b[i].input.int_inputs) << a[i].name;
    EXPECT_EQ(a[i].outputs, b[i].outputs) << a[i].name;
    EXPECT_EQ(a[i].expected, b[i].expected) << a[i].name;
    EXPECT_EQ(a[i].expected_exit, b[i].expected_exit) << a[i].name;
  }
}

TEST(Generator, CorpusScenarioIsRandomAccess) {
  // corpus_scenario(spec, i) must equal corpus(spec)[i], so shards can
  // generate independently without materializing the whole corpus.
  const auto spec = small_spec();
  const auto all = corpus(spec);
  for (std::size_t i : {std::size_t{0}, std::size_t{7}, all.size() - 1}) {
    const Workload w = corpus_scenario(spec, i);
    EXPECT_EQ(w.name, all[i].name);
    EXPECT_EQ(w.source, all[i].source);
    EXPECT_EQ(w.expected, all[i].expected);
  }
}

TEST(Generator, DifferentSeedsProduceDifferentCorpora) {
  CorpusSpec other = small_spec();
  other.seed ^= 0xF00Du;
  const auto a = corpus(small_spec());
  const auto b = corpus(other);
  ASSERT_EQ(a.size(), b.size());
  std::size_t differing = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].source != b[i].source ||
        a[i].input.int_inputs != b[i].input.int_inputs ||
        a[i].input.float_inputs != b[i].input.float_inputs) {
      ++differing;
    }
  }
  EXPECT_GT(differing, a.size() / 2) << "seed must actually drive generation";
}

TEST(Generator, DefaultCorpusMeetsPopulationFloor) {
  // The acceptance floor: >= 50 distinct scenarios across >= 4 families,
  // every one uniquely named with unique source text and a non-empty
  // oracle reference for each output global.
  const auto& all = default_corpus();
  EXPECT_GE(all.size(), 50u);
  std::set<std::string> names, sources;
  std::set<std::string_view> families;
  for (const auto& w : all) {
    EXPECT_TRUE(names.insert(w.name).second) << "duplicate name " << w.name;
    EXPECT_TRUE(sources.insert(w.source).second) << "duplicate source " << w.name;
    ASSERT_FALSE(w.outputs.empty()) << w.name;
    for (const auto& g : w.outputs) {
      const auto it = w.expected.find(g);
      ASSERT_NE(it, w.expected.end()) << w.name << " missing oracle for " << g;
      EXPECT_FALSE(it->second.empty()) << w.name << "." << g;
    }
    ASSERT_TRUE(w.expected_exit.has_value()) << w.name;
    // Name prefix identifies the family.
    ASSERT_FALSE(family_of(w.name).empty()) << w.name;
    families.insert(family_of(w.name));
  }
  EXPECT_GE(families.size(), 4u);
}

TEST(Generator, EveryDefaultScenarioCompilesAndVerifies) {
  for (const auto& w : default_corpus()) {
    ir::Module m;
    ASSERT_NO_THROW(m = fe::compile_benchc(w.source, w.name))
        << w.name << "\n" << w.source;
    EXPECT_TRUE(ir::verify(m).empty()) << w.name;
    for (const auto& g : w.outputs) {
      EXPECT_GE(m.find_global(g), 0) << w.name << "." << g;
    }
  }
}

TEST(Generator, PipelineArtifactsBitIdenticalAcrossRunsAndThreadCounts) {
  // End-to-end determinism: the same generated scenarios, analyzed by one
  // standalone Session each on this thread and by Sessions from one pool
  // on four threads (two tasks per scenario, so tasks share Sessions),
  // must produce field-identical detection results.
  const auto spec = small_spec();
  std::vector<Workload> scenarios;
  for (std::size_t i = 0; i < 6; ++i) scenarios.push_back(corpus_scenario(spec, i));

  std::vector<chain::DetectionResult> serial;
  for (const auto& w : scenarios) {
    const pipeline::Session session(w.source, w.name, w.input);
    serial.push_back(session.detection(opt::OptLevel::O1));
  }

  pipeline::SessionPool pool;
  std::vector<std::optional<chain::DetectionResult>> parallel(2 * scenarios.size());
  parallel_for(parallel.size(), 4, [&](std::size_t i) {
    const Workload& w = scenarios[i % scenarios.size()];
    try {
      parallel[i] = pool.get(w.name, w.source, w.input)->detection(opt::OptLevel::O1);
    } catch (...) {
    }
  });
  EXPECT_EQ(pool.size(), scenarios.size());
  for (std::size_t i = 0; i < parallel.size(); ++i) {
    const std::string& name = scenarios[i % scenarios.size()].name;
    ASSERT_TRUE(parallel[i].has_value()) << name;
    const auto& da = serial[i % scenarios.size()];
    const auto& db = *parallel[i];
    EXPECT_EQ(da.total_cycles, db.total_cycles) << name;
    EXPECT_EQ(da.paths, db.paths) << name;
    ASSERT_EQ(da.sequences.size(), db.sequences.size()) << name;
    for (std::size_t k = 0; k < da.sequences.size(); ++k) {
      EXPECT_EQ(da.sequences[k].signature, db.sequences[k].signature);
      EXPECT_EQ(da.sequences[k].cycles, db.sequences[k].cycles);
      EXPECT_EQ(da.sequences[k].occurrences, db.sequences[k].occurrences);
      EXPECT_EQ(da.sequences[k].frequency, db.sequences[k].frequency);
    }
  }
}

TEST(Generator, FamilySubsetSpecRoundRobins) {
  CorpusSpec spec;
  spec.seed = 7;
  spec.count = 6;
  spec.families = {Family::kDft, Family::kHistEq};
  const auto all = corpus(spec);
  ASSERT_EQ(all.size(), 6u);
  for (std::size_t i = 0; i < all.size(); ++i) {
    const std::string prefix = i % 2 == 0 ? "gen_dft_" : "gen_histeq_";
    EXPECT_EQ(all[i].name.rfind(prefix, 0), 0u) << all[i].name;
  }
}

TEST(Generator, IntegerFirSaturatesToAccumulatorWidth) {
  FirParams p;
  p.taps = 16;
  p.length = 64;
  p.integer = true;
  p.acc_shift = 0;  // Keep the full accumulator so saturation must engage.
  p.sat_bits = 8;
  const Workload w = make_fir_scenario(p, 0x1234, "sat_probe");
  bool clipped = false;
  for (std::int32_t v : w.expected.at("y")) {
    EXPECT_GE(v, -128);
    EXPECT_LE(v, 127);
    if (v == -128 || v == 127) clipped = true;
  }
  EXPECT_TRUE(clipped) << "probe parameters should actually exercise saturation";
}

TEST(Generator, FamilyOfAndOracleMatchesHelpers) {
  EXPECT_EQ(family_of("gen_conv2d_003"), "conv2d");
  EXPECT_EQ(family_of("gen_fused_095"), "fused");
  EXPECT_EQ(family_of("fir"), "");        // Not a generated name.
  EXPECT_EQ(family_of("gen_broken"), ""); // No index segment.

  const Workload w = corpus_scenario(small_spec(), 0);
  ASSERT_TRUE(w.expected_exit.has_value());
  EXPECT_TRUE(oracle_matches(w, *w.expected_exit, w.expected));
  EXPECT_FALSE(oracle_matches(w, *w.expected_exit + 1, w.expected))
      << "exit-code mismatch must fail the check";
  EXPECT_FALSE(oracle_matches(w, *w.expected_exit, {}))
      << "missing outputs must fail the check";
  EXPECT_FALSE(oracle_matches(workload("fir"), 0, {}))
      << "suite workloads carry no oracle, so nothing can match";
}

TEST(Generator, InvalidParametersThrow) {
  EXPECT_THROW((void)make_fir_scenario({.taps = 0}, 1, "x"),
               std::invalid_argument);
  EXPECT_THROW((void)make_fir_scenario({.taps = 8, .length = 4}, 1, "x"),
               std::invalid_argument);
  EXPECT_THROW((void)make_dft_scenario({.points = 1}, 1, "x"),
               std::invalid_argument);
  EXPECT_THROW((void)make_conv2d_scenario({.kernel = kConvKernelCount}, 1, "x"),
               std::invalid_argument);
  EXPECT_THROW((void)make_histeq_scenario({.levels = 1}, 1, "x"),
               std::invalid_argument);
  EXPECT_THROW((void)corpus(CorpusSpec{.count = 0}), std::invalid_argument);
  EXPECT_THROW((void)corpus(CorpusSpec{.families = {}}), std::invalid_argument);
  EXPECT_THROW((void)corpus_scenario(CorpusSpec{.count = 3}, 3),
               std::invalid_argument);
}

}  // namespace
}  // namespace asipfb::wl
