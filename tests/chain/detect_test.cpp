#include "chain/detect.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>

#include "chain/coverage.hpp"
#include "frontend/compile.hpp"
#include "opt/cleanup.hpp"
#include "pipeline/session.hpp"
#include "sim/machine.hpp"

namespace asipfb::chain {
namespace {

ir::Module profiled(std::string_view src) {
  auto m = fe::compile_benchc(src, "det");
  opt::canonicalize(m);
  sim::profile_run(m);
  return m;
}

TEST(Detect, MacChainFoundWithFrequency) {
  auto m = profiled(
      "int main() { int a = 3; int b = 4; int c = 5; return a * b + c; }");
  const auto result = detect_sequences(m);
  const auto sig = parse_signature("multiply-add");
  ASSERT_TRUE(sig.has_value());
  EXPECT_GT(result.frequency_of(*sig), 0.0);
  EXPECT_GT(result.total_cycles, 0u);
}

TEST(Detect, FrequencyIsPercentOfTotalCycles) {
  // Straight-line: every op executes once; one multiply-add pair of
  // length 2 accounts for exactly 2 / total ops.
  auto m = profiled(
      "int main() { int a = 3; int b = 4; int c = 5; return a * b + c; }");
  const auto result = detect_sequences(m);
  const auto sig = parse_signature("multiply-add");
  const double expected =
      200.0 / static_cast<double>(result.total_cycles);
  EXPECT_NEAR(result.frequency_of(*sig), expected, 1e-9);
}

TEST(Detect, ExternalDenominatorRespected) {
  auto m = profiled("int main() { int a = 1; int b = 2; return a * b + 1; }");
  const auto result = detect_sequences(m, {}, 1000);
  EXPECT_EQ(result.total_cycles, 1000u);
  const auto sig = parse_signature("multiply-add");
  EXPECT_NEAR(result.frequency_of(*sig), 0.2, 1e-9);
}

TEST(Detect, LengthBoundsRespected) {
  auto m = profiled(R"(
    int main() {
      int a = 1; int b = 2; int c = 3; int d = 4; int e = 5; int f = 6;
      return ((((a + b) + c) + d) + e) + f;
    })");
  DetectorOptions options;
  options.min_length = 2;
  options.max_length = 3;
  const auto result = detect_sequences(m, options);
  for (const auto& stat : result.sequences) {
    EXPECT_GE(stat.signature.length(), 2u);
    EXPECT_LE(stat.signature.length(), 3u);
  }
}

TEST(Detect, SortedByDescendingFrequency) {
  auto m = profiled(R"(
    int g;
    int main() {
      int i;
      for (i = 0; i < 40; i++) g += i * 3;
      return g;
    })");
  const auto result = detect_sequences(m);
  for (std::size_t i = 1; i < result.sequences.size(); ++i) {
    EXPECT_GE(result.sequences[i - 1].frequency, result.sequences[i].frequency);
  }
}

TEST(Detect, UnexecutedCodeContributesNothing) {
  auto m = profiled(R"(
    int main() {
      int x = 1;
      if (x == 0) { int y = x * 3 + 1; return y; }  /* dead */
      return x;
    })");
  const auto result = detect_sequences(m);
  const auto sig = parse_signature("multiply-add");
  EXPECT_EQ(result.frequency_of(*sig), 0.0);
}

TEST(Detect, PruningIsSoundForHighFrequencySequences) {
  // Branch-and-bound with a 1% floor must report identical values for any
  // sequence at or above the floor.
  auto m = profiled(R"(
    int g;
    int main() {
      int i;
      for (i = 0; i < 100; i++) g += i * 7;
      return g;
    })");
  const auto exhaustive = detect_sequences(m, {});
  DetectorOptions pruned_options;
  pruned_options.prune_percent = 1.0;
  const auto pruned = detect_sequences(m, pruned_options);
  EXPECT_LE(pruned.paths, exhaustive.paths);
  for (const auto& stat : exhaustive.sequences) {
    if (stat.frequency < 1.0) continue;
    EXPECT_NEAR(pruned.frequency_of(stat.signature), stat.frequency, 1e-9)
        << stat.signature.to_string();
  }
}

TEST(Detect, AdjacencyModeIsSubsetOfFullDetection) {
  auto m = profiled(R"(
    int x[32];
    int main() {
      int i;
      for (i = 0; i < 32; i++) x[i] = i * 5 + 2;
      int s = 0;
      for (i = 0; i < 32; i++) s += x[i];
      return s;
    })");
  const auto full = detect_sequences(m);
  DetectorOptions adjacent_options;
  adjacent_options.require_adjacency = true;
  const auto adjacent = detect_sequences(m, adjacent_options);
  EXPECT_LE(adjacent.paths, full.paths);
  for (const auto& stat : adjacent.sequences) {
    EXPECT_LE(stat.frequency, full.frequency_of(stat.signature) + 1e-9)
        << stat.signature.to_string();
  }
}

TEST(Detect, OccurrenceCountsAndCyclesConsistent) {
  auto m = profiled(
      "int main() { int a = 2; int b = 3; int c = 4; return a * b + c; }");
  const auto result = detect_sequences(m);
  for (const auto& stat : result.sequences) {
    EXPECT_GT(stat.occurrences, 0u);
    EXPECT_GE(stat.cycles, stat.occurrences)
        << "each occurrence contributes at least weight 1 x length";
    EXPECT_NEAR(stat.frequency,
                100.0 * static_cast<double>(stat.cycles) /
                    static_cast<double>(result.total_cycles),
                1e-9);
  }
}

TEST(Detect, MaxOccurrencesSafetyValve) {
  auto m = profiled(R"(
    int g;
    int main() {
      int i;
      for (i = 0; i < 10; i++) g += i * 3 + i * 5 + i * 7;
      return g;
    })");
  DetectorOptions options;
  options.max_occurrences = 5;
  const auto result = detect_sequences(m, options);
  EXPECT_EQ(result.paths, 5u);

  options.max_occurrences = 0;
  const auto none = detect_sequences(m, options);
  EXPECT_EQ(none.paths, 0u);
  EXPECT_TRUE(none.sequences.empty());
}

TEST(Detect, FrequencyOfUnknownSignatureIsZero) {
  auto m = profiled("int main() { return 1; }");
  const auto result = detect_sequences(m);
  const auto sig = parse_signature("fdivide-fdivide-fdivide");
  EXPECT_EQ(result.frequency_of(*sig), 0.0);
}

TEST(Detect, OutOfRangeOptionsThrowInsteadOfMisbehaving) {
  // A negative or non-finite prune floor has no cycle bound, and lengths
  // outside 1 <= min <= max (max = -1 included) no path range.
  auto m = profiled(
      "int main() { int a = 2; int b = 3; int c = 4; return a * b + c; }");
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const double prune : {-1.0, -0.001, nan, inf, -inf}) {
    DetectorOptions options;
    options.prune_percent = prune;
    EXPECT_THROW((void)detect_sequences(m, options), std::invalid_argument)
        << "prune " << prune;
  }
  for (const auto& [min, max] : {std::pair{0, 5}, std::pair{-3, 5},
                                 std::pair{2, -1}, std::pair{4, 3}}) {
    DetectorOptions detector;
    detector.min_length = min;
    detector.max_length = max;
    EXPECT_THROW((void)detect_sequences(m, detector), std::invalid_argument)
        << "min " << min << " max " << max;
    CoverageOptions coverage;
    coverage.min_length = min;
    coverage.max_length = max;
    EXPECT_THROW((void)coverage_analysis(m, coverage), std::invalid_argument)
        << "min " << min << " max " << max;
  }
  for (const double floor : {nan, inf, -inf}) {
    CoverageOptions coverage;
    coverage.floor_percent = floor;
    EXPECT_THROW((void)coverage_analysis(m, coverage), std::invalid_argument)
        << "floor " << floor;
  }
  // The bounds themselves are in range.
  DetectorOptions single;
  single.min_length = 1;
  single.max_length = 1;
  EXPECT_FALSE(detect_sequences(m, single).sequences.empty());
  CoverageOptions negative_floor;
  negative_floor.floor_percent = -1.0;
  EXPECT_FALSE(coverage_analysis(m, negative_floor).steps.empty());
}

TEST(Detect, HugeFinitePruneFloorPrunesEverything) {
  // prune / 100 * total is past UINT64_MAX: the bound saturates there.
  auto m = profiled(
      "int main() { int a = 2; int b = 3; int c = 4; return a * b + c; }");
  ASSERT_FALSE(detect_sequences(m).sequences.empty());
  for (const double prune : {1e300, std::numeric_limits<double>::max()}) {
    DetectorOptions options;
    options.prune_percent = prune;
    const auto result = detect_sequences(m, options);
    EXPECT_EQ(result.paths, 0u) << "prune " << prune;
    EXPECT_TRUE(result.sequences.empty()) << "prune " << prune;
  }
}

TEST(Detect, SessionLatchesAnOutOfRangeOptionError) {
  const pipeline::Session session(
      "int main() { int a = 2; int b = 3; int c = 4; return a * b + c; }",
      "latch", pipeline::WorkloadInput{});
  DetectorOptions options;
  options.prune_percent = -1.0;
  EXPECT_THROW((void)session.detection(opt::OptLevel::O1, options),
               std::runtime_error);
  EXPECT_THROW((void)session.detection(opt::OptLevel::O1, options),
               std::runtime_error);
  EXPECT_EQ(session.stats().detect_runs, 1u) << "the error is latched";
  EXPECT_FALSE(session.detection(opt::OptLevel::O1).sequences.empty());
}

}  // namespace
}  // namespace asipfb::chain
