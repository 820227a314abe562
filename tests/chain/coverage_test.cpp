#include "chain/coverage.hpp"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <stdexcept>

#include "frontend/compile.hpp"
#include "opt/cleanup.hpp"
#include "pipeline/session.hpp"
#include "sim/machine.hpp"
#include "workloads/suite.hpp"

namespace asipfb::chain {
namespace {

ir::Module profiled(std::string_view src) {
  auto m = fe::compile_benchc(src, "cov");
  opt::canonicalize(m);
  sim::profile_run(m);
  return m;
}

const char* const kMacLoop = R"(
  int x[64];
  int g;
  int main() {
    int i;
    for (i = 0; i < 64; i++) x[i] = i;
    for (i = 0; i < 64; i++) g += x[i] * 3;
    return g;
  })";

TEST(Coverage, FindsStepsOnHotLoop) {
  auto m = profiled(kMacLoop);
  const auto result = coverage_analysis(m);
  EXPECT_FALSE(result.steps.empty());
  EXPECT_GT(result.total_coverage, 10.0);
}

TEST(Coverage, TotalIsSumOfSteps) {
  auto m = profiled(kMacLoop);
  const auto result = coverage_analysis(m);
  double sum = 0.0;
  for (const auto& step : result.steps) sum += step.frequency;
  EXPECT_NEAR(result.total_coverage, sum, 1e-9);
}

TEST(Coverage, NeverExceedsOneHundredPercent) {
  auto m = profiled(kMacLoop);
  const auto result = coverage_analysis(m);
  EXPECT_LE(result.total_coverage, 100.0 + 1e-9);
}

TEST(Coverage, StepsRespectFloor) {
  auto m = profiled(kMacLoop);
  CoverageOptions options;
  options.floor_percent = 6.0;
  const auto result = coverage_analysis(m, options);
  for (const auto& step : result.steps) {
    EXPECT_GE(step.frequency, 6.0);
  }
}

TEST(Coverage, LowerFloorFindsAtLeastAsMuch) {
  auto m = profiled(kMacLoop);
  CoverageOptions high;
  high.floor_percent = 8.0;
  CoverageOptions low;
  low.floor_percent = 2.0;
  const auto rh = coverage_analysis(m, high);
  const auto rl = coverage_analysis(m, low);
  EXPECT_GE(rl.total_coverage, rh.total_coverage - 1e-9);
  EXPECT_GE(rl.steps.size(), rh.steps.size());
}

TEST(Coverage, MaxRoundsBoundsSteps) {
  auto m = profiled(kMacLoop);
  CoverageOptions options;
  options.floor_percent = 0.5;
  options.max_rounds = 2;
  const auto result = coverage_analysis(m, options);
  EXPECT_LE(result.steps.size(), 2u);
}

TEST(Coverage, NegativeMaxRoundsIsRejected) {
  auto m = profiled(kMacLoop);
  for (const int rounds : {-1, -3}) {
    CoverageOptions options;
    options.max_rounds = rounds;
    EXPECT_THROW((void)coverage_analysis(m, options), std::invalid_argument)
        << "rounds " << rounds;
  }
  // Zero rounds is in range: it selects nothing.
  CoverageOptions none;
  none.max_rounds = 0;
  EXPECT_TRUE(coverage_analysis(m, none).steps.empty());
  // A Session latches the error: the second query rethrows it too.
  const pipeline::Session session(kMacLoop, "cov", pipeline::WorkloadInput{});
  CoverageOptions negative;
  negative.max_rounds = -1;
  for (int query = 0; query < 2; ++query) {
    EXPECT_THROW((void)session.coverage(opt::OptLevel::O1, negative),
                 std::runtime_error);
  }
}

TEST(Coverage, SignaturesAreDistinctAcrossSteps) {
  auto m = profiled(kMacLoop);
  CoverageOptions options;
  options.floor_percent = 1.0;
  const auto result = coverage_analysis(m, options);
  for (std::size_t i = 0; i < result.steps.size(); ++i) {
    for (std::size_t j = i + 1; j < result.steps.size(); ++j) {
      EXPECT_FALSE(result.steps[i].signature == result.steps[j].signature)
          << "iterative removal must not reselect a fully-covered signature "
          << result.steps[i].signature.to_string();
    }
  }
}

TEST(Coverage, CyclesMatchFrequencies) {
  auto m = profiled(kMacLoop);
  const auto result = coverage_analysis(m);
  for (const auto& step : result.steps) {
    EXPECT_NEAR(step.frequency,
                100.0 * static_cast<double>(step.cycles) /
                    static_cast<double>(result.total_cycles),
                1e-9);
    EXPECT_GT(step.occurrences_taken, 0u);
  }
}

TEST(Coverage, EmptyProgramNoSteps) {
  auto m = profiled("int main() { return 0; }");
  const auto result = coverage_analysis(m);
  EXPECT_TRUE(result.steps.empty());
  EXPECT_EQ(result.total_coverage, 0.0);
}

TEST(Coverage, AdjacencyModeCoversNoMoreThanFull) {
  auto m = profiled(kMacLoop);
  CoverageOptions adjacent;
  adjacent.require_adjacency = true;
  const auto ra = coverage_analysis(m, adjacent);
  const auto rf = coverage_analysis(m);
  EXPECT_LE(ra.total_coverage, rf.total_coverage + 1e-9);
}

TEST(Coverage, ExternalDenominator) {
  auto m = profiled(kMacLoop);
  const std::uint64_t total = m.total_dynamic_ops();
  const auto half_base = coverage_analysis(m, {}, total * 2);
  const auto full_base = coverage_analysis(m, {}, total);
  // Doubling the denominator halves frequencies (same cycles covered),
  // although the floor may then cut steps earlier.
  if (!half_base.steps.empty() && !full_base.steps.empty()) {
    EXPECT_LT(half_base.steps[0].frequency, full_base.steps[0].frequency);
  }
  EXPECT_EQ(half_base.total_cycles, total * 2);
}

TEST(Coverage, CommittedMatchesAreDisjointAndSpellTheirSignature) {
  // Every suite workload at every level, with the pipeline's coverage
  // options: each match is an occurrence of its step's signature, no
  // operation is fused twice across all steps, and every occurrence a
  // step counts is one of its matches.
  for (const auto& w : wl::suite()) {
    const pipeline::Session session(w.source, w.name, w.input);
    for (const auto level :
         {opt::OptLevel::O0, opt::OptLevel::O1, opt::OptLevel::O2}) {
      SCOPED_TRACE(w.name + " at " + std::string(opt::to_string(level)));
      const ir::Module& module = session.optimized(level);
      std::map<OpRef, ir::ChainClass> chain_class;
      for (std::size_t f = 0; f < module.functions.size(); ++f) {
        for (const auto& block : module.functions[f].blocks) {
          for (const auto& instr : block.instrs) {
            chain_class[{static_cast<ir::FuncId>(f), instr.id}] =
                instr.chain_class();
          }
        }
      }

      std::set<OpRef> seen;
      for (const auto& step : session.coverage(level).steps) {
        EXPECT_EQ(step.occurrences_taken, step.matches.size());
        for (const auto& match : step.matches) {
          ASSERT_EQ(match.size(), step.signature.length());
          for (std::size_t k = 0; k < match.size(); ++k) {
            ASSERT_EQ(chain_class.count(match[k]), 1u);
            EXPECT_EQ(chain_class.at(match[k]), step.signature.classes[k])
                << step.signature.to_string();
            EXPECT_TRUE(seen.insert(match[k]).second)
                << "operation fused twice by " << step.signature.to_string();
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace asipfb::chain
