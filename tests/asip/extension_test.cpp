#include "asip/extension.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>

#include "pipeline/session.hpp"

namespace asipfb::asip {
namespace {

using chain::CoverageResult;
using chain::CoverageStep;
using chain::Signature;
using ir::ChainClass;

CoverageStep step(std::vector<ChainClass> classes, std::uint64_t weight_sum) {
  CoverageStep s;
  s.signature = Signature{std::move(classes)};
  s.cycles = weight_sum * s.signature.length();
  s.occurrences_taken = 1;
  s.frequency = 10.0;
  return s;
}

TEST(Extension, SavingsComputedFromCoverage) {
  CoverageResult coverage;
  coverage.total_cycles = 10000;
  coverage.steps.push_back(step({ChainClass::Multiply, ChainClass::Add}, 500));
  const auto proposal = propose_extensions(coverage, 10000);
  ASSERT_EQ(proposal.candidates.size(), 1u);
  // 500 occurrences-weight of a 2-op chain saves 500 cycles.
  EXPECT_EQ(proposal.candidates[0].cycles_saved, 500u);
  ASSERT_EQ(proposal.selected.size(), 1u);
  EXPECT_EQ(proposal.customized_cycles, 9500u);
  EXPECT_NEAR(proposal.speedup(), 10000.0 / 9500.0, 1e-12);
}

TEST(Extension, LongerChainsSaveMore) {
  CoverageResult coverage;
  coverage.total_cycles = 10000;
  coverage.steps.push_back(
      step({ChainClass::Add, ChainClass::Multiply, ChainClass::Add}, 300));
  const auto proposal = propose_extensions(coverage, 10000);
  EXPECT_EQ(proposal.candidates[0].cycles_saved, 600u) << "(L-1) * weight";
}

TEST(Extension, AreaBudgetRespected) {
  CoverageResult coverage;
  coverage.total_cycles = 10000;
  coverage.steps.push_back(step({ChainClass::Multiply, ChainClass::Add}, 100));
  coverage.steps.push_back(step({ChainClass::Add, ChainClass::Add}, 90));
  coverage.steps.push_back(step({ChainClass::Shift, ChainClass::Add}, 80));
  SelectionOptions options;
  options.area_budget = 3.0;  // Multiplier (8+) cannot fit.
  const auto proposal = propose_extensions(coverage, 10000, {}, options);
  EXPECT_LE(proposal.total_area, 3.0);
  for (const auto& selected : proposal.selected) {
    EXPECT_NE(selected.signature.classes[0], ChainClass::Multiply);
  }
  EXPECT_FALSE(proposal.selected.empty());
}

TEST(Extension, CycleBudgetRejectsSlowChains) {
  CoverageResult coverage;
  coverage.total_cycles = 10000;
  coverage.steps.push_back(
      step({ChainClass::FDivide, ChainClass::FDivide}, 500));  // 20 delays.
  SelectionOptions options;
  options.cycle_budget = 5.0;
  const auto proposal = propose_extensions(coverage, 10000, {}, options);
  EXPECT_TRUE(proposal.selected.empty());
  ASSERT_EQ(proposal.candidates.size(), 1u);
  EXPECT_FALSE(proposal.candidates[0].fits_cycle);
  EXPECT_EQ(proposal.customized_cycles, 10000u);
}

TEST(Extension, GreedyPrefersDenserSavings) {
  CoverageResult coverage;
  coverage.total_cycles = 100000;
  // Cheap adder chain saving a lot vs expensive divider chain saving little.
  coverage.steps.push_back(step({ChainClass::Add, ChainClass::Add}, 5000));
  coverage.steps.push_back(step({ChainClass::Divide, ChainClass::Add}, 100));
  SelectionOptions options;
  options.area_budget = 4.0;  // Only the adder chain fits.
  const auto proposal = propose_extensions(coverage, 100000, {}, options);
  ASSERT_EQ(proposal.selected.size(), 1u);
  EXPECT_EQ(proposal.selected[0].signature.to_string(), "add-add");
}

TEST(Extension, EmptyCoverageNoSpeedup) {
  CoverageResult coverage;
  coverage.total_cycles = 500;
  const auto proposal = propose_extensions(coverage, 500);
  EXPECT_TRUE(proposal.selected.empty());
  EXPECT_DOUBLE_EQ(proposal.speedup(), 1.0);
}

TEST(Extension, NonFiniteOrNegativeBudgetsThrow) {
  CoverageResult coverage;
  coverage.total_cycles = 10000;
  coverage.steps.push_back(step({ChainClass::Multiply, ChainClass::Add}, 500));
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const double bad : {nan, inf, -inf, -1.0}) {
    SelectionOptions area;
    area.area_budget = bad;
    EXPECT_THROW((void)propose_extensions(coverage, 10000, {}, area),
                 std::invalid_argument)
        << "area " << bad;
    SelectionOptions cycle;
    cycle.cycle_budget = bad;
    EXPECT_THROW((void)propose_extensions(coverage, 10000, {}, cycle),
                 std::invalid_argument)
        << "cycle " << bad;
  }
  // Zero budgets are valid and select nothing.
  SelectionOptions zero;
  zero.area_budget = 0.0;
  zero.cycle_budget = 0.0;
  EXPECT_TRUE(propose_extensions(coverage, 10000, {}, zero).selected.empty());
}

TEST(Extension, SessionLatchesABudgetError) {
  const pipeline::Session session(
      "int main() { int a = 2; int b = 3; int c = 4; return a * b + c; }",
      "latch", pipeline::WorkloadInput{});
  SelectionOptions options;
  options.area_budget = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW((void)session.extension(opt::OptLevel::O1, options),
               std::runtime_error);
  EXPECT_THROW((void)session.extension(opt::OptLevel::O1, options),
               std::runtime_error);
  EXPECT_EQ(session.stats().extension_runs, 1u) << "the error is latched";
  (void)session.extension(opt::OptLevel::O1);  // Valid budgets still serve.
  EXPECT_EQ(session.stats().extension_runs, 2u);
}

TEST(Extension, RenderContainsSelections) {
  CoverageResult coverage;
  coverage.total_cycles = 10000;
  coverage.steps.push_back(step({ChainClass::Multiply, ChainClass::Add}, 500));
  const auto proposal = propose_extensions(coverage, 10000);
  const std::string out = render_proposal(proposal);
  EXPECT_NE(out.find("multiply-add"), std::string::npos);
  EXPECT_NE(out.find("speedup"), std::string::npos);
  EXPECT_NE(out.find("yes"), std::string::npos);
}

}  // namespace
}  // namespace asipfb::asip
