// The mutator's contract (workloads/mutate.hpp), tested directly: every
// rewrite kind produces source that differs from the original while the
// simulated outputs, exit code, and the original workload's oracle
// expectations stay bit-identical — for single rewrites and for 0..N
// stacked ones.
#include "workloads/mutate.hpp"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "pipeline/driver.hpp"
#include "workloads/differential.hpp"
#include "workloads/generator.hpp"

namespace asipfb::wl {
namespace {

/// A structurally diverse slice of the generator: integer and float
/// datapaths, loops with breaks, a multi-function call graph, and shifts.
const std::vector<Workload>& probe_workloads() {
  static const std::vector<Workload> shared = [] {
    std::vector<Workload> out;
    FirParams fir;
    fir.taps = 4;
    fir.length = 48;
    fir.integer = true;
    out.push_back(make_fir_scenario(fir, 11, "probe_fir_int"));
    FirParams firf;
    firf.taps = 4;
    firf.length = 48;
    out.push_back(make_fir_scenario(firf, 12, "probe_fir_float"));
    RleParams rle;
    rle.length = 48;
    out.push_back(make_rle_scenario(rle, 13, "probe_rle"));
    CallsParams calls;
    calls.width = 8;
    calls.height = 8;
    out.push_back(make_calls_scenario(calls, 14, "probe_calls"));
    FftParams fft;
    fft.points = 16;
    out.push_back(make_fft_scenario(fft, 15, "probe_fft"));
    return out;
  }();
  return shared;
}

/// A hand-written program with same-operator integer chains, so the
/// reassociation rewrite demonstrably has eligible sites.
constexpr const char* kChainSource = R"(int out0[4];
int checksum;
int main() {
  int i;
  int a = 3;
  int b = 5;
  int c = 7;
  for (i = 0; i < 4; i++) {
    out0[i] = a + b + c + i;
    a = a + i * b * c;
  }
  int s = 0;
  for (i = 0; i < 4; i++) {
    s += out0[i];
  }
  checksum = s;
  return s;
}
)";

Workload with_source(const Workload& w, std::string source) {
  Workload copy = w;
  copy.source = std::move(source);
  return copy;
}

pipeline::ExecutionResult run(const std::string& source,
                              const pipeline::WorkloadInput& input,
                              const std::vector<std::string>& outputs) {
  auto prepared = pipeline::prepare(source, "mutant", input);
  return pipeline::execute(prepared.module, input, outputs);
}

TEST(Mutate, EveryRewriteKindPreservesBehavior) {
  // Each rewrite kind must fire on at least one probe program, and every
  // firing must change the text without changing the observed behavior or
  // invalidating the original oracle expectations.
  std::set<Rewrite> fired;
  for (const Workload& w : probe_workloads()) {
    for (Rewrite kind : all_rewrites()) {
      const auto mutated = apply_rewrite(w.source, kind, 0xA11CEu);
      if (!mutated.has_value()) continue;
      fired.insert(kind);
      EXPECT_NE(mutated->source, w.source)
          << w.name << " " << to_string(kind) << ": rewrite was a no-op";
      ASSERT_EQ(mutated->applied.size(), 1u);
      EXPECT_EQ(mutated->applied[0], kind);
      const auto outcome = check_workload(with_source(w, mutated->source));
      EXPECT_TRUE(outcome.ok())
          << w.name << " " << to_string(kind) << ": " << outcome.error << "\n"
          << mutated->source;
    }
  }
  // The generated kernels rarely contain same-op chains, so reassociation
  // gets its own dedicated probe below; everything else must fire here.
  for (Rewrite kind : all_rewrites()) {
    if (kind == Rewrite::kReassociate) continue;
    EXPECT_TRUE(fired.count(kind) != 0)
        << to_string(kind) << " never found an eligible site";
  }
}

TEST(Mutate, ReassociationFiresOnChainsAndPreservesResults) {
  const pipeline::WorkloadInput no_input;
  const std::vector<std::string> outputs{"out0", "checksum"};
  const auto base = run(kChainSource, no_input, outputs);
  const auto mutated =
      apply_rewrite(kChainSource, Rewrite::kReassociate, 0xBEEFu);
  ASSERT_TRUE(mutated.has_value()) << "no reassociable site in chain program";
  EXPECT_NE(mutated->source, kChainSource);
  const auto got = run(mutated->source, no_input, outputs);
  EXPECT_EQ(got.exit_code, base.exit_code);
  EXPECT_EQ(got.outputs, base.outputs) << mutated->source;
}

TEST(Mutate, StackedMutationsPreserveOracleExpectations) {
  // 0..N stacked rewrites: the mutated program must keep satisfying the
  // ORIGINAL workload's oracle (outputs + exit), at every level.
  // Step/cycle counts are exempt by contract.
  for (const Workload& w : probe_workloads()) {
    std::string previous;
    for (int count : {0, 1, 2, 4, 8}) {
      const MutationResult m = mutate(w.source, /*seed=*/w.name.size(), count);
      EXPECT_LE(m.applied.size(), static_cast<std::size_t>(count)) << w.name;
      if (count >= 1) {
        EXPECT_FALSE(m.applied.empty())
            << w.name << ": no rewrite applied anywhere";
        EXPECT_NE(m.source, w.source) << w.name;
      }
      // Stacking more rewrites keeps changing the program text.
      if (count >= 2) {
        EXPECT_NE(m.source, previous) << w.name << " N=" << count;
      }
      previous = m.source;
      const auto outcome = check_workload(with_source(w, m.source));
      EXPECT_TRUE(outcome.ok())
          << w.name << " N=" << count << ": " << outcome.error << "\n"
          << m.source;
    }
  }
}

TEST(Mutate, DeterministicInSourceSeedAndCount) {
  const Workload& w = probe_workloads()[2];  // probe_rle
  const auto a = mutate(w.source, 0x5EED, 6);
  const auto b = mutate(w.source, 0x5EED, 6);
  EXPECT_EQ(a.source, b.source);
  EXPECT_EQ(a.applied, b.applied);
  const auto c = mutate(w.source, 0x5EEE, 6);
  EXPECT_NE(c.source, a.source) << "different seed produced identical mutant";
}

TEST(Mutate, ZeroCountRoundTripIsSemanticallyIdentity) {
  for (const Workload& w : probe_workloads()) {
    const MutationResult m = mutate(w.source, 7, 0);
    EXPECT_TRUE(m.applied.empty());
    const auto outcome = check_workload(with_source(w, m.source));
    EXPECT_TRUE(outcome.ok()) << w.name << ": " << outcome.error;
  }
}

}  // namespace
}  // namespace asipfb::wl
