#include "asip/rewrite.hpp"

#include <gtest/gtest.h>

#include "frontend/compile.hpp"
#include "opt/cleanup.hpp"
#include "pipeline/session.hpp"
#include "sim/machine.hpp"

namespace asipfb::asip {
namespace {

const char* const kMacLoop = R"(
  int x[64];
  int g;
  int main() {
    int i;
    for (i = 0; i < 64; i++) x[i] = i - 32;
    for (i = 0; i < 64; i++) g += x[i] * 3;
    return g;
  })";

struct Fused {
  ir::Module module;
  chain::CoverageResult coverage;
  RewriteStats stats;
  std::uint64_t baseline_cycles = 0;
};

Fused fuse_mac_loop() {
  Fused out;
  pipeline::WorkloadInput input;
  const pipeline::Session session(kMacLoop, "fuse", input);
  out.baseline_cycles = session.total_cycles();
  out.module = session.optimized(opt::OptLevel::O1);
  out.coverage = chain::coverage_analysis(out.module, {}, session.total_cycles());
  out.stats = apply_fusion(out.module, out.coverage);
  return out;
}

TEST(Rewrite, FusesCommittedOccurrences) {
  auto fused = fuse_mac_loop();
  EXPECT_GT(fused.stats.occurrences_fused, 0);
  EXPECT_GT(fused.stats.ops_fused, 0);
}

TEST(Rewrite, SemanticsUnchangedByFusion) {
  auto fused = fuse_mac_loop();
  pipeline::WorkloadInput input;
  auto reference = pipeline::prepare(kMacLoop, "ref", input);
  sim::Machine machine(fused.module);
  sim::Machine ref_machine(reference.module);
  EXPECT_EQ(machine.run().exit_code, ref_machine.run().exit_code);
}

TEST(Rewrite, MeasuredCyclesDropBelowSteps) {
  auto fused = fuse_mac_loop();
  sim::Machine machine(fused.module);
  const auto run = machine.run();
  EXPECT_LT(run.cycles, run.steps);
  // Each fused follower execution saves one cycle.
  EXPECT_GT(run.steps - run.cycles, 0u);
}

TEST(Rewrite, UnfusedRunHasCyclesEqualSteps) {
  pipeline::WorkloadInput input;
  auto prepared = pipeline::prepare(kMacLoop, "plain", input);
  sim::Machine machine(prepared.module);
  const auto run = machine.run();
  EXPECT_EQ(run.cycles, run.steps);
}

TEST(Rewrite, ClearFusionRestoresFullCost) {
  auto fused = fuse_mac_loop();
  clear_fusion(fused.module);
  sim::Machine machine(fused.module);
  const auto run = machine.run();
  EXPECT_EQ(run.cycles, run.steps);
}

TEST(Rewrite, SignatureFilterRestrictsFusion) {
  auto all = fuse_mac_loop();
  // Re-fuse with a filter for a signature that does not exist.
  clear_fusion(all.module);
  const auto none_sig = chain::parse_signature("fdivide-fdivide");
  const auto stats =
      apply_fusion(all.module, all.coverage, {*none_sig});
  EXPECT_EQ(stats.occurrences_fused, 0);
}

TEST(Rewrite, MeasuredSpeedupIsReal) {
  auto fused = fuse_mac_loop();
  sim::Machine machine(fused.module);
  const auto run = machine.run();
  const double speedup = static_cast<double>(run.steps) /
                         static_cast<double>(run.cycles);
  EXPECT_GT(speedup, 1.05) << "the MAC loop must visibly benefit";
  EXPECT_LT(speedup, 5.0) << "sanity bound";
}

TEST(Rewrite, FollowersNeverIncludeLeaders) {
  auto fused = fuse_mac_loop();
  // Each committed match: leader unmarked, followers marked.
  std::map<chain::OpRef, const ir::Instr*> index;
  for (std::size_t f = 0; f < fused.module.functions.size(); ++f) {
    for (const auto& block : fused.module.functions[f].blocks) {
      for (const auto& instr : block.instrs) {
        index[{static_cast<ir::FuncId>(f), instr.id}] = &instr;
      }
    }
  }
  for (const auto& step : fused.coverage.steps) {
    for (const auto& match : step.matches) {
      bool uniform = true;
      for (const auto& op : match) {
        if (index.count(op) == 0 ||
            index[op]->exec_count != index[match[0]]->exec_count) {
          uniform = false;
        }
      }
      if (!uniform) continue;  // Skipped by the rewriter.
      EXPECT_FALSE(index[match[0]]->fused_follower)
          << step.signature.to_string();
    }
  }
}

}  // namespace
}  // namespace asipfb::asip
