// Randomized differential testing of the whole optimizer stack.
//
// Two populations run per build:
//   * a seeded generator emits random-but-valid BenchC programs (nested
//     counted loops, conditionals, scalar and array arithmetic over int
//     and float); every program must produce bit-identical outputs at
//     O0/O1/O2 across unroll factors.  Forty seeds run per build; any
//     miscompile reproduces deterministically from its seed.
//   * every scenario of the generated corpus (workloads/generator.hpp) is
//     checked sim-vs-oracle — the simulated baseline must reproduce the
//     plain-C++ oracle's outputs word for word — and then differentially
//     across optimization levels, like the hand-written suite.  The corpus
//     size and seed honor ASIPFB_FUZZ_COUNT / ASIPFB_FUZZ_SEED
//     (wl::env_corpus_spec), and the battery itself is the shared
//     wl::check_workload harness the 10k gauntlet runs at scale — one
//     harness, two populations.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "pipeline/session.hpp"
#include "support/rng.hpp"
#include "workloads/differential.hpp"
#include "workloads/generator.hpp"
#include "workloads/suite.hpp"

namespace asipfb {
namespace {

/// Generates one random BenchC program. All variables are initialized at
/// declaration, all array indices are loop counters (always in bounds), all
/// divisors are non-zero constants, so every generated program is UB-free.
class ProgramGenerator {
public:
  explicit ProgramGenerator(std::uint64_t seed) : rng_(seed) {}

  std::string generate() {
    src_ = "int A[16];\nint B[16];\nfloat F[16];\nint acc;\nfloat facc;\n";
    src_ += "int main() {\n";
    emit_seed_data();
    const int outer_statements = 2 + static_cast<int>(rng_.next_below(3));
    for (int i = 0; i < outer_statements; ++i) emit_statement(0);
    emit_checksum();
    src_ += "}\n";
    return src_;
  }

private:
  void emit_seed_data() {
    src_ += "  int i0;\n";
    src_ += "  for (i0 = 0; i0 < 16; i0++) {\n";
    src_ += "    A[i0] = i0 * 7 - 3;\n";
    src_ += "    B[i0] = 45 - i0 * 5;\n";
    src_ += "    F[i0] = i0 * 0.25 - 1.5;\n";
    src_ += "  }\n";
  }

  /// A random integer expression over in-scope names.
  std::string int_expr(int depth) {
    switch (rng_.next_below(depth >= 3 ? 4 : 8)) {
      case 0: return std::to_string(rng_.next_int(-9, 9));
      case 1: return loop_var();
      case 2: return "acc";
      case 3: return std::string(rng_.next_below(2) ? "A[" : "B[") + loop_var() + "]";
      case 4: {
        const char* ops[] = {" + ", " - ", " * "};
        return "(" + int_expr(depth + 1) + ops[rng_.next_below(3)] +
               int_expr(depth + 1) + ")";
      }
      case 5:  // Safe division/remainder by a non-zero constant.
        return "(" + int_expr(depth + 1) +
               (rng_.next_below(2) ? " / " : " % ") +
               std::to_string(rng_.next_int(1, 7)) + ")";
      case 6:  // Bounded shift.
        return "(" + int_expr(depth + 1) +
               (rng_.next_below(2) ? " << " : " >> ") +
               std::to_string(rng_.next_below(4)) + ")";
      default:
        return "(" + int_expr(depth + 1) +
               (rng_.next_below(2) ? " & " : " ^ ") + int_expr(depth + 1) + ")";
    }
  }

  std::string float_expr(int depth) {
    switch (rng_.next_below(depth >= 3 ? 3 : 6)) {
      case 0: return std::to_string(rng_.next_int(-4, 4)) + ".5";
      case 1: return "facc";
      case 2: return "F[" + loop_var() + "]";
      case 3: {
        const char* ops[] = {" + ", " - ", " * "};
        return "(" + float_expr(depth + 1) + ops[rng_.next_below(3)] +
               float_expr(depth + 1) + ")";
      }
      default:
        return "(float)(" + int_expr(depth + 1) + ")";
    }
  }

  /// A previously declared loop counter (always initialized, always within
  /// [0, 15] so array indexing stays in bounds), or the literal 0.
  std::string loop_var() {
    if (declared_.empty()) return "0";
    return declared_[rng_.next_below(declared_.size())];
  }

  void indent() { src_.append(static_cast<std::size_t>(2 + loop_depth_ * 2), ' '); }

  void emit_statement(int depth) {
    const auto kind = rng_.next_below(depth >= 2 ? 4 : 6);
    switch (kind) {
      case 0:
        indent();
        src_ += "acc = acc + " + int_expr(0) + ";\n";
        break;
      case 1:
        indent();
        src_ += "facc = facc + " + float_expr(0) + ";\n";
        break;
      case 2:
        indent();
        src_ += std::string(rng_.next_below(2) ? "A[" : "B[") + loop_var() +
                "] = " + int_expr(0) + ";\n";
        break;
      case 3: {  // if
        indent();
        src_ += "if (" + int_expr(1) + " > " + int_expr(1) + ") {\n";
        ++loop_depth_;  // Reuse for indentation only.
        emit_statement(depth + 1);
        --loop_depth_;
        indent();
        src_ += "}\n";
        break;
      }
      default: {  // counted loop
        ++loop_count_;
        const std::string var = "i" + std::to_string(loop_depth_ + 1);
        const int bound = 4 + static_cast<int>(rng_.next_below(12));
        indent();
        src_ += "for (" + var + " = 0; " + var + " < " + std::to_string(bound) +
                "; " + var + "++) {\n";
        if (std::find(declared_.begin(), declared_.end(), var) == declared_.end()) {
          declared_.push_back(var);
        }
        ++loop_depth_;
        const int body = 1 + static_cast<int>(rng_.next_below(3));
        for (int i = 0; i < body; ++i) emit_statement(depth + 1);
        --loop_depth_;
        indent();
        src_ += "}\n";
        break;
      }
    }
  }

  void emit_checksum() {
    // Declare all loop variables used (hoisted to keep generation simple).
    std::string decls;
    for (const auto& var : declared_) {
      decls += "  int " + var + " = 0;\n";
    }
    src_.insert(src_.find("int main() {\n") + 13, decls);
    src_ += "  int k;\n  for (k = 0; k < 16; k++) acc = acc + A[k] - B[k];\n";
    src_ += "  return acc + (int)facc;\n";
  }

  Rng rng_;
  std::string src_;
  int loop_depth_ = 0;
  int loop_count_ = 0;
  std::vector<std::string> declared_;
};

class FuzzDifferential : public ::testing::TestWithParam<int> {};

TEST_P(FuzzDifferential, AllLevelsAgree) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  ProgramGenerator generator(seed * 0x9e3779b9u + 1);
  const std::string source = generator.generate();

  pipeline::WorkloadInput input;  // Programs self-seed their arrays.
  pipeline::PreparedProgram prepared;
  ASSERT_NO_THROW(prepared = pipeline::prepare(source, "fuzz", input))
      << "seed " << seed << "\n" << source;

  const std::vector<std::string> outputs{"A", "B", "F", "acc", "facc"};
  const auto base = pipeline::execute(prepared.module, input, outputs);

  const pipeline::Session session(std::move(prepared));
  for (auto level : {opt::OptLevel::O1, opt::OptLevel::O2}) {
    for (int factor : {2, 3}) {
      opt::OptimizeOptions options;
      options.unroll.factor = factor;
      ir::Module variant;
      ASSERT_NO_THROW(variant = session.optimized(level, options))
          << "seed " << seed << " level " << std::string(opt::to_string(level));
      const auto run = pipeline::execute(variant, input, outputs);
      EXPECT_EQ(run.exit_code, base.exit_code)
          << "seed " << seed << " level " << std::string(opt::to_string(level))
          << " factor " << factor << "\n" << source;
      for (const auto& g : outputs) {
        EXPECT_EQ(run.outputs.at(g), base.outputs.at(g))
            << "seed " << seed << " global " << g << "\n" << source;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzDifferential, ::testing::Range(1, 41));

// --- Generated corpus: sim vs oracle, then levels vs baseline ---------------
// ASIPFB_FUZZ_COUNT / ASIPFB_FUZZ_SEED reshape this population without a
// rebuild; the default env-free run checks the full default corpus.

const std::vector<wl::Workload>& env_corpus() {
  static const std::vector<wl::Workload> shared =
      wl::corpus(wl::env_corpus_spec());
  return shared;
}

class CorpusDifferential : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CorpusDifferential, SimMatchesOracleAndLevelsAgree) {
  const wl::Workload& w = env_corpus()[GetParam()];
  const wl::DifferentialOutcome outcome = wl::check_workload(w);
  EXPECT_TRUE(outcome.ok()) << outcome.error << "\n" << w.source;
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, CorpusDifferential,
    ::testing::Range<std::size_t>(0, env_corpus().size()),
    [](const ::testing::TestParamInfo<std::size_t>& info) {
      return env_corpus()[info.param].name;
    });

}  // namespace
}  // namespace asipfb
