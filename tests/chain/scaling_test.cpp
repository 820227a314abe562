// Scaling gate for chain analysis: detection plus coverage on a generated
// program of size 4N must take at most 6x the time of size N (linear work
// gives about 4x, quadratic 16x).  The verdict is the median ratio of five
// back-to-back (N, 4N) pairs, so runner speed cancels.  The ctest TIMEOUT
// on this binary bounds a regression that makes either size take minutes.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <string>

#include "chain/coverage.hpp"
#include "chain/detect.hpp"
#include "frontend/compile.hpp"
#include "sim/machine.hpp"

namespace asipfb::chain {
namespace {

/// Lowered and profiled, not canonicalized: canonicalize is itself
/// superlinear in the number of loops (see ROADMAP), and detection needs
/// only the profile.
ir::Module profiled(const std::string& src) {
  auto m = fe::compile_benchc(src, "scale");
  sim::profile_run(m);
  return m;
}

/// `count` sequential multiply-accumulate loops over one array.
std::string mac_loops(int count) {
  std::string src = "int x[16]; int g;\nint main() {\n  int i;\n"
                    "  for (i = 0; i < 16; i++) x[i] = i;\n";
  for (int k = 0; k < count; ++k) {
    src += "  for (i = 0; i < 16; i++) g += x[i] * " + std::to_string(k % 13 + 2) +
           ";\n";
  }
  return src + "  return g;\n}\n";
}

/// One straight-line block whose multiply-add chain is `count` links long.
std::string mac_chain(int count) {
  std::string src = "int x[8];\nint main() {\n  int s = 1;\n";
  for (int k = 0; k < count; ++k) {
    src += "  s = s * " + std::to_string(k % 5 + 2) + " + x[" +
           std::to_string(k % 8) + "];\n";
  }
  return src + "  return s;\n}\n";
}

/// `count` sequential loops, each folding one array element through its
/// own mix of five operators (loop k's base-6 digits), so the number of
/// distinct signatures, and of coverage's groups, grows with `count`.
std::string mixed_loops(int count) {
  static const char* const kOps[] = {"+", "-", "*", "/", "<<", "&"};
  std::string src = "int x[16]; int g;\nint main() {\n  int i;\n"
                    "  for (i = 0; i < 16; i++) x[i] = i + 1;\n";
  for (int k = 0; k < count; ++k) {
    std::string expr = "x[i]";
    for (int digit = 0, rest = k; digit < 5; ++digit, rest /= 6) {
      expr = "(" + expr + " " + kOps[rest % 6] + " " + std::to_string(digit + 2) + ")";
    }
    src += "  for (i = 0; i < 16; i++) g += " + expr + ";\n";
  }
  return src + "  return g;\n}\n";
}

/// Seconds for detection plus coverage at default options.
double seconds(const ir::Module& m) {
  const auto start = std::chrono::steady_clock::now();
  const auto detection = detect_sequences(m);
  const auto coverage = coverage_analysis(m);
  const std::chrono::duration<double> took = std::chrono::steady_clock::now() - start;
  EXPECT_FALSE(detection.sequences.empty());
  EXPECT_FALSE(coverage.steps.empty());
  return took.count();
}

/// The median over five back-to-back (N, 4N) pairs of each pair's ratio.
/// Both runs of a pair see the same state of the machine, so a slow spell
/// skews the pairs it falls in, not the median; a best N from a fast spell
/// set against a best 4N from a slow one would.
void expect_near_linear(std::string (*program)(int), int n) {
  const ir::Module small_module = profiled(program(n));
  const ir::Module large_module = profiled(program(4 * n));
  std::array<double, 5> ratios{};
  std::string pairs;
  for (double& ratio : ratios) {
    const double small = seconds(small_module);
    const double large = seconds(large_module);
    ratio = large / small;
    pairs.append(" ").append(std::to_string(small * 1e3));
    pairs.append("/").append(std::to_string(large * 1e3));
  }
  std::sort(ratios.begin(), ratios.end());
  EXPECT_LE(ratios[2], 6.0) << "N=" << n << ", median 4N/N ratio " << ratios[2]
                            << "; N/4N ms per pair:" << pairs;
}

TEST(ChainScaling, SequentialMacLoopsAreNearLinear) {
  expect_near_linear(mac_loops, 1000);
}

TEST(ChainScaling, StraightLineMacChainIsNearLinear) {
  expect_near_linear(mac_chain, 1000);
}

TEST(ChainScaling, ManySignaturesAreNearLinear) {
  // 500 and 2,000 loops give about 1,700 and 4,100 distinct signatures.
  expect_near_linear(mixed_loops, 500);
}

}  // namespace
}  // namespace asipfb::chain
