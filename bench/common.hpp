// Shared support for the table/figure regeneration binaries.
//
// Every bench binary is a plain program: it prints the paper artifact it
// reproduces (table rows or figure series) and, if it has one, writes its
// JSON artifact, so `for b in build/bench/*; do $b; done` regenerates the
// evaluation.  Whole-trip timing lives in tripbench.
#pragma once

#include <string>
#include <vector>

#include "chain/detect.hpp"
#include "opt/optimizer.hpp"
#include "pipeline/driver.hpp"
#include "pipeline/session.hpp"
#include "workloads/suite.hpp"

namespace asipfb::bench {

/// Shared argv contract of every bench driver:
///
///   bench_X [OUTPUT.json]
///
/// The one optional positional is the JSON artifact path (only for
/// drivers that write one — `default_output` nullptr means none is
/// accepted).  Any other argument — a flag or a stray positional — is an
/// *error*: usage goes to stderr and false comes back so the driver can
/// exit nonzero — a misconfigured CI invocation must fail loudly, not
/// silently fall back to defaults (or, worse, write its artifact to a
/// file named after a flag).  Call this before any heavy work.
struct BenchCli {
  const char* name;                    ///< argv[0] basename for usage text.
  const char* default_output = nullptr;  ///< Artifact path; nullptr = none.
};
[[nodiscard]] bool parse_bench_args(int argc, char** argv, const BenchCli& cli,
                                    std::string* output_path);

/// The process-wide memoizing Session of a suite workload: compile+profile
/// runs once per binary, every analysis artifact once per option set.
pipeline::Session& session(const std::string& name);

/// Cached compile+profile of a suite workload (expensive: full simulation).
const pipeline::PreparedProgram& prepared_workload(const std::string& name);

/// Suite-combined frequency of a signature: equal-weight mean of the twelve
/// per-benchmark frequencies (DESIGN.md section 5).
double combined_frequency(const chain::Signature& sig, opt::OptLevel level);

/// All signatures of exactly `length` with their suite-combined frequencies,
/// sorted descending — one figure series.
struct SeriesPoint {
  chain::Signature signature;
  double frequency = 0.0;
};
std::vector<SeriesPoint> combined_series(int length, opt::OptLevel level);

/// Renders a figure series as "rank  frequency  sequence" rows.
std::string render_series(const std::vector<SeriesPoint>& series,
                          std::size_t top_n = 45);

}  // namespace asipfb::bench
