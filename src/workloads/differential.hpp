// The one differential battery shared by the per-build fuzz test, the
// mutator contract test, and the 10k-scenario gauntlet — so the gauntlet
// exercises exactly the checks the tests gate on instead of a diverging
// copy.
//
// Three checks per workload:
//   * oracle: the simulated baseline must reproduce Workload::expected
//     (raw words, floats bit-compared) and expected_exit;
//   * levels: O1 and O2 variants must match the baseline's outputs and
//     exit code bit for bit;
//   * jit: the JIT (sim/jit.hpp) must match the interpreter oracle —
//     outputs, exit, steps, cycles, and per-instruction profile hash.
//     Passes vacuously on builds where the JIT is unavailable (both runs
//     then interpret).
#pragma once

#include <string>

#include "workloads/suite.hpp"

namespace asipfb::wl {

/// Outcome of the battery on one workload; `error` carries the first
/// failure's description.
struct DifferentialOutcome {
  bool compiled = false;
  bool oracle_ok = false;
  bool levels_ok = false;
  bool jit_ok = false;
  std::string error;

  [[nodiscard]] bool ok() const { return compiled && oracle_ok && levels_ok && jit_ok; }
};

/// Runs the battery on `w`.  Never throws for check failures — compile
/// errors and mismatches come back in the outcome, so gauntlet shards can
/// count them instead of dying on the first one.
[[nodiscard]] DifferentialOutcome check_workload(const Workload& w);

}  // namespace asipfb::wl
