// Primitives of the paper's experimental flow (Figure 2):
//
//   BenchC source --front end--> 3AC --simulate+profile--> profiled 3AC
//     --optimize (O0/O1/O2)--> program graph --detect--> sequences
//
// prepare()/prepare_multi() perform steps 1-2 once (one profiled baseline
// feeds all levels with a common frequency denominator) and execute()
// runs a module over bound inputs.  Steps 3-4 live behind
// pipeline::Session (session.hpp), which memoizes every downstream
// artifact.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "ir/function.hpp"
#include "sim/machine.hpp"

namespace asipfb::pipeline {

/// Input data bound to named globals before simulation (paper Table 1's
/// "Data Input" column).
struct WorkloadInput {
  std::vector<std::pair<std::string, std::vector<float>>> float_inputs;
  std::vector<std::pair<std::string, std::vector<std::int32_t>>> int_inputs;

  void add(std::string global, std::vector<float> values) {
    float_inputs.emplace_back(std::move(global), std::move(values));
  }
  void add(std::string global, std::vector<std::int32_t> values) {
    int_inputs.emplace_back(std::move(global), std::move(values));
  }
};

/// Outcome of one simulation, with requested output globals captured as raw
/// words (bit-exact across optimization levels for differential testing).
struct ExecutionResult {
  std::int32_t exit_code = 0;
  std::uint64_t steps = 0;    ///< Operations executed.
  std::uint64_t cycles = 0;   ///< Steps minus fused followers (asip/rewrite.hpp).
  std::uint64_t oob_loads = 0;
  std::map<std::string, std::vector<std::int32_t>> outputs;
};

/// Runs `module`'s main over the given inputs; with `profile` the module's
/// exec_count annotations are cleared and refilled.  `jit` selects the
/// simulator engine (sim/jit.hpp); both engines are bit-identical, so it
/// only affects speed — pass false to pin the interpreter oracle.
ExecutionResult execute(ir::Module& module, const WorkloadInput& input,
                        const std::vector<std::string>& output_globals = {},
                        bool profile = false, bool jit = sim::jit_default());

/// A compiled, canonicalized, profiled program — the shared baseline.
struct PreparedProgram {
  ir::Module module;             ///< Canonicalized IR with O0 profile counts.
  ExecutionResult baseline_run;  ///< The profiling run's outcome.
  std::uint64_t total_cycles = 0;  ///< Frequency denominator for all levels.
};

/// Steps 1-2: compile, canonicalize, verify, simulate with profiling.
[[nodiscard]] PreparedProgram prepare(std::string_view source, std::string name,
                                      const WorkloadInput& input,
                                      bool jit = sim::jit_default());

/// As prepare(), but profiles over several sample data sets (the paper's
/// "Sample Benchmarks and Data"): execution counts accumulate across all
/// runs, so the frequency analysis reflects the whole input population.
/// The module is decoded once and every data set runs on the same
/// simulator (reset_memory() between sets).  The baseline_run captures
/// the last data set's outcome.
[[nodiscard]] PreparedProgram prepare_multi(std::string_view source, std::string name,
                                            const std::vector<WorkloadInput>& inputs,
                                            bool jit = sim::jit_default());

}  // namespace asipfb::pipeline
