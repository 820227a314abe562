// Regenerates the recorded simulator-baseline table used by
// tests/pipeline/suite_differential_test.cpp.
//
// For every suite workload this prepares (compile + canonicalize + profiled
// O0 simulation) and prints one C++ initializer row with the run's step,
// cycle and OOB-load counts, the total and per-instruction profile counts
// (as a hash over traversal order), and a hash of the declared output
// globals (hash definitions: src/sim/baseline_hash.hpp).  The differential
// test pins these values: any simulator change that is not bit-identical
// to the recorded run shows up as a mismatch there.
#include <cstdint>
#include <cstdio>

#include "pipeline/driver.hpp"
#include "sim/baseline_hash.hpp"
#include "workloads/suite.hpp"

int main() {
  using namespace asipfb;
  std::printf("// name, steps, cycles, oob_loads, exit_code, exec_total, "
              "profile_hash, output_hash\n");
  for (const auto& w : wl::suite()) {
    const auto prepared = pipeline::prepare(w.source, w.name, w.input);
    ir::Module copy = prepared.module;
    const auto run = pipeline::execute(copy, w.input, w.outputs);
    std::printf("    {\"%s\", %lluull, %lluull, %lluull, %d, %lluull, "
                "0x%016llxull, 0x%016llxull},\n",
                w.name.c_str(),
                static_cast<unsigned long long>(prepared.baseline_run.steps),
                static_cast<unsigned long long>(prepared.baseline_run.cycles),
                static_cast<unsigned long long>(prepared.baseline_run.oob_loads),
                prepared.baseline_run.exit_code,
                static_cast<unsigned long long>(prepared.module.total_dynamic_ops()),
                static_cast<unsigned long long>(sim::profile_hash(prepared.module)),
                static_cast<unsigned long long>(
                    sim::output_hash(run.outputs, w.outputs)));
  }
  return 0;
}
