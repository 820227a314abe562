#include "pipeline/driver.hpp"

#include <stdexcept>

#include "frontend/compile.hpp"
#include "ir/verifier.hpp"
#include "opt/cleanup.hpp"

namespace asipfb::pipeline {

namespace {

void bind_inputs(sim::Machine& machine, const WorkloadInput& input) {
  for (const auto& [g, values] : input.float_inputs) machine.write_global(g, values);
  for (const auto& [g, values] : input.int_inputs) machine.write_global(g, values);
}

}  // namespace

ExecutionResult execute(ir::Module& module, const WorkloadInput& input,
                        const std::vector<std::string>& output_globals,
                        bool profile) {
  sim::Machine machine(module);
  bind_inputs(machine, input);
  sim::SimOptions options;
  options.profile = profile;
  if (profile) sim::clear_profile(module);
  const sim::SimResult run = machine.run(options);

  ExecutionResult result;
  result.exit_code = run.exit_code;
  result.steps = run.steps;
  result.cycles = run.cycles;
  result.oob_loads = run.oob_loads;
  for (const auto& name : output_globals) {
    result.outputs[name] = machine.read_global_i32(name);
  }
  return result;
}

PreparedProgram prepare(std::string_view source, std::string name,
                        const WorkloadInput& input) {
  return prepare_multi(source, std::move(name), {input});
}

PreparedProgram prepare_multi(std::string_view source, std::string name,
                              const std::vector<WorkloadInput>& inputs) {
  if (inputs.empty()) {
    throw std::invalid_argument("prepare_multi needs at least one data set");
  }
  PreparedProgram prepared;
  prepared.module = fe::compile_benchc(source, std::move(name));
  if (prepared.module.find_function("main") == ir::kNoFunc) {
    throw std::invalid_argument("program has no main function");
  }
  opt::canonicalize(prepared.module);
  ir::verify_or_throw(prepared.module);
  sim::clear_profile(prepared.module);
  // Decode once, run every data set on the same machine: reset_memory()
  // restores the initial global image between sets, exactly like a fresh
  // machine, without re-flattening the module per set.
  sim::Machine machine(prepared.module);
  for (const auto& input : inputs) {
    // Profile WITHOUT clearing between data sets: counts accumulate.
    machine.reset_memory();
    bind_inputs(machine, input);
    sim::SimOptions options;
    options.profile = true;
    const sim::SimResult run = machine.run(options);
    prepared.baseline_run.exit_code = run.exit_code;
    prepared.baseline_run.steps = run.steps;
    prepared.baseline_run.cycles = run.cycles;
    prepared.baseline_run.oob_loads = run.oob_loads;
  }
  prepared.total_cycles = prepared.module.total_dynamic_ops();
  return prepared;
}

}  // namespace asipfb::pipeline
