// Simulator throughput over the paper suite: dynamic operations per second
// for profiled and unprofiled runs, as machine-readable JSON.
//
// One layer's metric: the interpreter's run loop, not a whole pipeline
// trip (Machine setup and O2 dominate those).  One Machine is built per
// workload and reused across iterations with reset_memory() + fresh
// inputs — the decode-once/run-many pattern prepare_multi() relies on — so
// the measurement isolates execution itself.  Steps are counted in IR
// instructions, so ops/s stays comparable across PRs.
//
// Prints the JSON to stdout and writes it to BENCH_sim_throughput.json in
// the current directory (override the path with the positional argument).
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>

#include "bench/common.hpp"
#include "frontend/compile.hpp"
#include "opt/cleanup.hpp"
#include "sim/machine.hpp"
#include "support/json.hpp"
#include "workloads/suite.hpp"

namespace {

using Clock = std::chrono::steady_clock;

struct Measurement {
  std::uint64_t total_steps = 0;
  double seconds = 0.0;

  [[nodiscard]] double ops_per_sec() const {
    return seconds > 0.0 ? static_cast<double>(total_steps) / seconds : 0.0;
  }
};

/// Repeats reset+bind+run until both a minimum rep count and a minimum
/// wall-time are reached, so short workloads still measure meaningfully.
Measurement measure(asipfb::sim::Machine& machine,
                    const asipfb::wl::Workload& w, bool profile) {
  using namespace asipfb;
  sim::SimOptions options;
  options.profile = profile;
  auto run_once = [&] {
    machine.reset_memory();
    for (const auto& [g, v] : w.input.float_inputs) machine.write_global(g, v);
    for (const auto& [g, v] : w.input.int_inputs) machine.write_global(g, v);
    return machine.run(options);
  };
  run_once();  // Warm-up: page in code and memory image.

  constexpr int kMinReps = 3;
  constexpr double kMinSeconds = 0.05;
  Measurement m;
  const auto start = Clock::now();
  int reps = 0;
  do {
    m.total_steps += run_once().steps;
    ++reps;
    m.seconds = std::chrono::duration<double>(Clock::now() - start).count();
  } while (reps < kMinReps || m.seconds < kMinSeconds);
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace asipfb;
  std::string path;
  if (!bench::parse_bench_args(
          &argc, argv, {"bench_sim_throughput", "BENCH_sim_throughput.json"},
          &path)) {
    return 2;
  }
  support::JsonWriter json;
  json.begin_object()
      .member("bench", "sim_throughput")
      .member("unit", "dynamic_ops_per_sec")
      .key("workloads")
      .begin_array();
  Measurement suite_interp, suite_profiled;
  auto add = [](Measurement& total, const Measurement& m) {
    total.total_steps += m.total_steps;
    total.seconds += m.seconds;
  };
  for (const auto& w : wl::suite()) {
    ir::Module module = fe::compile_benchc(w.source, w.name);
    opt::canonicalize(module);
    sim::Machine machine(module);
    const Measurement interp = measure(machine, w, /*profile=*/false);
    const Measurement profiled = measure(machine, w, /*profile=*/true);
    add(suite_interp, interp);
    add(suite_profiled, profiled);
    json.inline_object()
        .member("name", w.name)
        .member("ops_per_sec", interp.ops_per_sec())
        .member("profiled_ops_per_sec", profiled.ops_per_sec())
        .end_object();
  }
  json.end_array()
      .member("suite_ops_per_sec", suite_interp.ops_per_sec())
      .member("suite_profiled_ops_per_sec", suite_profiled.ops_per_sec())
      .end_object();

  std::fputs(json.str().c_str(), stdout);
  std::fputs("\n", stdout);
  return support::JsonWriter::write_file(path, json.str() + "\n") ? 0 : 1;
}
