#include "workloads/differential.hpp"

#include <exception>
#include <string>

#include "pipeline/session.hpp"

namespace asipfb::wl {

namespace {

std::string mismatch(const std::string& where, const Workload& w) {
  return w.name + ": " + where;
}

}  // namespace

DifferentialOutcome check_workload(const Workload& w) {
  DifferentialOutcome out;
  pipeline::PreparedProgram prepared;
  try {
    prepared = pipeline::prepare(w.source, w.name, w.input);
  } catch (const std::exception& e) {
    out.error = mismatch(std::string("compile failed: ") + e.what(), w);
    return out;
  }
  out.compiled = true;

  const auto base = pipeline::execute(prepared.module, w.input, w.outputs);

  out.oracle_ok = true;
  if (!w.expected_exit.has_value()) {
    out.oracle_ok = false;
    out.error = mismatch("workload carries no oracle expectations", w);
  } else if (base.exit_code != *w.expected_exit) {
    out.oracle_ok = false;
    out.error = mismatch("oracle exit code mismatch", w);
  } else {
    for (const auto& [global, words] : w.expected) {
      const auto it = base.outputs.find(global);
      if (it == base.outputs.end() || it->second != words) {
        out.oracle_ok = false;
        out.error = mismatch("oracle mismatch on global " + global, w);
        break;
      }
    }
  }

  out.levels_ok = true;
  const pipeline::Session session(std::move(prepared));
  for (auto level : {opt::OptLevel::O1, opt::OptLevel::O2}) {
    ir::Module variant;
    try {
      variant = session.optimized(level);
    } catch (const std::exception& e) {
      out.levels_ok = false;
      if (out.error.empty()) {
        out.error = mismatch(std::string(opt::to_string(level)) +
                                 " optimization failed: " + e.what(),
                             w);
      }
      break;
    }
    const auto run = pipeline::execute(variant, w.input, w.outputs);
    if (run.exit_code != base.exit_code || run.outputs != base.outputs) {
      out.levels_ok = false;
      if (out.error.empty()) {
        out.error = mismatch(std::string(opt::to_string(level)) +
                                 " vs baseline divergence",
                             w);
      }
      break;
    }
  }

  return out;
}

}  // namespace asipfb::wl
