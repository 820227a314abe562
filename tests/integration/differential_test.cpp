// The central correctness property of the reproduction: every optimization
// level produces bit-identical outputs (all declared output globals plus the
// exit code) for every benchmark of the suite.  Floating point is safe to
// compare exactly because no transformation reassociates arithmetic.
#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "pipeline/session.hpp"
#include "workloads/suite.hpp"

namespace asipfb {
namespace {

struct DiffCase {
  std::string workload;
  opt::OptLevel level;
  int unroll_factor;
};

std::ostream& operator<<(std::ostream& os, const DiffCase& c) {
  return os << c.workload << "/" << std::string(opt::to_string(c.level)) << "/u"
            << c.unroll_factor;
}

/// Sessions are cached per workload; preparing involves a full profiled
/// simulation.
const pipeline::Session& session(const std::string& name) {
  static std::map<std::string, std::unique_ptr<pipeline::Session>> cache;
  auto it = cache.find(name);
  if (it == cache.end()) {
    const auto& w = wl::workload(name);
    auto session = std::make_unique<pipeline::Session>(w.source, w.name, w.input);
    it = cache.emplace(name, std::move(session)).first;
  }
  return *it->second;
}

class Differential : public ::testing::TestWithParam<DiffCase> {};

TEST_P(Differential, OutputsBitIdenticalToBaseline) {
  const auto& param = GetParam();
  const auto& w = wl::workload(param.workload);
  const pipeline::Session& base_session = session(param.workload);

  ir::Module reference = base_session.prepared().module;
  const auto base = pipeline::execute(reference, w.input, w.outputs);

  opt::OptimizeOptions options;
  options.unroll.factor = param.unroll_factor;
  ir::Module variant = base_session.optimized(param.level, options);
  const auto run = pipeline::execute(variant, w.input, w.outputs);

  EXPECT_EQ(run.exit_code, base.exit_code);
  for (const auto& g : w.outputs) {
    EXPECT_EQ(run.outputs.at(g), base.outputs.at(g)) << "global " << g;
  }
}

std::vector<DiffCase> all_cases() {
  std::vector<DiffCase> cases;
  for (const auto& w : wl::suite()) {
    cases.push_back({w.name, opt::OptLevel::O1, 2});
    cases.push_back({w.name, opt::OptLevel::O2, 2});
  }
  // Unroll-factor stress on a representative subset.
  for (const char* name : {"fir", "sewha", "bspline", "smooth"}) {
    cases.push_back({name, opt::OptLevel::O1, 3});
    cases.push_back({name, opt::OptLevel::O2, 4});
  }
  return cases;
}

std::string case_name(const ::testing::TestParamInfo<DiffCase>& info) {
  return info.param.workload + "_" +
         std::string(opt::to_string(info.param.level)) + "_u" +
         std::to_string(info.param.unroll_factor);
}

INSTANTIATE_TEST_SUITE_P(Suite, Differential, ::testing::ValuesIn(all_cases()),
                         case_name);

}  // namespace
}  // namespace asipfb
