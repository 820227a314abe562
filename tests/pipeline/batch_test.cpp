// The fan-out contract (pipeline/batch.hpp: run_stages and sweep):
// deterministic results independent of thread count, deterministic entry
// order, shared one-shot preparation, and failures reported per entry
// instead of crashing.
#include "pipeline/batch.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <thread>
#include <vector>

#include "workloads/suite.hpp"

namespace asipfb::pipeline {
namespace {

/// Field-by-field equality of two detection results.
void expect_same_detection(const chain::DetectionResult& a,
                           const chain::DetectionResult& b,
                           const std::string& context) {
  EXPECT_EQ(a.total_cycles, b.total_cycles) << context;
  EXPECT_EQ(a.regions, b.regions) << context;
  EXPECT_EQ(a.paths, b.paths) << context;
  ASSERT_EQ(a.sequences.size(), b.sequences.size()) << context;
  for (std::size_t i = 0; i < a.sequences.size(); ++i) {
    EXPECT_EQ(a.sequences[i].signature, b.sequences[i].signature) << context;
    EXPECT_EQ(a.sequences[i].cycles, b.sequences[i].cycles) << context;
    EXPECT_EQ(a.sequences[i].occurrences, b.sequences[i].occurrences) << context;
    EXPECT_EQ(a.sequences[i].frequency, b.sequences[i].frequency) << context;
  }
}

std::vector<std::string> suite_names() {
  std::vector<std::string> names;
  for (const auto& w : wl::suite()) names.push_back(w.name);
  return names;
}

/// Default-option detection at O0, O1 and O2 — the figure/table drivers'
/// request list.
std::vector<StageRequest> detection_at_every_level() {
  return {StageRequest::detection_at(opt::OptLevel::O0),
          StageRequest::detection_at(opt::OptLevel::O1),
          StageRequest::detection_at(opt::OptLevel::O2)};
}

TEST(Stages, SuiteCoversAllWorkloadsAndLevelsInOrder) {
  const auto batch = run_stages(suite_names(), detection_at_every_level());
  ASSERT_EQ(batch.entries.size(), wl::suite().size() * 3u);
  EXPECT_EQ(batch.failures(), 0u);
  std::size_t i = 0;
  for (const auto& w : wl::suite()) {
    for (auto level :
         {opt::OptLevel::O0, opt::OptLevel::O1, opt::OptLevel::O2}) {
      ASSERT_LT(i, batch.entries.size());
      const StageResult& e = batch.entries[i];
      EXPECT_EQ(e.workload, w.name);
      EXPECT_EQ(e.request.level, level);
      ASSERT_TRUE(e.ok()) << e.error;
      ASSERT_TRUE(e.detection.has_value());
      EXPECT_GT(e.detection->total_cycles, 0u) << w.name;
      ++i;
    }
  }
}

TEST(Stages, ResultsIdenticalAcrossThreadCounts) {
  // Separate pools, so the parallel run computes every artifact itself
  // instead of reading the serial run's cache.
  SessionPool serial_pool, parallel_pool;
  const auto a = run_stages(suite_names(), detection_at_every_level(),
                            {/*threads=*/1}, &serial_pool);
  const auto b = run_stages(
      suite_names(), detection_at_every_level(),
      {std::max(2u, std::thread::hardware_concurrency())}, &parallel_pool);

  ASSERT_EQ(a.entries.size(), b.entries.size());
  for (std::size_t i = 0; i < a.entries.size(); ++i) {
    const StageResult& x = a.entries[i];
    const StageResult& y = b.entries[i];
    EXPECT_EQ(x.workload, y.workload);
    EXPECT_EQ(x.request_index, y.request_index);
    ASSERT_TRUE(x.ok()) << x.error;
    ASSERT_TRUE(y.ok()) << y.error;
    expect_same_detection(
        *x.detection, *y.detection,
        x.workload + "@" + std::string(opt::to_string(x.request.level)));
  }
}

TEST(Stages, FindLocatesEveryPair) {
  const auto batch = run_stages(suite_names(), detection_at_every_level());
  for (const auto& w : wl::suite()) {
    for (std::size_t r = 0; r < 3; ++r) {
      const auto* e = batch.find(w.name, r);
      ASSERT_NE(e, nullptr) << w.name;
      EXPECT_EQ(e->workload, w.name);
      EXPECT_EQ(e->request_index, r);
    }
  }
  EXPECT_EQ(batch.find("nonexistent", 0), nullptr);
}

TEST(Stages, UnknownWorkloadFailsOnlyItsOwnEntries) {
  const auto batch =
      run_stages(std::vector<std::string>{"fir", "no_such_workload"},
                 detection_at_every_level());
  ASSERT_EQ(batch.entries.size(), 6u);
  EXPECT_EQ(batch.failures(), 3u);
  for (const auto& e : batch.entries) {
    if (e.workload == "fir") {
      EXPECT_TRUE(e.ok()) << e.error;
    } else {
      EXPECT_FALSE(e.ok());
      EXPECT_FALSE(e.error.empty());
    }
  }
}

TEST(Stages, CompileFailureInJobsOverloadIsAPerEntryError) {
  SessionPool local;
  const std::string broken = "int main() { return undefined_variable; }";
  const auto batch = run_stages(std::vector<BatchJob>{{"broken", broken, {}}},
                                detection_at_every_level(), {}, &local);
  ASSERT_EQ(batch.entries.size(), 3u);
  EXPECT_EQ(batch.failures(), 3u);
  for (const auto& e : batch.entries) {
    EXPECT_FALSE(e.ok());
    EXPECT_FALSE(e.error.empty()) << "failure must carry a diagnostic";
    EXPECT_FALSE(e.detection.has_value());
  }
  EXPECT_EQ(local.size(), 0u) << "failed preparations must not count as prepared";

  // The failure is latched under its key: same source rethrows the recorded
  // diagnostic, a different source still gets the mismatch contract.
  EXPECT_THROW((void)local.get("broken", broken, {}), std::runtime_error);
  EXPECT_THROW((void)local.get("broken", "int main() { return 0; }", {}),
               std::invalid_argument);
}

TEST(Stages, CustomLevelsAndDetectorOptionsRespected) {
  chain::DetectorOptions detector;
  detector.min_length = 2;
  detector.max_length = 2;
  const auto batch =
      run_stages(std::vector<std::string>{"fir", "edge"},
                 {StageRequest::detection_at(opt::OptLevel::O1, detector)});
  ASSERT_EQ(batch.entries.size(), 2u);
  for (const auto& e : batch.entries) {
    EXPECT_EQ(e.request.level, opt::OptLevel::O1);
    ASSERT_TRUE(e.ok()) << e.error;
    ASSERT_TRUE(e.detection.has_value());
    EXPECT_FALSE(e.detection->sequences.empty()) << e.workload;
    for (const auto& stat : e.detection->sequences) {
      EXPECT_EQ(stat.signature.length(), 2u) << e.workload;
    }
  }
}

TEST(Stages, MixedStageFanOutRunsEveryRequestPerWorkload) {
  asip::SelectionOptions selection;
  selection.area_budget = 20.0;
  const std::vector<StageRequest> requests = {
      StageRequest::detection_at(opt::OptLevel::O1),
      StageRequest::coverage_at(opt::OptLevel::O1),
      StageRequest::extension_at(opt::OptLevel::O1, selection),
  };
  const auto batch =
      run_stages(std::vector<std::string>{"fir", "iir"}, requests);
  ASSERT_EQ(batch.entries.size(), 6u);
  EXPECT_EQ(batch.failures(), 0u);

  // Workload-major, request-minor order; exactly the requested artifact
  // engaged per entry.
  for (std::size_t i = 0; i < batch.entries.size(); ++i) {
    const StageResult& e = batch.entries[i];
    EXPECT_EQ(e.workload, i < 3 ? "fir" : "iir");
    EXPECT_EQ(e.request_index, i % 3);
    EXPECT_EQ(e.detection.has_value(), e.request.stage == Stage::kDetection);
    EXPECT_EQ(e.coverage.has_value(), e.request.stage == Stage::kCoverage);
    EXPECT_EQ(e.extension.has_value(), e.request.stage == Stage::kExtension);
  }

  // find() locates by (workload, request index).
  const StageResult* ext = batch.find("iir", 2);
  ASSERT_NE(ext, nullptr);
  ASSERT_TRUE(ext->extension.has_value());
  EXPECT_LE(ext->extension->total_area, 20.0);
  EXPECT_EQ(batch.find("fir", 3), nullptr);
  EXPECT_EQ(batch.find("nonexistent", 0), nullptr);
}

TEST(Stages, ResultsMatchDirectSessionQueries) {
  const std::vector<StageRequest> requests = {
      StageRequest::detection_at(opt::OptLevel::O2)};
  const auto batch = run_stages(std::vector<std::string>{"edge"}, requests);
  ASSERT_EQ(batch.entries.size(), 1u);
  ASSERT_TRUE(batch.entries[0].ok()) << batch.entries[0].error;

  const auto session = SessionPool::instance().get("edge");
  const auto& direct = session->detection(opt::OptLevel::O2);
  const auto& batched = *batch.entries[0].detection;
  EXPECT_EQ(batched.total_cycles, direct.total_cycles);
  EXPECT_EQ(batched.paths, direct.paths);
  ASSERT_EQ(batched.sequences.size(), direct.sequences.size());
  for (std::size_t i = 0; i < direct.sequences.size(); ++i) {
    EXPECT_EQ(batched.sequences[i].signature, direct.sequences[i].signature);
    EXPECT_EQ(batched.sequences[i].frequency, direct.sequences[i].frequency);
  }
}

TEST(Stages, UnknownWorkloadReportsPerEntryErrors) {
  const std::vector<StageRequest> requests = {
      StageRequest::detection_at(opt::OptLevel::O0),
      StageRequest::coverage_at(opt::OptLevel::O1)};
  const auto batch =
      run_stages(std::vector<std::string>{"no_such_workload"}, requests);
  ASSERT_EQ(batch.entries.size(), 2u);
  EXPECT_EQ(batch.failures(), 2u);
  for (const auto& e : batch.entries) {
    EXPECT_FALSE(e.ok());
    EXPECT_FALSE(e.error.empty());
    EXPECT_FALSE(e.detection.has_value());
    EXPECT_FALSE(e.coverage.has_value());
    EXPECT_FALSE(e.extension.has_value());
  }
}

TEST(Sweep, GridShapeOrderAndThreadCountDeterminism) {
  SweepOptions options;
  options.levels = {opt::OptLevel::O0, opt::OptLevel::O1};
  options.floor_percents = {4.0};
  options.area_budgets = {10.0, 40.0};
  options.threads = 1;
  const auto serial = sweep(std::vector<std::string>{"fir"}, options);
  ASSERT_EQ(serial.points.size(), 4u);
  EXPECT_EQ(serial.failures(), 0u);

  // Grid order: level-major, then floor, then budget.
  EXPECT_EQ(serial.points[0].level, opt::OptLevel::O0);
  EXPECT_EQ(serial.points[0].area_budget, 10.0);
  EXPECT_EQ(serial.points[1].level, opt::OptLevel::O0);
  EXPECT_EQ(serial.points[1].area_budget, 40.0);
  EXPECT_EQ(serial.points[2].level, opt::OptLevel::O1);
  EXPECT_EQ(serial.points[3].level, opt::OptLevel::O1);

  options.threads = std::max(2u, std::thread::hardware_concurrency());
  const auto parallel = sweep(std::vector<std::string>{"fir"}, options);
  ASSERT_EQ(parallel.points.size(), serial.points.size());
  for (std::size_t i = 0; i < serial.points.size(); ++i) {
    EXPECT_EQ(parallel.points[i].workload, serial.points[i].workload);
    EXPECT_EQ(parallel.points[i].level, serial.points[i].level);
    EXPECT_EQ(parallel.points[i].total_coverage, serial.points[i].total_coverage);
    EXPECT_EQ(parallel.points[i].selected, serial.points[i].selected);
    EXPECT_EQ(parallel.points[i].total_area, serial.points[i].total_area);
    EXPECT_EQ(parallel.points[i].speedup, serial.points[i].speedup);
  }
}

TEST(Sweep, SharesSubArtifactsAcrossTheGrid) {
  SessionPool pool;
  SweepOptions options;
  options.levels = {opt::OptLevel::O1};
  options.floor_percents = {2.0, 4.0};
  options.area_budgets = {10.0, 40.0, 80.0};
  const auto result = sweep(std::vector<std::string>{"sewha"}, options, &pool);
  ASSERT_EQ(result.points.size(), 6u);
  EXPECT_EQ(result.failures(), 0u);

  // A larger budget can only widen the selection.
  EXPECT_LE(result.points[0].selected, result.points[1].selected);
  EXPECT_LE(result.points[1].selected, result.points[2].selected);

  // Memoization across the grid: one optimization for the level, one
  // coverage per floor, one selection per point.
  const auto session = pool.get("sewha");
  const Session::Stats stats = session->stats();
  EXPECT_EQ(stats.optimize_runs, 1u);
  EXPECT_EQ(stats.coverage_runs, 2u);
  EXPECT_EQ(stats.extension_runs, 6u);
}

TEST(Sweep, JobsOverloadMatchesNameOverload) {
  // The explicit-jobs sweep (the generated-corpus path) must produce the
  // same grid, in the same order, as the by-name sweep of the same
  // workload.
  SweepOptions options;
  options.levels = {opt::OptLevel::O0, opt::OptLevel::O1};
  options.floor_percents = {4.0};
  options.area_budgets = {10.0, 40.0};

  SessionPool name_pool, job_pool;
  const auto by_name =
      sweep(std::vector<std::string>{"sewha"}, options, &name_pool);
  const auto& w = wl::workload("sewha");
  const auto by_job = sweep(std::vector<BatchJob>{{w.name, w.source, w.input}},
                            options, &job_pool);
  ASSERT_EQ(by_job.points.size(), by_name.points.size());
  EXPECT_EQ(by_job.failures(), 0u);
  for (std::size_t i = 0; i < by_name.points.size(); ++i) {
    EXPECT_EQ(by_job.points[i].workload, by_name.points[i].workload);
    EXPECT_EQ(by_job.points[i].level, by_name.points[i].level);
    EXPECT_EQ(by_job.points[i].floor_percent, by_name.points[i].floor_percent);
    EXPECT_EQ(by_job.points[i].area_budget, by_name.points[i].area_budget);
    EXPECT_EQ(by_job.points[i].total_coverage, by_name.points[i].total_coverage);
    EXPECT_EQ(by_job.points[i].selected, by_name.points[i].selected);
    EXPECT_EQ(by_job.points[i].total_area, by_name.points[i].total_area);
    EXPECT_EQ(by_job.points[i].speedup, by_name.points[i].speedup);
  }
  EXPECT_EQ(job_pool.size(), 1u) << "one preparation per job name";
}

}  // namespace
}  // namespace asipfb::pipeline
