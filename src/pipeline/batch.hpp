// Parallel fan-out of pipeline stage requests over many workloads.
//
// The evaluation repeatedly needs "run stage X on every workload at every
// optimization level" — detection for the figure/table drivers, coverage
// for section 7, extension selection for the ASIP-design loop.  This
// module is a thread-pool front end over pipeline::Session:
//
//   * run_stages() — the general fan-out: every (workload, StageRequest)
//     pair becomes one task.  Sessions come from a SessionPool (each
//     workload compiled + profiled exactly once, no matter how many
//     threads ask) and every stage artifact is memoized per normalized
//     option set, so overlapping requests — e.g. an extension request and
//     the coverage request it builds on — share work instead of repeating
//     it.  Results are bit-identical regardless of thread count; entries
//     come back in deterministic (workload-major, request-minor) order,
//     and a workload that fails to compile, simulate, or analyze surfaces
//     as a per-entry error instead of tearing down the batch.
//   * sweep() — design-space exploration: a grid of (level, coverage
//     floor, area budget) points across workloads, reporting coverage and
//     the proposed extension's speedup/area at every point.  Shared
//     sub-artifacts (the optimized module per level, the coverage per
//     floor) are computed once per Session and reused across the grid.
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "asip/extension.hpp"
#include "chain/coverage.hpp"
#include "chain/detect.hpp"
#include "opt/optimizer.hpp"
#include "pipeline/driver.hpp"
#include "pipeline/session.hpp"

namespace asipfb::pipeline {

/// One unit of work: a named BenchC program with its input bindings.
struct BatchJob {
  std::string name;
  std::string source;
  WorkloadInput input;
};

// --- General stage fan-out --------------------------------------------------

/// Which Session stage a request runs.
enum class Stage { kDetection, kCoverage, kExtension };

/// Stable lower-case stage name ("detection"/"coverage"/"extension").
[[nodiscard]] std::string_view to_string(Stage stage);

/// One stage invocation: the stage, the optimization level, and the option
/// structs the stage consumes (unused ones are ignored).  Build with the
/// factory helpers for readability.
struct StageRequest {
  Stage stage = Stage::kDetection;
  opt::OptLevel level = opt::OptLevel::O0;
  chain::DetectorOptions detector;   ///< kDetection only.
  chain::CoverageOptions coverage;   ///< kCoverage and kExtension.
  asip::SelectionOptions selection;  ///< kExtension only.
  asip::DatapathModel datapath;      ///< kExtension only.
  opt::OptimizeOptions optimize;

  static StageRequest detection_at(opt::OptLevel level,
                                   const chain::DetectorOptions& detector = {},
                                   const opt::OptimizeOptions& optimize = {});
  static StageRequest coverage_at(opt::OptLevel level,
                                  const chain::CoverageOptions& coverage = {},
                                  const opt::OptimizeOptions& optimize = {});
  static StageRequest extension_at(opt::OptLevel level,
                                   const asip::SelectionOptions& selection = {},
                                   const chain::CoverageOptions& coverage = {},
                                   const asip::DatapathModel& datapath = {},
                                   const opt::OptimizeOptions& optimize = {});
};

/// Outcome of one (workload, request) task.  Exactly one artifact optional
/// is engaged on success (matching request.stage); all are empty on error.
/// Artifacts are value copies out of the Session cache, so they survive
/// pool clears and Session teardown.
struct StageResult {
  std::string workload;
  std::size_t request_index = 0;  ///< Index into the submitted request list.
  StageRequest request;
  std::optional<chain::DetectionResult> detection;
  std::optional<chain::CoverageResult> coverage;
  std::optional<asip::ExtensionProposal> extension;
  std::string error;  ///< Nonempty when the task failed.

  [[nodiscard]] bool ok() const { return error.empty(); }
};

struct FanOutOptions {
  /// Worker threads; 0 means std::thread::hardware_concurrency().
  unsigned threads = 0;
};

struct FanOutResult {
  /// Workload-major (input order), request-minor (request order) —
  /// independent of thread count.
  std::vector<StageResult> entries;

  /// Entry for (workload, request index); nullptr when absent.
  [[nodiscard]] const StageResult* find(std::string_view workload,
                                        std::size_t request_index) const;
  /// Number of failed entries.
  [[nodiscard]] std::size_t failures() const;
};

/// Fans every request out over every suite workload name on a thread pool.
/// `pool` defaults to SessionPool::instance().
[[nodiscard]] FanOutResult run_stages(
    const std::vector<std::string>& workloads,
    const std::vector<StageRequest>& requests,
    const FanOutOptions& options = {}, SessionPool* pool = nullptr);

/// As above for explicit source + input jobs.
[[nodiscard]] FanOutResult run_stages(
    const std::vector<BatchJob>& jobs,
    const std::vector<StageRequest>& requests,
    const FanOutOptions& options = {}, SessionPool* pool = nullptr);

// --- Design-space sweep -----------------------------------------------------

/// The exploration grid: every (level, floor_percent, area_budget)
/// combination is one design point per workload.
struct SweepOptions {
  std::vector<opt::OptLevel> levels = {opt::OptLevel::O0, opt::OptLevel::O1,
                                       opt::OptLevel::O2};
  std::vector<double> floor_percents = {4.0};  ///< Coverage significance floors.
  std::vector<double> area_budgets = {40.0};   ///< Extension area budgets.
  chain::CoverageOptions coverage;   ///< Base coverage options (floor swept).
  asip::SelectionOptions selection;  ///< Base selection options (area swept).
  asip::DatapathModel datapath;
  opt::OptimizeOptions optimize;
  unsigned threads = 0;  ///< 0 means hardware_concurrency().
};

/// One design point: what the customized ASIP achieves for `workload` at
/// this (level, floor, budget) corner.
struct SweepPoint {
  std::string workload;
  opt::OptLevel level = opt::OptLevel::O0;
  double floor_percent = 0.0;
  double area_budget = 0.0;

  double total_coverage = 0.0;      ///< Coverage of the selected sequences.
  std::size_t coverage_steps = 0;   ///< Chained instructions above the floor.
  std::size_t selected = 0;         ///< Candidates chosen under the budget.
  double total_area = 0.0;          ///< Area actually spent.
  double speedup = 1.0;             ///< Estimated customized-ASIP speedup.
  std::string error;                ///< Nonempty when the point failed.

  [[nodiscard]] bool ok() const { return error.empty(); }
};

struct SweepResult {
  /// Workload-major, then levels x floors x budgets in grid order —
  /// independent of thread count.
  std::vector<SweepPoint> points;

  [[nodiscard]] std::size_t failures() const;
};

/// Explores the grid over the named suite workloads on a thread pool.
/// Shared sub-artifacts are memoized per Session, so the grid costs one
/// optimization per level, one coverage per (level, floor), and one
/// selection per point — not |points| full pipeline runs.
[[nodiscard]] SweepResult sweep(const std::vector<std::string>& workloads,
                                const SweepOptions& options = {},
                                SessionPool* pool = nullptr);

/// As above for explicit source + input jobs (e.g. a generated corpus —
/// see workloads/generator.hpp): each job is prepared at most once in
/// `pool` under its name, then every grid point runs against that Session.
[[nodiscard]] SweepResult sweep(const std::vector<BatchJob>& jobs,
                                const SweepOptions& options = {},
                                SessionPool* pool = nullptr);

/// The full 12-workload paper suite (Table 1 order).
[[nodiscard]] SweepResult sweep_suite(const SweepOptions& options = {},
                                      SessionPool* pool = nullptr);

}  // namespace asipfb::pipeline
