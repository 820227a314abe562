#include "pipeline/batch.hpp"

#include <algorithm>
#include <functional>
#include <stdexcept>
#include <utility>

#include "support/parallel.hpp"
#include "workloads/suite.hpp"

namespace asipfb::pipeline {

namespace {

SessionPool& pool_or_instance(SessionPool* pool) {
  return pool != nullptr ? *pool : SessionPool::instance();
}

/// Shared fan-out: `session_of(j)` supplies workload j's Session (it may
/// throw; the failure lands in that workload's entries), `name_of(j)` its
/// display name.
FanOutResult run_stage_entries(
    std::size_t job_count, const std::vector<StageRequest>& requests,
    const FanOutOptions& options,
    const std::function<std::string(std::size_t)>& name_of,
    const std::function<std::shared_ptr<Session>(std::size_t)>& session_of) {
  FanOutResult result;
  result.entries.resize(job_count * requests.size());
  for (std::size_t j = 0; j < job_count; ++j) {
    for (std::size_t r = 0; r < requests.size(); ++r) {
      StageResult& e = result.entries[j * requests.size() + r];
      e.workload = name_of(j);
      e.request_index = r;
      e.request = requests[r];
    }
  }

  parallel_for(result.entries.size(), options.threads, [&](std::size_t i) {
    StageResult& e = result.entries[i];
    try {
      const std::shared_ptr<Session> session = session_of(i / requests.size());
      const StageRequest& r = e.request;
      switch (r.stage) {
        case Stage::kDetection:
          e.detection = session->detection(r.level, r.detector, r.optimize);
          break;
        case Stage::kCoverage:
          e.coverage = session->coverage(r.level, r.coverage, r.optimize);
          break;
        case Stage::kExtension:
          e.extension = session->extension(r.level, r.selection, r.datapath,
                                           r.coverage, r.optimize);
          break;
      }
    } catch (const std::exception& ex) {
      e.error = ex.what();
    } catch (...) {
      e.error = "unknown error";
    }
  });
  return result;
}

}  // namespace

std::string_view to_string(Stage stage) {
  switch (stage) {
    case Stage::kDetection: return "detection";
    case Stage::kCoverage: return "coverage";
    case Stage::kExtension: return "extension";
  }
  return "?";
}

StageRequest StageRequest::detection_at(opt::OptLevel level,
                                        const chain::DetectorOptions& detector,
                                        const opt::OptimizeOptions& optimize) {
  StageRequest r;
  r.stage = Stage::kDetection;
  r.level = level;
  r.detector = detector;
  r.optimize = optimize;
  return r;
}

StageRequest StageRequest::coverage_at(opt::OptLevel level,
                                       const chain::CoverageOptions& coverage,
                                       const opt::OptimizeOptions& optimize) {
  StageRequest r;
  r.stage = Stage::kCoverage;
  r.level = level;
  r.coverage = coverage;
  r.optimize = optimize;
  return r;
}

StageRequest StageRequest::extension_at(opt::OptLevel level,
                                        const asip::SelectionOptions& selection,
                                        const chain::CoverageOptions& coverage,
                                        const asip::DatapathModel& datapath,
                                        const opt::OptimizeOptions& optimize) {
  StageRequest r;
  r.stage = Stage::kExtension;
  r.level = level;
  r.selection = selection;
  r.coverage = coverage;
  r.datapath = datapath;
  r.optimize = optimize;
  return r;
}

const StageResult* FanOutResult::find(std::string_view workload,
                                          std::size_t request_index) const {
  for (const auto& e : entries) {
    if (e.request_index == request_index && e.workload == workload) return &e;
  }
  return nullptr;
}

std::size_t FanOutResult::failures() const {
  return static_cast<std::size_t>(
      std::count_if(entries.begin(), entries.end(),
                    [](const StageResult& e) { return !e.ok(); }));
}

FanOutResult run_stages(const std::vector<std::string>& workloads,
                        const std::vector<StageRequest>& requests,
                        const FanOutOptions& options, SessionPool* pool) {
  SessionPool& sessions = pool_or_instance(pool);
  return run_stage_entries(
      workloads.size(), requests, options,
      [&](std::size_t j) { return workloads[j]; },
      [&](std::size_t j) {
        // Throws std::out_of_range for names not in the suite.
        return sessions.get(workloads[j]);
      });
}

FanOutResult run_stages(const std::vector<BatchJob>& jobs,
                        const std::vector<StageRequest>& requests,
                        const FanOutOptions& options, SessionPool* pool) {
  SessionPool& sessions = pool_or_instance(pool);
  return run_stage_entries(
      jobs.size(), requests, options,
      [&](std::size_t j) { return jobs[j].name; },
      [&](std::size_t j) {
        return sessions.get(jobs[j].name, jobs[j].source, jobs[j].input);
      });
}

// --- Design-space sweep -----------------------------------------------------

std::size_t SweepResult::failures() const {
  return static_cast<std::size_t>(
      std::count_if(points.begin(), points.end(),
                    [](const SweepPoint& p) { return !p.ok(); }));
}

namespace {

/// Shared sweep machinery: `name_of(j)` labels workload j, `session_of(j)`
/// resolves (and memoizes) its Session.  Grid order and thread-count
/// determinism are identical for both public overloads.
template <typename NameOf, typename SessionOf>
SweepResult sweep_over(std::size_t workload_count, const SweepOptions& options,
                       NameOf&& name_of, SessionOf&& session_of) {
  const std::size_t grid = options.levels.size() *
                           options.floor_percents.size() *
                           options.area_budgets.size();
  SweepResult result;
  result.points.resize(workload_count * grid);
  std::size_t i = 0;
  for (std::size_t j = 0; j < workload_count; ++j) {
    for (auto level : options.levels) {
      for (double floor : options.floor_percents) {
        for (double budget : options.area_budgets) {
          SweepPoint& p = result.points[i++];
          p.workload = name_of(j);
          p.level = level;
          p.floor_percent = floor;
          p.area_budget = budget;
        }
      }
    }
  }

  parallel_for(result.points.size(), options.threads, [&](std::size_t idx) {
    SweepPoint& p = result.points[idx];
    try {
      const std::shared_ptr<Session> session = session_of(idx / grid);
      chain::CoverageOptions cov = options.coverage;
      cov.floor_percent = p.floor_percent;
      asip::SelectionOptions sel = options.selection;
      sel.area_budget = p.area_budget;
      // Memoization shares the heavy sub-artifacts across the grid: one
      // optimization per level, one coverage per (level, floor); only the
      // cheap selection runs per (floor, budget) point.
      const auto& coverage =
          session->coverage(p.level, cov, options.optimize);
      const auto& proposal = session->extension(p.level, sel, options.datapath,
                                                cov, options.optimize);
      p.total_coverage = coverage.total_coverage;
      p.coverage_steps = coverage.steps.size();
      p.selected = proposal.selected.size();
      p.total_area = proposal.total_area;
      p.speedup = proposal.speedup();
    } catch (const std::exception& ex) {
      p.error = ex.what();
    } catch (...) {
      p.error = "unknown error";
    }
  });
  return result;
}

}  // namespace

SweepResult sweep(const std::vector<std::string>& workloads,
                  const SweepOptions& options, SessionPool* pool) {
  SessionPool& sessions = pool_or_instance(pool);
  return sweep_over(
      workloads.size(), options, [&](std::size_t j) { return workloads[j]; },
      [&](std::size_t j) { return sessions.get(workloads[j]); });
}

SweepResult sweep(const std::vector<BatchJob>& jobs, const SweepOptions& options,
                  SessionPool* pool) {
  SessionPool& sessions = pool_or_instance(pool);
  return sweep_over(
      jobs.size(), options, [&](std::size_t j) { return jobs[j].name; },
      [&](std::size_t j) {
        return sessions.get(jobs[j].name, jobs[j].source, jobs[j].input);
      });
}

SweepResult sweep_suite(const SweepOptions& options, SessionPool* pool) {
  std::vector<std::string> names;
  names.reserve(wl::suite().size());
  for (const auto& w : wl::suite()) names.push_back(w.name);
  return sweep(names, options, pool);
}

}  // namespace asipfb::pipeline
