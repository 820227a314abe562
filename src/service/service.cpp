#include "service/service.hpp"

#include <stdexcept>

#include "pipeline/batch.hpp"
#include "workloads/generator.hpp"

namespace asipfb::service {

std::string_view to_string(Kind kind) {
  switch (kind) {
    case Kind::kCompile: return "compile";
    case Kind::kOptimize: return "optimize";
    case Kind::kDetection: return "detect";
    case Kind::kCoverage: return "coverage";
    case Kind::kExtension: return "extension";
    case Kind::kSweep: return "sweep";
  }
  return "?";
}

std::optional<Kind> parse_kind(std::string_view text) {
  for (std::size_t k = 0; k < kKindCount; ++k) {
    const Kind kind = static_cast<Kind>(k);
    if (text == to_string(kind)) return kind;
  }
  return std::nullopt;
}

namespace {

/// The program a request names: inline source binds the request's key; a
/// bare name resolves through suite + default corpus (throws on unknown
/// names).
pipeline::BatchJob job_of(const Request& request) {
  if (!request.source.empty()) {
    return {request.workload, request.source, pipeline::WorkloadInput{}};
  }
  const wl::Workload& w = wl::any_workload(request.workload);
  return {w.name, w.source, w.input};
}

/// The Session behind a request.  Throws as job_of() does, and on
/// compile/simulation failures and key/source mismatches.
std::shared_ptr<pipeline::Session> resolve(const Request& request,
                                           pipeline::SessionPool& pool) {
  const pipeline::BatchJob job = job_of(request);
  return pool.get(job.name, job.source, job.input);
}

void fill_sweep(const Request& request, pipeline::SessionPool& pool,
                Response& response) {
  pipeline::SweepOptions options;
  options.levels = request.grid.levels;
  options.floor_percents = request.grid.floor_percents;
  options.area_budgets = request.grid.area_budgets;
  options.coverage = request.coverage;
  options.selection = request.selection;
  options.datapath = request.datapath;
  options.optimize = request.optimize;
  // Each sweep request is one unit of work on one worker thread; the
  // server's parallelism comes from concurrent requests, not from nested
  // thread pools.
  options.threads = 1;

  const pipeline::SweepResult result =
      pipeline::sweep({job_of(request)}, options, &pool);

  response.points = result.points.size();
  response.point_failures = result.failures();
  bool have_best = false;
  for (const auto& p : result.points) {
    if (!p.ok()) continue;
    if (!have_best || p.speedup > response.speedup) {
      have_best = true;
      response.speedup = p.speedup;
      response.total_coverage = p.total_coverage;
      response.total_area = p.total_area;
      response.selected = p.selected;
    }
  }
  if (result.points.empty()) {
    throw std::invalid_argument("sweep grid is empty");
  }
  // The grid shares the request's pool, so the baseline denominator is
  // one warm lookup away.
  response.total_cycles = resolve(request, pool)->total_cycles();
}

}  // namespace

Response evaluate(const Request& request, pipeline::SessionPool& pool) {
  Response response;
  response.id = request.id;
  response.kind = request.kind;
  response.workload = request.workload;
  try {
    if (request.kind == Kind::kSweep) {
      fill_sweep(request, pool, response);
      return response;
    }
    const std::shared_ptr<pipeline::Session> session = resolve(request, pool);
    response.total_cycles = session->total_cycles();
    switch (request.kind) {
      case Kind::kCompile: {
        response.exit_code = session->prepared().baseline_run.exit_code;
        response.instructions = session->prepared().module.instr_count();
        break;
      }
      case Kind::kOptimize: {
        const ir::Module& variant =
            session->optimized(request.level, request.optimize);
        response.instructions = variant.instr_count();
        break;
      }
      case Kind::kDetection: {
        const chain::DetectionResult& detection = session->detection(
            request.level, request.detector, request.optimize);
        response.sequences = detection.sequences.size();
        response.top_frequency =
            detection.sequences.empty() ? 0.0
                                        : detection.sequences.front().frequency;
        break;
      }
      case Kind::kCoverage: {
        const chain::CoverageResult& coverage = session->coverage(
            request.level, request.coverage, request.optimize);
        response.steps = coverage.steps.size();
        response.total_coverage = coverage.total_coverage;
        break;
      }
      case Kind::kExtension: {
        const asip::ExtensionProposal& proposal = session->extension(
            request.level, request.selection, request.datapath,
            request.coverage, request.optimize);
        response.selected = proposal.selected.size();
        response.total_area = proposal.total_area;
        response.speedup = proposal.speedup();
        break;
      }
      case Kind::kSweep:
        break;  // Handled above.
    }
  } catch (const std::exception& ex) {
    response.error = ex.what();
  } catch (...) {
    response.error = "request failed";
  }
  return response;
}

}  // namespace asipfb::service
