#include "service/service.hpp"

#include <stdexcept>

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

/// The suite or default-corpus workload a bare-name request names; null
/// for inline source.  Throws std::out_of_range for unknown names.
const wl::Workload* named_workload(const Request& request) {
  return request.source.empty() ? &wl::any_workload(request.workload)
                                : nullptr;
}

/// The Session behind a request: inline source binds the request's key,
/// a bare name its `named_workload()`.  Throws on compile/simulation
/// failures and key/source mismatches.
std::shared_ptr<pipeline::Session> session_of(const Request& request,
                                              const wl::Workload* named,
                                              pipeline::SessionPool& pool) {
  if (named == nullptr) return pool.get(request.workload, request.source, {});
  return pool.get(named->name, named->source, named->input);
}

void fill_sweep(const Request& request, pipeline::SessionPool& pool,
                Response& response) {
  // Name lookup, then the grid check, then preparation: an empty grid
  // prepares nothing and binds no key.
  const wl::Workload* named = named_workload(request);
  if (request.grid.levels.empty() || request.grid.floor_percents.empty() ||
      request.grid.area_budgets.empty()) {
    throw std::invalid_argument("sweep grid is empty");
  }
  const std::shared_ptr<pipeline::Session> session =
      session_of(request, named, pool);
  response.total_cycles = session->total_cycles();

  const std::vector<pipeline::SweepPoint> points =
      pipeline::sweep(*session, request.grid, request.coverage,
                      request.selection, request.datapath, request.optimize);
  response.points = points.size();
  bool have_best = false;
  for (const auto& p : points) {
    if (!p.ok()) {
      ++response.point_failures;
      continue;
    }
    if (!have_best || p.speedup > response.speedup) {
      have_best = true;
      response.speedup = p.speedup;
      response.total_coverage = p.total_coverage;
      response.total_area = p.total_area;
      response.selected = p.selected;
    }
  }
}

/// Id, kind and workload echoed back; every other field at its default.
Response header(const Request& request) {
  Response response;
  response.id = request.id;
  response.kind = request.kind;
  response.workload = request.workload;
  return response;
}

/// Fills `response` from `session`'s artifact for `request`, any kind but
/// sweep.  With `probe`, the artifact is only looked up (Session::find_*)
/// and false means it is not memoized; without, it is computed or fetched
/// (a stage failure throws) and the result is true.
bool fill_stage(const Request& request, const pipeline::Session& session,
                bool probe, Response& response) {
  response.total_cycles = session.total_cycles();
  switch (request.kind) {
    case Kind::kCompile: {
      response.exit_code = session.prepared().baseline_run.exit_code;
      response.instructions = session.prepared().module.instr_count();
      return true;
    }
    case Kind::kOptimize: {
      const ir::Module* variant =
          probe ? session.find_optimized(request.level, request.optimize)
                : &session.optimized(request.level, request.optimize);
      if (variant == nullptr) return false;
      response.instructions = variant->instr_count();
      return true;
    }
    case Kind::kDetection: {
      const chain::DetectionResult* detection =
          probe ? session.find_detection(request.level, request.detector,
                                         request.optimize)
                : &session.detection(request.level, request.detector,
                                     request.optimize);
      if (detection == nullptr) return false;
      response.sequences = detection->sequences.size();
      response.top_frequency = detection->sequences.empty()
                                   ? 0.0
                                   : detection->sequences.front().frequency;
      return true;
    }
    case Kind::kCoverage: {
      const chain::CoverageResult* coverage =
          probe ? session.find_coverage(request.level, request.coverage,
                                        request.optimize)
                : &session.coverage(request.level, request.coverage,
                                    request.optimize);
      if (coverage == nullptr) return false;
      response.steps = coverage->steps.size();
      response.total_coverage = coverage->total_coverage;
      return true;
    }
    case Kind::kExtension: {
      const asip::ExtensionProposal* proposal =
          probe ? session.find_extension(request.level, request.selection,
                                         request.datapath, request.coverage,
                                         request.optimize)
                : &session.extension(request.level, request.selection,
                                     request.datapath, request.coverage,
                                     request.optimize);
      if (proposal == nullptr) return false;
      response.selected = proposal->selected.size();
      response.total_area = proposal->total_area;
      response.speedup = proposal->speedup();
      return true;
    }
    case Kind::kSweep:
      break;  // A grid of computations; fill_sweep() runs it.
  }
  return false;
}

}  // namespace

Response evaluate(const Request& request, pipeline::SessionPool& pool) {
  Response response = header(request);
  try {
    if (request.kind == Kind::kSweep) {
      fill_sweep(request, pool, response);
    } else {
      fill_stage(request, *session_of(request, named_workload(request), pool),
                 /*probe=*/false, response);
    }
  } catch (const std::exception& ex) {
    response.error = ex.what();
  } catch (...) {
    response.error = "request failed";
  }
  return response;
}

std::optional<Response> try_evaluate(const Request& request,
                                     const pipeline::SessionPool& pool) {
  if (request.kind == Kind::kSweep) return std::nullopt;
  // The first lookup of a corpus name builds the whole default corpus
  // (milliseconds): leave that to a worker, not the receiving thread.
  if (request.source.empty() && !wl::family_of(request.workload).empty() &&
      !wl::default_corpus_built()) {
    return std::nullopt;
  }
  try {
    const wl::Workload* named = named_workload(request);
    const std::shared_ptr<pipeline::Session> session =
        named == nullptr ? pool.find(request.workload, request.source)
                         : pool.find(named->name, named->source);
    Response response = header(request);
    if (session != nullptr &&
        fill_stage(request, *session, /*probe=*/true, response)) {
      return response;
    }
  } catch (...) {
    // An unknown name: evaluate() renders the error.
  }
  return std::nullopt;
}

}  // namespace asipfb::service
