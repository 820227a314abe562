// Structured requests and responses of the concurrent evaluation service.
//
// A Request names one pipeline computation — which stage (Kind), which
// workload (a Table-1 suite name, a generated-corpus scenario name, or
// inline BenchC source bound to a key), and the per-request option
// structs the stage consumes.  evaluate() is the synchronous core: it
// resolves the workload through a SessionPool (so every worker, client,
// and repeat request shares one prepared baseline and one memoized
// artifact per normalized option set) and reduces the stage artifact to a
// flat, deterministic Response summary.  try_evaluate() is its
// non-blocking twin: the same summary when the artifact is already
// memoized, nothing otherwise.  service::Server (server.hpp) answers
// memo hits with try_evaluate() on the receiving thread and fans the rest
// of evaluate() out over a bounded job queue + worker pool; the line
// protocol (protocol.hpp) round-trips these structs over text.
//
// Determinism contract: every Response field except latency_us is a pure
// function of the Request — independent of worker count, queue order,
// and pool warmth.  tests/service/server_test.cpp pins concurrent ==
// serial bit-identity through the rendered protocol lines.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "asip/extension.hpp"
#include "chain/coverage.hpp"
#include "chain/detect.hpp"
#include "opt/optimizer.hpp"
#include "pipeline/session.hpp"
#include "pipeline/sweep.hpp"

namespace asipfb::service {

/// Which pipeline computation a request runs.
enum class Kind : std::uint8_t {
  kCompile,    ///< Steps 1-2: prepare (compile + canonicalize + profile).
  kOptimize,   ///< Step 3: optimized variant at a level.
  kDetection,  ///< Step 4: chainable-sequence detection.
  kCoverage,   ///< Section 7: iterative coverage analysis.
  kExtension,  ///< Figure 1 "ASIP design": selection under budgets.
  kSweep,      ///< Design-space grid over one workload (pipeline/sweep.hpp).
};

inline constexpr std::size_t kKindCount = 6;

/// Stable lower-case protocol verb ("compile", "optimize", "detect",
/// "coverage", "extension", "sweep").
[[nodiscard]] std::string_view to_string(Kind kind);

/// Inverse of to_string(); nullopt for anything else.
[[nodiscard]] std::optional<Kind> parse_kind(std::string_view text);

/// One service request.  `workload` names the target: a suite workload, a
/// generated-corpus scenario ("gen_<family>_<index>"), or — when `source`
/// is nonempty — the SessionPool key the inline BenchC text binds to.
/// Option structs irrelevant to `kind` are ignored (and do not affect the
/// response, thanks to Session's option normalization).
struct Request {
  std::uint64_t id = 0;  ///< Client-chosen correlation id, echoed back.
  Kind kind = Kind::kCompile;
  std::string workload;
  std::string source;  ///< Inline BenchC; empty means look `workload` up.
  opt::OptLevel level = opt::OptLevel::O1;
  chain::DetectorOptions detector;    ///< kDetection.
  chain::CoverageOptions coverage;    ///< kCoverage/kExtension/kSweep base.
  asip::SelectionOptions selection;   ///< kExtension/kSweep base.
  asip::DatapathModel datapath;       ///< kExtension/kSweep.
  opt::OptimizeOptions optimize;      ///< Every optimizing kind.
  pipeline::SweepGrid grid;           ///< kSweep only.
};

/// Flat summary of one stage artifact.  Exactly the fields relevant to
/// `kind` are filled (the rest keep their zero defaults); `error` nonempty
/// means the request failed and only id/kind/workload/error are
/// meaningful.  latency_us is the only nondeterministic field — the
/// protocol renderer omits it unless asked.
struct Response {
  std::uint64_t id = 0;
  Kind kind = Kind::kCompile;
  std::string workload;
  std::string error;

  std::uint64_t total_cycles = 0;  ///< Baseline dynamic ops (all kinds).
  std::int32_t exit_code = 0;      ///< kCompile: profiled run's main() result.
  std::size_t instructions = 0;    ///< kCompile/kOptimize: static instr count.
  std::size_t sequences = 0;       ///< kDetection: signatures reported.
  double top_frequency = 0.0;      ///< kDetection: best dynamic frequency (%).
  std::size_t steps = 0;           ///< kCoverage: chained instructions chosen.
  double total_coverage = 0.0;     ///< kCoverage: covered cycles (%).
  std::size_t selected = 0;        ///< kExtension: candidates selected.
  double total_area = 0.0;         ///< kExtension: area spent.
  double speedup = 1.0;            ///< kExtension/kSweep(best): est. speedup.
  std::size_t points = 0;          ///< kSweep: grid points evaluated.
  std::size_t point_failures = 0;  ///< kSweep: failed grid points.

  double latency_us = 0.0;  ///< Server-measured accept-to-complete wall time.

  [[nodiscard]] bool ok() const { return error.empty(); }
};

/// Synchronously executes one request against `pool` — the exact
/// computation a Server worker performs, exposed so tests and tools can
/// produce the serial reference result.  Never throws: every failure
/// (unknown workload, compile error, key/source mismatch, bad options)
/// is latched into Response::error.
[[nodiscard]] Response evaluate(const Request& request,
                                pipeline::SessionPool& pool);

/// evaluate()'s Response when everything `request` needs is already in
/// `pool`: a ready Session and, for the stage kinds, its memoized
/// artifact (SessionPool::find and the Session::find_* probes).  nullopt
/// for a sweep, an unknown workload, a bare corpus name (wl::family_of)
/// while the default corpus is not yet built, a Session not yet
/// prepared, or an artifact missing, still being computed, or latched as
/// an error — the caller then runs evaluate().  Never prepares, computes,
/// builds the corpus, consults the store, or waits on a computation, and
/// never throws.
[[nodiscard]] std::optional<Response> try_evaluate(
    const Request& request, const pipeline::SessionPool& pool);

}  // namespace asipfb::service
