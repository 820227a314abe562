// Newline-delimited text protocol of the evaluation service: one command
// per request line in, one JSON object per response line out.  This is
// the format examples/asipfb_serve speaks over stdin/stdout so shell
// scripts and CI can drive the server; docs/SERVICE.md holds the full
// grammar with examples.
//
//   request  := <id> <kind> <workload> [<key>=<value>]...
//   kind     := compile | optimize | detect | coverage | extension | sweep
//   keys     := level=O0|O1|O2
//               min=N max=N prune=F adjacency=0|1 maxocc=N     (detect)
//               floor=F rounds=N                               (coverage)
//               area=F cycle=F                                 (extension)
//               levels=O0,O1 floors=2,4 budgets=10,40          (sweep)
//   control  := source <name> <line-count>   (next lines are BenchC text)
//             | stats | ping | quit
//   comment  := blank line, or first non-space character '#'
//
// parse_command() throws std::invalid_argument with a human-readable
// message on any malformed line; ProtocolSession (net.hpp) turns that into
// an {"ok": false, "error": ...} line instead of dying.  render_response()
// emits deterministic fields only unless with_latency is set, so a
// scripted session's output is byte-stable and diffable in CI.
#pragma once

#include <string>

#include "service/server.hpp"
#include "service/service.hpp"

namespace asipfb::service {

/// One parsed protocol line.
struct Command {
  enum class Type { kRequest, kSource, kStats, kPing, kQuit, kComment };
  Type type = Type::kComment;
  Request request;          ///< kRequest only.
  std::string source_name;  ///< kSource only: the key the text binds to.
  int source_lines = 0;     ///< kSource only: raw lines that follow.
};

/// Parses one protocol line (without its trailing newline).  Throws
/// std::invalid_argument on malformed input.
[[nodiscard]] Command parse_command(const std::string& line);

/// One-line JSON rendering of a response.  Field order is fixed and only
/// the fields relevant to the response's kind (or its error) appear;
/// latency_us is appended only when `with_latency` — the one
/// nondeterministic field, kept out of diffable output by default.
[[nodiscard]] std::string render_response(const Response& response,
                                          bool with_latency = false);

/// One-line JSON rendering of a Stats snapshot.  Deterministic counters
/// only by default; the pool and store counters, uptime and the latency
/// quantiles (estimated here, from stats.latency) appear when
/// `with_latency`.
[[nodiscard]] std::string render_stats(const Stats& stats,
                                       bool with_latency = false);

/// One-line JSON error (used by front ends for lines that fail to parse).
[[nodiscard]] std::string render_error(const std::string& message);

}  // namespace asipfb::service
