#include "service/protocol.hpp"

#include <cerrno>
#include <cmath>
#include <climits>
#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "support/json.hpp"

namespace asipfb::service {

namespace {

[[noreturn]] void fail(const std::string& message) {
  throw std::invalid_argument(message);
}

std::vector<std::string> tokenize(const std::string& line) {
  std::vector<std::string> tokens;
  std::istringstream in(line);
  std::string tok;
  while (in >> tok) tokens.push_back(tok);
  return tokens;
}

std::uint64_t parse_u64(const std::string& text, const std::string& what) {
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 0);
  if (errno != 0 || end == text.c_str() || *end != '\0' || text[0] == '-') {
    fail("invalid " + what + " '" + text + "'");
  }
  return v;
}

int parse_int(const std::string& text, const std::string& what) {
  errno = 0;
  char* end = nullptr;
  const long v = std::strtol(text.c_str(), &end, 10);
  if (errno != 0 || end == text.c_str() || *end != '\0' || v < INT_MIN ||
      v > INT_MAX) {
    fail("invalid " + what + " '" + text + "'");
  }
  return static_cast<int>(v);
}

double parse_finite(const std::string& text, const std::string& what) {
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (errno != 0 || end == text.c_str() || *end != '\0') {
    fail("invalid " + what + " '" + text + "'");
  }
  if (!std::isfinite(v)) {
    fail("invalid " + what + " '" + text + "' (want a finite value)");
  }
  return v;
}

double parse_non_negative(const std::string& text, const std::string& what) {
  const double v = parse_finite(text, what);
  if (v < 0.0) fail("invalid " + what + " '" + text + "' (want >= 0)");
  return v;
}

opt::OptLevel parse_level(const std::string& text) {
  const auto level = opt::parse_opt_level(text);
  if (!level.has_value()) fail("invalid level '" + text + "' (want O0|O1|O2)");
  return *level;
}

std::vector<std::string> split_commas(const std::string& text) {
  std::vector<std::string> parts;
  if (text.empty()) return parts;  // An empty list has zero elements, not {""}.
  std::string::size_type start = 0;
  while (start <= text.size()) {
    const auto comma = text.find(',', start);
    const auto end = comma == std::string::npos ? text.size() : comma;
    parts.push_back(text.substr(start, end - start));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return parts;
}

/// Applies one key=value option to the request.
void apply_option(Request& request, const std::string& key,
                  const std::string& value) {
  if (key == "level") {
    request.level = parse_level(value);
  } else if (key == "min") {
    request.detector.min_length = parse_int(value, "min");
    request.coverage.min_length = request.detector.min_length;
  } else if (key == "max") {
    request.detector.max_length = parse_int(value, "max");
    request.coverage.max_length = request.detector.max_length;
  } else if (key == "prune") {
    request.detector.prune_percent = parse_non_negative(value, "prune");
  } else if (key == "adjacency") {
    const int v = parse_int(value, "adjacency");
    if (v != 0 && v != 1) fail("invalid adjacency '" + value + "' (want 0|1)");
    request.detector.require_adjacency = v != 0;
    request.coverage.require_adjacency = v != 0;
  } else if (key == "maxocc") {
    const int v = parse_int(value, "maxocc");
    if (v < 1) fail("invalid maxocc '" + value + "'");
    request.detector.max_occurrences = static_cast<std::size_t>(v);
  } else if (key == "floor") {
    request.coverage.floor_percent = parse_finite(value, "floor");
  } else if (key == "rounds") {
    const int v = parse_int(value, "rounds");
    if (v < 0) fail("invalid rounds '" + value + "' (want >= 0)");
    request.coverage.max_rounds = v;
  } else if (key == "area") {
    request.selection.area_budget = parse_non_negative(value, "area");
  } else if (key == "cycle") {
    request.selection.cycle_budget = parse_non_negative(value, "cycle");
  } else if (key == "levels") {
    request.grid.levels.clear();
    for (const std::string& part : split_commas(value)) {
      request.grid.levels.push_back(parse_level(part));
    }
  } else if (key == "floors") {
    request.grid.floor_percents.clear();
    for (const std::string& part : split_commas(value)) {
      request.grid.floor_percents.push_back(parse_finite(part, "floors"));
    }
  } else if (key == "budgets") {
    request.grid.area_budgets.clear();
    for (const std::string& part : split_commas(value)) {
      request.grid.area_budgets.push_back(parse_non_negative(part, "budgets"));
    }
  } else {
    fail("unknown option '" + key + "'");
  }
}

}  // namespace

Command parse_command(const std::string& line) {
  Command command;
  // Tokenize first: operator>> skips the full isspace set, so this is the
  // one definition of "blank" (a '\v'/'\f'-only line is blank too).
  const std::vector<std::string> tokens = tokenize(line);
  if (tokens.empty() || tokens[0][0] == '#') {
    command.type = Command::Type::kComment;
    return command;
  }

  if (tokens[0] == "stats" || tokens[0] == "ping" || tokens[0] == "quit") {
    if (tokens.size() != 1) fail("'" + tokens[0] + "' takes no arguments");
    command.type = tokens[0] == "stats"  ? Command::Type::kStats
                   : tokens[0] == "ping" ? Command::Type::kPing
                                         : Command::Type::kQuit;
    return command;
  }
  if (tokens[0] == "source") {
    if (tokens.size() != 3) fail("usage: source <name> <line-count>");
    command.type = Command::Type::kSource;
    command.source_name = tokens[1];
    command.source_lines = parse_int(tokens[2], "source line count");
    if (command.source_lines < 1) fail("source line count must be >= 1");
    return command;
  }

  // <id> <kind> <workload> [key=value]...
  if (tokens.size() < 3) {
    fail("usage: <id> <kind> <workload> [key=value]...");
  }
  command.type = Command::Type::kRequest;
  command.request.id = parse_u64(tokens[0], "request id");
  const auto kind = parse_kind(tokens[1]);
  if (!kind.has_value()) {
    fail("unknown kind '" + tokens[1] +
         "' (want compile|optimize|detect|coverage|extension|sweep)");
  }
  command.request.kind = *kind;
  command.request.workload = tokens[2];
  for (std::size_t i = 3; i < tokens.size(); ++i) {
    const auto eq = tokens[i].find('=');
    if (eq == std::string::npos || eq == 0) {
      fail("malformed option '" + tokens[i] + "' (want key=value)");
    }
    // An empty value is structurally fine: list keys ("levels=") mean the
    // empty list, scalar keys reject "" in their own parser with a
    // key-specific diagnostic.
    apply_option(command.request, tokens[i].substr(0, eq),
                 tokens[i].substr(eq + 1));
  }
  // Checked once every option is applied, so "max=3 min=4" is caught in
  // either order.  min and max set detection and coverage alike.
  const chain::DetectorOptions& detector = command.request.detector;
  if (detector.min_length < 1) {
    fail("invalid min '" + std::to_string(detector.min_length) + "' (want >= 1)");
  }
  if (detector.max_length < detector.min_length) {
    fail("invalid max '" + std::to_string(detector.max_length) +
         "' (want >= min " + std::to_string(detector.min_length) + ")");
  }
  return command;
}

std::string render_response(const Response& response, bool with_latency) {
  support::JsonWriter json;
  json.inline_object()
      .member("id", response.id)
      .member("kind", to_string(response.kind))
      .member("workload", response.workload)
      .member("ok", response.ok());
  if (!response.ok()) {
    json.member("error", response.error);
  } else {
    json.member("cycles", response.total_cycles);
    switch (response.kind) {
      case Kind::kCompile:
        json.member("exit", static_cast<std::int64_t>(response.exit_code))
            .member("instructions",
                    static_cast<std::uint64_t>(response.instructions));
        break;
      case Kind::kOptimize:
        json.member("instructions",
                    static_cast<std::uint64_t>(response.instructions));
        break;
      case Kind::kDetection:
        json.member("sequences", static_cast<std::uint64_t>(response.sequences))
            .member("top_frequency", response.top_frequency);
        break;
      case Kind::kCoverage:
        json.member("steps", static_cast<std::uint64_t>(response.steps))
            .member("coverage", response.total_coverage);
        break;
      case Kind::kExtension:
        json.member("selected", static_cast<std::uint64_t>(response.selected))
            .member("area", response.total_area)
            .member("speedup", response.speedup);
        break;
      case Kind::kSweep:
        json.member("points", static_cast<std::uint64_t>(response.points))
            .member("point_failures",
                    static_cast<std::uint64_t>(response.point_failures))
            .member("best_speedup", response.speedup)
            .member("best_coverage", response.total_coverage);
        break;
    }
  }
  if (with_latency) json.member("latency_us", response.latency_us);
  json.end_object();
  return json.str();
}

std::string render_stats(const Stats& stats, bool with_latency) {
  support::JsonWriter json;
  json.inline_object()
      .member("stats", true)
      .member("submitted", stats.submitted)
      .member("completed", stats.completed)
      .member("failed", stats.failed)
      .member("rejected", stats.rejected)
      .member("queue_depth", static_cast<std::uint64_t>(stats.queue_depth));
  for (std::size_t k = 0; k < kKindCount; ++k) {
    json.member(to_string(static_cast<Kind>(k)), stats.completed_by_kind[k]);
  }
  if (with_latency) {
    // Stage memo and warm-start counters share the nondeterministic
    // section with the latency fields: a disk-cache hit for a downstream
    // artifact short-circuits the upstream stages it would otherwise have
    // queried (a warm detection never touches optimize), so every one of
    // these depends on the state of the artifact store, not just on the
    // completed request mix — they must stay out of byte-diffed output.
    const pipeline::Session::Stats& stages = stats.pool.stages;
    json.member("optimize_runs", stages.optimize_runs)
        .member("detect_runs", stages.detect_runs)
        .member("coverage_runs", stages.coverage_runs)
        .member("extension_runs", stages.extension_runs)
        .member("stage_hits", stages.hits)
        .member("sessions", stats.pool.sessions)
        .member("baselines_computed", stats.pool.computed)
        .member("baselines_disk", stats.pool.disk_cache)
        .member("disk_hits", stages.disk_hits)
        .member("disk_misses", stages.disk_misses)
        .member("store_hits", stats.store.hits)
        .member("store_misses", stats.store.misses)
        .member("store_writes", stats.store.writes)
        .member("store_evictions", stats.store.evictions)
        .member("store_corrupt", stats.store.corrupt)
        .member("uptime_seconds", stats.uptime_seconds)
        .member("p50_latency_us", stats.latency.quantile_us(0.50))
        .member("p99_latency_us", stats.latency.quantile_us(0.99))
        .member("p999_latency_us", stats.latency.quantile_us(0.999))
        .member("max_latency_us",
                static_cast<double>(stats.latency.max_ns) / 1000.0);
  }
  json.end_object();
  return json.str();
}

std::string render_error(const std::string& message) {
  support::JsonWriter json;
  json.inline_object().member("ok", false).member("error", message).end_object();
  return json.str();
}

}  // namespace asipfb::service
