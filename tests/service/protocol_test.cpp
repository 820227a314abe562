// Grammar and rendering contracts of the service line protocol
// (src/service/protocol.hpp): request parsing with every option key,
// control lines, malformed-input diagnostics, and the deterministic
// one-line JSON renderings the CI smoke diff relies on.
#include "service/protocol.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

namespace asipfb::service {
namespace {

TEST(ServiceProtocol, ParsesFullDetectionRequest) {
  const Command c = parse_command(
      "7 detect fir level=O2 min=3 max=4 prune=1.5 adjacency=1 maxocc=1000");
  ASSERT_EQ(c.type, Command::Type::kRequest);
  EXPECT_EQ(c.request.id, 7u);
  EXPECT_EQ(c.request.kind, Kind::kDetection);
  EXPECT_EQ(c.request.workload, "fir");
  EXPECT_EQ(c.request.level, opt::OptLevel::O2);
  EXPECT_EQ(c.request.detector.min_length, 3);
  EXPECT_EQ(c.request.detector.max_length, 4);
  EXPECT_DOUBLE_EQ(c.request.detector.prune_percent, 1.5);
  EXPECT_TRUE(c.request.detector.require_adjacency);
  EXPECT_EQ(c.request.detector.max_occurrences, 1000u);
  // min/max/adjacency mirror into the coverage options so one knob set
  // configures whichever stage runs.
  EXPECT_EQ(c.request.coverage.min_length, 3);
  EXPECT_TRUE(c.request.coverage.require_adjacency);
}

TEST(ServiceProtocol, ParsesCoverageExtensionAndSweepKeys) {
  const Command cov = parse_command("1 coverage edge floor=2.5 rounds=6");
  EXPECT_DOUBLE_EQ(cov.request.coverage.floor_percent, 2.5);
  EXPECT_EQ(cov.request.coverage.max_rounds, 6);

  const Command ext = parse_command("2 extension fir area=25 cycle=6");
  EXPECT_DOUBLE_EQ(ext.request.selection.area_budget, 25.0);
  EXPECT_DOUBLE_EQ(ext.request.selection.cycle_budget, 6.0);

  const Command sweep =
      parse_command("3 sweep dft levels=O0,O2 floors=2,4 budgets=10,40,80");
  ASSERT_EQ(sweep.request.grid.levels.size(), 2u);
  EXPECT_EQ(sweep.request.grid.levels[0], opt::OptLevel::O0);
  EXPECT_EQ(sweep.request.grid.levels[1], opt::OptLevel::O2);
  ASSERT_EQ(sweep.request.grid.floor_percents.size(), 2u);
  EXPECT_DOUBLE_EQ(sweep.request.grid.floor_percents[1], 4.0);
  ASSERT_EQ(sweep.request.grid.area_budgets.size(), 3u);
  EXPECT_DOUBLE_EQ(sweep.request.grid.area_budgets[2], 80.0);
}

TEST(ServiceProtocol, EmptyListValueParsesToEmptyGrid) {
  // Regression: split_commas("") returned {""}, so "levels=" blew up on
  // parsing "" as a level instead of meaning the empty list.  The empty
  // grid then fails deterministically at evaluation ("sweep grid is
  // empty"), not at parse time.
  const Command sweep = parse_command("1 sweep fir levels= floors= budgets=");
  ASSERT_EQ(sweep.type, Command::Type::kRequest);
  EXPECT_TRUE(sweep.request.grid.levels.empty());
  EXPECT_TRUE(sweep.request.grid.floor_percents.empty());
  EXPECT_TRUE(sweep.request.grid.area_budgets.empty());
}

TEST(ServiceProtocol, TrailingCommaListIsDiagnosedPerElement) {
  // "O0," is the two-element list {"O0", ""}: the empty trailing element
  // hits the level parser's own diagnostic, never a crash or silent drop.
  try {
    (void)parse_command("1 sweep fir levels=O0,");
    FAIL() << "trailing comma must be rejected";
  } catch (const std::invalid_argument& ex) {
    EXPECT_NE(std::string(ex.what()).find("invalid level ''"),
              std::string::npos)
        << ex.what();
  }
  EXPECT_THROW((void)parse_command("1 sweep fir floors=2,,4"),
               std::invalid_argument);
}

TEST(ServiceProtocol, ParsesControlAndCommentLines) {
  EXPECT_EQ(parse_command("stats").type, Command::Type::kStats);
  EXPECT_EQ(parse_command("ping").type, Command::Type::kPing);
  EXPECT_EQ(parse_command("quit").type, Command::Type::kQuit);
  EXPECT_EQ(parse_command("").type, Command::Type::kComment);
  EXPECT_EQ(parse_command("   ").type, Command::Type::kComment);
  EXPECT_EQ(parse_command("# a comment").type, Command::Type::kComment);
  // Blank means the full isspace set, not just space/tab/CR.
  EXPECT_EQ(parse_command("\v").type, Command::Type::kComment);
  EXPECT_EQ(parse_command(" \f \v ").type, Command::Type::kComment);

  const Command source = parse_command("source mykernel 12");
  ASSERT_EQ(source.type, Command::Type::kSource);
  EXPECT_EQ(source.source_name, "mykernel");
  EXPECT_EQ(source.source_lines, 12);
}

TEST(ServiceProtocol, EveryKindVerbRoundTrips) {
  for (std::size_t k = 0; k < kKindCount; ++k) {
    const Kind kind = static_cast<Kind>(k);
    const auto parsed = parse_kind(to_string(kind));
    ASSERT_TRUE(parsed.has_value()) << to_string(kind);
    EXPECT_EQ(*parsed, kind);
  }
  EXPECT_FALSE(parse_kind("detection").has_value());
  EXPECT_FALSE(parse_kind("").has_value());
}

TEST(ServiceProtocol, MalformedLinesThrowWithDiagnostics) {
  EXPECT_THROW((void)parse_command("x detect fir"), std::invalid_argument);
  EXPECT_THROW((void)parse_command("1 frobnicate fir"), std::invalid_argument);
  EXPECT_THROW((void)parse_command("1 detect"), std::invalid_argument);
  EXPECT_THROW((void)parse_command("1 detect fir level=O9"), std::invalid_argument);
  EXPECT_THROW((void)parse_command("1 detect fir nonsense"), std::invalid_argument);
  EXPECT_THROW((void)parse_command("1 detect fir =3"), std::invalid_argument);
  EXPECT_THROW((void)parse_command("1 detect fir min="), std::invalid_argument);
  EXPECT_THROW((void)parse_command("1 detect fir bogus=3"), std::invalid_argument);
  EXPECT_THROW((void)parse_command("1 detect fir adjacency=2"),
               std::invalid_argument);
  EXPECT_THROW((void)parse_command("1 detect fir min=abc"), std::invalid_argument);
  EXPECT_THROW((void)parse_command("source onlyname"), std::invalid_argument);
  EXPECT_THROW((void)parse_command("source name 0"), std::invalid_argument);
  EXPECT_THROW((void)parse_command("stats now"), std::invalid_argument);

  try {
    (void)parse_command("1 detect fir bogus=3");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& ex) {
    EXPECT_NE(std::string(ex.what()).find("bogus"), std::string::npos);
  }
}

TEST(ServiceProtocol, RejectsOutOfRangeChainOptions) {
  // None of these has a meaning for the analyses; each is a parse error
  // instead of a request that reaches them.
  for (const char* line :
       {"1 detect fir prune=-1", "1 detect fir prune=nan", "1 detect fir prune=inf",
        "1 detect fir prune=-0.5", "1 coverage fir floor=nan",
        "1 coverage fir floor=-inf", "1 sweep fir floors=2,nan",
        "1 detect fir min=0", "1 detect fir min=-2 max=5", "1 detect fir max=-1",
        "1 detect fir max=1", "1 detect fir min=4 max=3",
        "1 detect fir max=3 min=4", "1 coverage fir min=6",
        "1 coverage fir rounds=-1", "1 extension fir rounds=-3"}) {
    EXPECT_THROW((void)parse_command(line), std::invalid_argument) << line;
  }
  // The edges of the ranges are accepted.
  const Command edge = parse_command("1 detect fir min=1 max=1 prune=0 floor=-1");
  EXPECT_EQ(edge.request.detector.min_length, 1);
  EXPECT_EQ(edge.request.coverage.max_length, 1);
  EXPECT_DOUBLE_EQ(edge.request.detector.prune_percent, 0.0);
  EXPECT_DOUBLE_EQ(edge.request.coverage.floor_percent, -1.0);
  EXPECT_EQ(parse_command("1 detect fir min=4 max=4").request.detector.max_length, 4);
  EXPECT_EQ(parse_command("1 coverage fir rounds=0").request.coverage.max_rounds, 0);
  EXPECT_EQ(parse_command("1 detect fir max=1000000").request.detector.max_length,
            1000000);
}

TEST(ServiceProtocol, RejectsNonFiniteOrNegativeBudgets) {
  // A NaN area budget used to lift the area limit and a NaN cycle budget
  // to select nothing; both are parse errors now, as are negative and
  // infinite budgets, in every budget position.
  for (const char* line :
       {"1 extension fir area=nan", "1 extension fir area=inf",
        "1 extension fir area=-1", "1 extension fir area=-inf",
        "1 extension fir cycle=nan", "1 extension fir cycle=inf",
        "1 extension fir cycle=-0.5", "1 sweep fir area=nan",
        "1 sweep fir budgets=nan,10", "1 sweep fir budgets=10,inf",
        "1 sweep fir budgets=-10", "1 extension fir area=10x"}) {
    EXPECT_THROW((void)parse_command(line), std::invalid_argument) << line;
  }
  // Zero and large finite budgets stay accepted.
  const Command zero = parse_command("1 extension fir area=0 cycle=0");
  EXPECT_DOUBLE_EQ(zero.request.selection.area_budget, 0.0);
  EXPECT_DOUBLE_EQ(zero.request.selection.cycle_budget, 0.0);
  const Command sweep = parse_command("1 sweep fir budgets=0,1e9");
  EXPECT_EQ(sweep.request.grid.area_budgets, (std::vector<double>{0.0, 1e9}));
}

TEST(ServiceProtocol, RenderedResponsesAreDeterministicOneLiners) {
  Response r;
  r.id = 3;
  r.kind = Kind::kDetection;
  r.workload = "fir";
  r.total_cycles = 1000;
  r.sequences = 19;
  r.top_frequency = 36.51;
  r.latency_us = 123.456;  // Must NOT appear without with_latency.
  const std::string line = render_response(r);
  EXPECT_EQ(line,
            "{\"id\": 3, \"kind\": \"detect\", \"workload\": \"fir\", "
            "\"ok\": true, \"cycles\": 1000, \"sequences\": 19, "
            "\"top_frequency\": 36.51}");
  EXPECT_EQ(line.find('\n'), std::string::npos);

  const std::string with_latency = render_response(r, /*with_latency=*/true);
  EXPECT_NE(with_latency.find("latency_us"), std::string::npos);
}

TEST(ServiceProtocol, RenderedErrorCarriesOnlyStableFields) {
  Response r;
  r.id = 9;
  r.kind = Kind::kSweep;
  r.workload = "nosuch";
  r.error = "no such workload";
  r.latency_us = 7.0;
  EXPECT_EQ(render_response(r),
            "{\"id\": 9, \"kind\": \"sweep\", \"workload\": \"nosuch\", "
            "\"ok\": false, \"error\": \"no such workload\"}");
}

TEST(ServiceProtocol, RenderedStatsExcludeTimingByDefault) {
  Stats s;
  s.submitted = 8;
  s.completed = 8;
  s.failed = 3;
  s.completed_by_kind[static_cast<std::size_t>(Kind::kCompile)] = 2;
  s.completed_by_kind[static_cast<std::size_t>(Kind::kDetection)] = 3;
  s.uptime_seconds = 1.5;
  s.latency.counts[13] = 8;
  s.latency.total = 8;
  s.latency.max_ns = 10000;
  const std::string line = render_stats(s);
  EXPECT_EQ(line,
            "{\"stats\": true, \"submitted\": 8, \"completed\": 8, "
            "\"failed\": 3, \"rejected\": 0, \"queue_depth\": 0, "
            "\"compile\": 2, \"optimize\": 0, \"detect\": 3, "
            "\"coverage\": 0, \"extension\": 0, \"sweep\": 0}");
  EXPECT_NE(render_stats(s, /*with_latency=*/true).find("p50_latency_us"),
            std::string::npos);
  EXPECT_NE(render_stats(s, /*with_latency=*/true).find("p999_latency_us"),
            std::string::npos);
}

TEST(ServiceProtocol, StageAndCacheCountersRenderOnlyWithLatency) {
  Stats s;
  s.pool.stages.optimize_runs = 4;
  s.pool.stages.hits = 2;
  s.pool.sessions = 3;
  s.pool.disk_cache = 1;
  s.store.hits = 7;
  s.store.corrupt = 1;
  // The default line is the byte-diffed transcript surface: stage memo
  // and warm-start counters depend on the artifact store's state, so
  // they must never leak into it.
  const std::string plain = render_stats(s);
  for (const char* field :
       {"optimize_runs", "detect_runs", "coverage_runs", "extension_runs",
        "stage_hits", "sessions", "baselines_computed", "baselines_disk",
        "disk_hits", "disk_misses", "store_hits", "store_misses",
        "store_writes", "store_evictions", "store_corrupt"}) {
    EXPECT_EQ(plain.find(field), std::string::npos) << field;
  }
  const std::string with = render_stats(s, /*with_latency=*/true);
  EXPECT_NE(with.find("\"optimize_runs\": 4"), std::string::npos);
  EXPECT_NE(with.find("\"stage_hits\": 2"), std::string::npos);
  EXPECT_NE(with.find("\"sessions\": 3"), std::string::npos);
  EXPECT_NE(with.find("\"baselines_disk\": 1"), std::string::npos);
  EXPECT_NE(with.find("\"store_hits\": 7"), std::string::npos);
  EXPECT_NE(with.find("\"store_corrupt\": 1"), std::string::npos);
}

// Every counter distinct, so a swapped or dropped field changes the line.
// The latency values are ones a histogram produces: 500 samples in
// [2^10, 2^11) ns, 490 in [2^12, 2^13), 9 in [2^15, 2^16) and one of
// 1.5 ms give p50/p99/p999 at the bucket upper edges 2048, 8192 and
// 65536 ns and max 1500 us.
Stats pinned_stats() {
  Stats s;
  s.submitted = 1004;
  s.completed = 1000;
  s.failed = 9;
  s.rejected = 3;
  s.queue_depth = 4;
  const std::uint64_t by_kind[kKindCount] = {110, 120, 130, 140, 150, 350};
  for (std::size_t k = 0; k < kKindCount; ++k) {
    s.completed_by_kind[k] = by_kind[k];
  }
  s.pool.stages.optimize_runs = 21;
  s.pool.stages.detect_runs = 22;
  s.pool.stages.coverage_runs = 23;
  s.pool.stages.extension_runs = 24;
  s.pool.stages.hits = 250;
  s.pool.sessions = 6;
  s.pool.computed = 5;
  s.pool.disk_cache = 1;
  s.pool.stages.disk_hits = 26;
  s.pool.stages.disk_misses = 27;
  s.store.hits = 28;
  s.store.misses = 29;
  s.store.writes = 30;
  s.store.evictions = 2;
  s.store.corrupt = 7;
  s.uptime_seconds = 12.5;
  s.latency.counts[10] = 500;
  s.latency.counts[12] = 490;
  s.latency.counts[15] = 9;
  s.latency.counts[20] = 1;
  s.latency.total = 1000;
  s.latency.max_ns = 1'500'000;
  return s;
}

TEST(ServiceProtocol, PinsTheWholeStatsLine) {
  const Stats s = pinned_stats();
  const std::string plain =
      "{\"stats\": true, \"submitted\": 1004, \"completed\": 1000, "
      "\"failed\": 9, \"rejected\": 3, \"queue_depth\": 4, "
      "\"compile\": 110, \"optimize\": 120, \"detect\": 130, "
      "\"coverage\": 140, \"extension\": 150, \"sweep\": 350";
  EXPECT_EQ(render_stats(s), plain + "}");
  EXPECT_EQ(render_stats(s, /*with_latency=*/true),
            plain +
                ", \"optimize_runs\": 21, \"detect_runs\": 22, "
                "\"coverage_runs\": 23, \"extension_runs\": 24, "
                "\"stage_hits\": 250, \"sessions\": 6, "
                "\"baselines_computed\": 5, \"baselines_disk\": 1, "
                "\"disk_hits\": 26, \"disk_misses\": 27, "
                "\"store_hits\": 28, \"store_misses\": 29, "
                "\"store_writes\": 30, \"store_evictions\": 2, "
                "\"store_corrupt\": 7, \"uptime_seconds\": 12.5, "
                "\"p50_latency_us\": 2.048, \"p99_latency_us\": 8.192, "
                "\"p999_latency_us\": 65.54, \"max_latency_us\": 1500}");
}

TEST(ServiceProtocol, RenderErrorEscapesMessage) {
  EXPECT_EQ(render_error("bad \"line\""),
            "{\"ok\": false, \"error\": \"bad \\\"line\\\"\"}");
}

}  // namespace
}  // namespace asipfb::service
