// Contracts of the concurrent evaluation service (service::Server):
// determinism (concurrent == serial, bit-identical through the rendered
// protocol), bounded-queue backpressure, graceful shutdown draining,
// latched per-request errors that never kill a worker, memo hits answered
// on the calling thread byte-identically and counted like queued
// answers, and Stats accounting.  This suite runs under the CI TSan leg.
#include "service/server.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <future>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <system_error>
#include <thread>
#include <utility>
#include <vector>

#include "service/protocol.hpp"
#include "service/router.hpp"
#include "service/service.hpp"
#include "workloads/generator.hpp"
#include "workloads/suite.hpp"

namespace asipfb::service {
namespace {

Request make_request(std::uint64_t id, Kind kind, std::string workload,
                     opt::OptLevel level = opt::OptLevel::O1) {
  Request r;
  r.id = id;
  r.kind = kind;
  r.workload = std::move(workload);
  r.level = level;
  return r;
}

/// A representative mixed-stage request list: every kind, several
/// workloads (suite + generated corpus), several levels and option sets.
std::vector<Request> mixed_requests() {
  std::vector<Request> requests;
  std::uint64_t id = 0;
  for (const std::string name : {"fir", "edge", "dft"}) {
    requests.push_back(make_request(++id, Kind::kCompile, name));
    requests.push_back(
        make_request(++id, Kind::kOptimize, name, opt::OptLevel::O2));
    requests.push_back(make_request(++id, Kind::kDetection, name));
    requests.push_back(
        make_request(++id, Kind::kDetection, name, opt::OptLevel::O0));
    requests.push_back(make_request(++id, Kind::kCoverage, name));
    requests.push_back(make_request(++id, Kind::kExtension, name));
  }
  Request floor2 = make_request(++id, Kind::kCoverage, "fir");
  floor2.coverage.floor_percent = 2.0;
  requests.push_back(floor2);
  Request tight = make_request(++id, Kind::kExtension, "edge");
  tight.selection.area_budget = 10.0;
  requests.push_back(tight);
  Request sweep = make_request(++id, Kind::kSweep, "fir");
  sweep.grid.levels = {opt::OptLevel::O0, opt::OptLevel::O1};
  sweep.grid.floor_percents = {2.0, 4.0};
  sweep.grid.area_budgets = {40.0};
  requests.push_back(sweep);
  const auto& corpus = wl::default_corpus();
  for (std::size_t i = 0; i < 4 && i < corpus.size(); ++i) {
    requests.push_back(make_request(++id, Kind::kDetection, corpus[i].name));
  }
  return requests;
}

TEST(ServiceEvaluate, CompileSummaryMatchesSession) {
  pipeline::SessionPool pool;
  const Response r =
      evaluate(make_request(7, Kind::kCompile, "fir", opt::OptLevel::O0), pool);
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(r.id, 7u);
  EXPECT_EQ(r.kind, Kind::kCompile);
  const auto session = pool.get("fir");
  EXPECT_EQ(r.total_cycles, session->total_cycles());
  EXPECT_EQ(r.exit_code, session->prepared().baseline_run.exit_code);
  EXPECT_EQ(r.instructions, session->prepared().module.instr_count());
}

TEST(ServiceEvaluate, EveryKindFillsItsFields) {
  pipeline::SessionPool pool;
  const Response detect =
      evaluate(make_request(1, Kind::kDetection, "fir"), pool);
  ASSERT_TRUE(detect.ok());
  EXPECT_GT(detect.sequences, 0u);
  EXPECT_GT(detect.top_frequency, 0.0);

  const Response coverage =
      evaluate(make_request(2, Kind::kCoverage, "fir"), pool);
  ASSERT_TRUE(coverage.ok());
  EXPECT_GT(coverage.steps, 0u);
  EXPECT_GT(coverage.total_coverage, 0.0);

  const Response extension =
      evaluate(make_request(3, Kind::kExtension, "fir"), pool);
  ASSERT_TRUE(extension.ok());
  EXPECT_GT(extension.selected, 0u);
  EXPECT_GE(extension.speedup, 1.0);

  Request sweep = make_request(4, Kind::kSweep, "fir");
  sweep.grid.levels = {opt::OptLevel::O1};
  sweep.grid.floor_percents = {4.0};
  sweep.grid.area_budgets = {40.0};
  const Response swept = evaluate(sweep, pool);
  ASSERT_TRUE(swept.ok()) << swept.error;
  EXPECT_EQ(swept.points, 1u);
  EXPECT_EQ(swept.point_failures, 0u);
  EXPECT_GE(swept.speedup, 1.0);
}

TEST(ServiceEvaluate, SweepReportsBestPointEvenAtUnitSpeedup) {
  // A zero area budget selects nothing, so every point's speedup is
  // exactly 1.0 — the best-point summary must still carry that point's
  // coverage instead of the zero defaults.
  pipeline::SessionPool pool;
  Request sweep = make_request(1, Kind::kSweep, "fir");
  sweep.grid.levels = {opt::OptLevel::O1};
  sweep.grid.floor_percents = {4.0};
  sweep.grid.area_budgets = {0.0};
  const Response swept = evaluate(sweep, pool);
  ASSERT_TRUE(swept.ok()) << swept.error;
  EXPECT_DOUBLE_EQ(swept.speedup, 1.0);
  const Response cov = evaluate(make_request(2, Kind::kCoverage, "fir"), pool);
  EXPECT_DOUBLE_EQ(swept.total_coverage, cov.total_coverage);
}

TEST(ServiceEvaluate, SweepMatchesExtensionAtSameCorner) {
  pipeline::SessionPool pool;
  Request sweep = make_request(1, Kind::kSweep, "fir");
  sweep.grid.levels = {opt::OptLevel::O1};
  sweep.grid.floor_percents = {4.0};
  sweep.grid.area_budgets = {40.0};
  const Response swept = evaluate(sweep, pool);
  const Response ext = evaluate(make_request(2, Kind::kExtension, "fir"), pool);
  ASSERT_TRUE(swept.ok());
  ASSERT_TRUE(ext.ok());
  EXPECT_DOUBLE_EQ(swept.speedup, ext.speedup);
  EXPECT_DOUBLE_EQ(swept.total_area, ext.total_area);
  EXPECT_EQ(swept.selected, ext.selected);
}

TEST(ServiceEvaluate, SweepLooksUpTheNameBeforeCheckingTheGrid) {
  pipeline::SessionPool pool;
  Request sweep = make_request(1, Kind::kSweep, "no_such_workload");
  const Response defaults = evaluate(sweep, pool);
  EXPECT_EQ(defaults.error,
            "no such workload or generated scenario: no_such_workload");

  sweep.grid.levels.clear();
  const Response empty = evaluate(sweep, pool);
  EXPECT_EQ(empty.error,
            "no such workload or generated scenario: no_such_workload");
  EXPECT_EQ(pool.size(), 0u);
}

TEST(ServiceEvaluate, EmptySweepGridFailsBeforeAnythingIsPrepared) {
  pipeline::SessionPool pool;
  Request named = make_request(1, Kind::kSweep, "fir");
  named.grid.area_budgets.clear();
  EXPECT_EQ(evaluate(named, pool).error, "sweep grid is empty");
  EXPECT_EQ(pool.size(), 0u);

  // Inline source that does not compile: the grid check answers first,
  // and the key stays unbound, so a later request may bind other source.
  Request broken = make_request(2, Kind::kSweep, "broken");
  broken.source = "int main() { return undefined_variable; }\n";
  broken.grid.floor_percents.clear();
  EXPECT_EQ(evaluate(broken, pool).error, "sweep grid is empty");
  EXPECT_EQ(pool.size(), 0u);

  Request fixed = make_request(3, Kind::kCompile, "broken");
  fixed.source = "int main() { return 7; }\n";
  const Response compiled = evaluate(fixed, pool);
  ASSERT_TRUE(compiled.ok()) << compiled.error;
  EXPECT_EQ(compiled.exit_code, 7);
}

TEST(ServiceEvaluate, SweepOverSourceThatDoesNotCompileAnswersTheCompileError) {
  const std::string broken = "int main() { return undefined_variable; }\n";
  pipeline::SessionPool compile_pool;
  Request compile = make_request(1, Kind::kCompile, "broken");
  compile.source = broken;
  const Response compiled = evaluate(compile, compile_pool);
  ASSERT_FALSE(compiled.ok());

  pipeline::SessionPool pool;
  Request sweep = make_request(2, Kind::kSweep, "broken");
  sweep.source = broken;
  const Response swept = evaluate(sweep, pool);
  EXPECT_EQ(swept.error, compiled.error);
  EXPECT_EQ(pool.size(), 0u);
}

TEST(ServiceEvaluate, NanBudgetFailsOnlyItsOwnSweepPoints) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  pipeline::SessionPool pool;
  Request sweep = make_request(1, Kind::kSweep, "fir");
  sweep.grid.levels = {opt::OptLevel::O0, opt::OptLevel::O1};
  sweep.grid.floor_percents = {4.0};
  sweep.grid.area_budgets = {10.0, nan, 40.0, 40.0};
  const Response swept = evaluate(sweep, pool);
  ASSERT_TRUE(swept.ok()) << swept.error;
  EXPECT_EQ(swept.points, 8u);
  EXPECT_EQ(swept.point_failures, 2u);
  EXPECT_EQ(swept.total_cycles, pool.get("fir")->total_cycles());

  // The best point is the first one, in grid order (level, then budget),
  // with the highest speedup among the points that did not fail.
  Response best;
  bool have_best = false;
  for (const auto level : sweep.grid.levels) {
    for (const double budget : sweep.grid.area_budgets) {
      if (std::isnan(budget)) continue;
      Request ext = make_request(2, Kind::kExtension, "fir", level);
      ext.selection.area_budget = budget;
      const Response r = evaluate(ext, pool);
      ASSERT_TRUE(r.ok()) << r.error;
      if (!have_best || r.speedup > best.speedup) {
        have_best = true;
        best = r;
        best.total_coverage =
            evaluate(make_request(3, Kind::kCoverage, "fir", level), pool)
                .total_coverage;
      }
    }
  }
  ASSERT_TRUE(have_best);
  EXPECT_EQ(swept.speedup, best.speedup);
  EXPECT_EQ(swept.total_area, best.total_area);
  EXPECT_EQ(swept.selected, best.selected);
  EXPECT_EQ(swept.total_coverage, best.total_coverage);
}

TEST(ServiceEvaluate, InlineSourceBindsAndMismatchIsLatched) {
  pipeline::SessionPool pool;
  Request inline_req = make_request(1, Kind::kCompile, "tiny");
  inline_req.source = "int main() { return 41 + 1; }\n";
  const Response first = evaluate(inline_req, pool);
  ASSERT_TRUE(first.ok()) << first.error;
  EXPECT_EQ(first.exit_code, 42);

  // Same key, different source: the pool's binding contract surfaces as a
  // per-request error.
  Request mismatch = inline_req;
  mismatch.id = 2;
  mismatch.source = "int main() { return 0; }\n";
  const Response second = evaluate(mismatch, pool);
  ASSERT_FALSE(second.ok());
  EXPECT_NE(second.error.find("already bound"), std::string::npos);

  // A name request for the bound key hits the pool only via source — a
  // bare lookup of an unknown name still fails cleanly.
  const Response unknown =
      evaluate(make_request(3, Kind::kCompile, "tiny"), pool);
  EXPECT_FALSE(unknown.ok());
}

// --- Determinism ------------------------------------------------------------

TEST(ServiceServer, ConcurrentResultsBitIdenticalToSerial) {
  const std::vector<Request> requests = mixed_requests();

  // Serial reference: evaluate() on a fresh pool, no server involved.
  std::map<std::uint64_t, std::string> expected;
  {
    pipeline::SessionPool pool;
    for (const auto& r : requests) {
      expected[r.id] = render_response(evaluate(r, pool));
    }
  }

  // Concurrent: several client threads share one server; every client
  // pipelines an interleaved slice through try_submit_async (retrying on
  // backpressure) and collects the callbacks.  Responses must render
  // byte-identically to the serial reference (render_response excludes
  // latency).
  ServerOptions options;
  options.workers = 8;
  Server server(options);
  constexpr int kClients = 4;
  std::vector<std::map<std::uint64_t, std::string>> got(kClients);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      std::mutex mu;
      std::condition_variable cv;
      std::size_t expected_count = 0;
      for (std::size_t i = c; i < requests.size(); i += kClients) {
        ++expected_count;
        while (!server.try_submit_async(requests[i], [&, c](Response r) {
          const std::lock_guard<std::mutex> lock(mu);
          got[c][r.id] = render_response(r);
          cv.notify_one();
        })) {
          std::this_thread::yield();
        }
      }
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return got[c].size() == expected_count; });
    });
  }
  for (auto& t : clients) t.join();

  std::map<std::uint64_t, std::string> merged;
  for (const auto& m : got) merged.insert(m.begin(), m.end());
  ASSERT_EQ(merged.size(), requests.size());
  for (const auto& [id, line] : expected) {
    EXPECT_EQ(merged.at(id), line) << "response " << id << " diverged";
  }
}

TEST(ServiceServer, RepeatedRequestsHitSessionCaches) {
  ServerOptions options;
  options.workers = 2;
  Server server(options);
  const Request request = make_request(1, Kind::kDetection, "fir");
  const Response first = server.call(request);
  ASSERT_TRUE(first.ok());
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(server.call(request).ok());
  }
  const auto session = server.pool().get("fir");
  const auto stats = session->stats();
  EXPECT_EQ(stats.detect_runs, 1u) << "repeat requests must be cache hits";
  EXPECT_GE(stats.hits, 8u);
}

TEST(ServiceServer, CacheDirWarmStartsARestartedServer) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) /
      ("asipfb_server_cache_" + std::to_string(::getpid()));
  std::error_code discard;
  std::filesystem::remove_all(dir, discard);

  // Each Server opens the directory afresh, as a restarted process would.
  const auto options_over_dir = [&] {
    ServerOptions options;
    options.workers = 2;
    cache::StoreOptions store_options;
    store_options.dir = dir;
    options.store = std::make_shared<cache::Store>(std::move(store_options));
    return options;
  };
  Response cold;
  {
    Server server(options_over_dir());
    ASSERT_NE(server.store(), nullptr);
    cold = server.call(make_request(1, Kind::kDetection, "fir"));
    ASSERT_TRUE(cold.ok());
    const Stats stats = server.stats();
    EXPECT_GT(stats.store.writes, 0u);
    EXPECT_EQ(stats.pool.computed, 1u);
    EXPECT_EQ(stats.pool.disk_cache, 0u);
  }
  {
    // The same options a restarted process would use: the baseline and
    // detection come off disk, and the response renders bit-identically.
    Server server(options_over_dir());
    const Response warm = server.call(make_request(1, Kind::kDetection, "fir"));
    ASSERT_TRUE(warm.ok());
    EXPECT_EQ(render_response(warm), render_response(cold));
    const Stats stats = server.stats();
    EXPECT_GT(stats.store.hits, 0u);
    EXPECT_EQ(stats.store.writes, 0u) << "nothing to write on a warm run";
    EXPECT_EQ(stats.pool.disk_cache, 1u);
    EXPECT_EQ(stats.pool.computed, 0u);
    EXPECT_GT(stats.pool.stages.disk_hits, 0u);
  }
  std::filesystem::remove_all(dir, discard);
}

// --- Inline answers ---------------------------------------------------------

/// Every kind, on `workload` (inline `source` when nonempty).
std::vector<Request> every_kind(const std::string& workload,
                                const std::string& source) {
  std::vector<Request> requests;
  std::uint64_t id = 0;
  for (std::size_t k = 0; k < kKindCount; ++k) {
    Request r = make_request(++id, static_cast<Kind>(k), workload);
    r.source = source;
    r.grid.levels = {opt::OptLevel::O1};
    requests.push_back(std::move(r));
  }
  return requests;
}

TEST(ServiceServer, InlineAnswersAreByteIdenticalToEvaluateAndTheQueue) {
  ServerOptions options;
  options.workers = 1;
  Server server(options);
  pipeline::SessionPool reference;
  for (const auto& [workload, source] :
       {std::pair<std::string, std::string>{"fir", ""},
        {"tiny", "int x[8];\nint main() { int s = 0; int i;\n"
                 "for (i = 0; i < 8; i++) s += x[i] * 3 + i;\n"
                 "return s; }\n"}}) {
    for (const Request& request : every_kind(workload, source)) {
      const std::string context =
          workload + " " + std::string(to_string(request.kind));
      const std::string expected = render_response(evaluate(request, reference));
      // Cold: nothing memoized, so the request is queued.
      EXPECT_FALSE(server.try_answer(request).has_value()) << context;
      std::promise<Response> queued;
      ASSERT_TRUE(server.try_submit_async(
          request, [&](Response r) { queued.set_value(std::move(r)); }));
      EXPECT_EQ(render_response(queued.get_future().get()), expected) << context;
      // Warm: answered on this thread, byte for byte — except a sweep,
      // which is always queued.
      const std::optional<Response> answer = server.try_answer(request);
      if (request.kind == Kind::kSweep) {
        EXPECT_FALSE(answer.has_value()) << context;
        continue;
      }
      ASSERT_TRUE(answer.has_value()) << context;
      EXPECT_EQ(render_response(*answer), expected) << context;
      EXPECT_EQ(render_response(server.call(request)), expected) << context;
    }
  }
}

TEST(ServiceServer, CorpusNamesQueueUntilTheCorpusIsBuilt) {
  // In a fresh process (the threadsafe style re-executes this binary for
  // this test alone, so no earlier test has built the corpus), a bare
  // corpus name is declined and the corpus stays unbuilt: building it is
  // a worker's job, not the receiving thread's.
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_EXIT(
      {
        const pipeline::SessionPool pool;
        if (wl::default_corpus_built()) std::exit(1);
        if (try_evaluate(make_request(1, Kind::kCompile, "gen_dft_002"), pool)) {
          std::exit(2);
        }
        std::exit(wl::default_corpus_built() ? 3 : 0);
      },
      ::testing::ExitedWithCode(0), "");

  // Once built, a memoized corpus workload is answered inline.
  pipeline::SessionPool pool;
  const Request request =
      make_request(2, Kind::kCompile, wl::default_corpus().front().name);
  const Response expected = evaluate(request, pool);
  ASSERT_TRUE(expected.ok()) << expected.error;
  const std::optional<Response> answer = try_evaluate(request, pool);
  ASSERT_TRUE(answer.has_value());
  EXPECT_EQ(render_response(*answer), render_response(expected));
}

TEST(ServiceServer, InlineAnswersCountExactlyAsQueuedAnswers) {
  std::atomic<int> started{0};
  ServerOptions options;
  options.workers = 1;
  options.on_start = [&](const Request&) { started.fetch_add(1); };
  Server server(options);
  const Request request = make_request(1, Kind::kCoverage, "fir");
  const auto delta = [](const Stats& before, const Stats& after) {
    Stats d;
    d.submitted = after.submitted - before.submitted;
    d.completed = after.completed - before.completed;
    d.failed = after.failed - before.failed;
    for (std::size_t k = 0; k < kKindCount; ++k) {
      d.completed_by_kind[k] =
          after.completed_by_kind[k] - before.completed_by_kind[k];
    }
    d.latency.total = after.latency.total - before.latency.total;
    return d;
  };

  const Stats s0 = server.stats();
  const Response queued = server.call(request);  // Cold: a worker runs it.
  const Stats s1 = server.stats();
  const Response inline_answer = server.call(request);  // Warm: inline.
  const Stats s2 = server.stats();
  ASSERT_TRUE(queued.ok()) << queued.error;
  ASSERT_TRUE(inline_answer.ok()) << inline_answer.error;
  EXPECT_EQ(started.load(), 1) << "on_start runs for queued jobs only";
  EXPECT_GT(inline_answer.latency_us, 0.0);

  const Stats by_queue = delta(s0, s1);
  const Stats by_inline = delta(s1, s2);
  EXPECT_EQ(by_queue.submitted, 1u);
  EXPECT_EQ(by_inline.submitted, by_queue.submitted);
  EXPECT_EQ(by_inline.completed, by_queue.completed);
  EXPECT_EQ(by_inline.failed, by_queue.failed);
  EXPECT_EQ(by_inline.completed_by_kind, by_queue.completed_by_kind);
  EXPECT_EQ(by_inline.latency.total, by_queue.latency.total);

  // Nothing is answered once shutdown() has begun: the memo hit is
  // refused and call() rejects it, as it would a queued request.
  server.shutdown();
  EXPECT_FALSE(server.try_answer(request).has_value());
  EXPECT_THROW((void)server.call(request), std::runtime_error);
  const Stats s3 = server.stats();
  EXPECT_EQ(s3.submitted, s2.submitted);
  EXPECT_EQ(s3.completed, s2.completed);
  EXPECT_EQ(s3.rejected, 1u);
}

// --- Backpressure -----------------------------------------------------------

TEST(ServiceServer, BoundedQueueBackpressure) {
  // One worker, capacity 1.  A gate in on_start parks the worker inside
  // job 1, so job 2 sits in the queue (full) — deterministic, no timing.
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  std::atomic<int> started{0};

  ServerOptions options;
  options.workers = 1;
  options.queue_capacity = 1;
  options.on_start = [&](const Request&) {
    started.fetch_add(1);
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return release; });
  };
  Server server(options);

  std::promise<Response> r1;
  std::promise<Response> r2;
  ASSERT_TRUE(server.try_submit_async(
      make_request(1, Kind::kDetection, "fir"),
      [&](Response r) { r1.set_value(std::move(r)); }));
  while (started.load() == 0) std::this_thread::yield();  // Worker inside job 1.
  ASSERT_TRUE(server.try_submit_async(
      make_request(2, Kind::kDetection, "fir"),
      [&](Response r) { r2.set_value(std::move(r)); }));

  // Queue is now full: try_submit_async must refuse immediately.  That is
  // backpressure the caller retries, not a rejection.
  EXPECT_FALSE(server.try_submit_async(make_request(3, Kind::kDetection, "fir"),
                                       [](Response) { FAIL(); }));
  EXPECT_EQ(server.stats().rejected, 0u);
  EXPECT_EQ(server.queue_depth(), 1u);

  // A blocking call must wait for space, then go through.
  std::atomic<bool> submitted{false};
  std::thread blocked([&] {
    const Response r4 = server.call(make_request(4, Kind::kDetection, "fir"));
    submitted.store(true);
    EXPECT_TRUE(r4.ok());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(submitted.load()) << "call must block while the queue is full";

  {
    const std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  blocked.join();
  EXPECT_TRUE(submitted.load());
  EXPECT_TRUE(r1.get_future().get().ok());
  EXPECT_TRUE(r2.get_future().get().ok());

  const Stats stats = server.stats();
  EXPECT_EQ(stats.submitted, 3u);
  EXPECT_EQ(stats.rejected, 0u);
}

// --- Shutdown ---------------------------------------------------------------

TEST(ServiceServer, ShutdownDrainsAcceptedWork) {
  ServerOptions options;
  options.workers = 2;
  Server server(options);
  constexpr int kJobs = 12;
  std::mutex mu;
  std::vector<Response> delivered;
  for (int i = 0; i < kJobs; ++i) {
    ASSERT_TRUE(server.try_submit_async(
        make_request(static_cast<std::uint64_t>(i + 1), Kind::kDetection,
                     wl::suite()[static_cast<std::size_t>(i) %
                                 wl::suite().size()]
                         .name),
        [&](Response r) {
          const std::lock_guard<std::mutex> lock(mu);
          delivered.push_back(std::move(r));
        }));
  }
  server.shutdown();
  ASSERT_EQ(delivered.size(), static_cast<std::size_t>(kJobs))
      << "accepted jobs must complete before shutdown returns";
  for (const Response& r : delivered) EXPECT_TRUE(r.ok()) << r.error;
  Stats stats = server.stats();
  EXPECT_EQ(stats.completed, static_cast<std::uint64_t>(kJobs));
  EXPECT_EQ(stats.queue_depth, 0u);
  EXPECT_EQ(stats.rejected, 0u);

  // Refusals after shutdown are the only rejections.
  EXPECT_THROW(server.call(make_request(99, Kind::kCompile, "fir")),
               std::runtime_error);
  EXPECT_THROW((void)server.try_submit_async(
                   make_request(99, Kind::kCompile, "fir"),
                   [](Response) { FAIL(); }),
               std::runtime_error);
  stats = server.stats();
  EXPECT_EQ(stats.rejected, 2u);
  EXPECT_EQ(stats.submitted, static_cast<std::uint64_t>(kJobs));
  server.shutdown();  // Idempotent.
}

// --- Error paths ------------------------------------------------------------

TEST(ServiceServer, BadRequestsNeverKillWorkers) {
  ServerOptions options;
  options.workers = 1;  // The same worker must survive every failure.
  Server server(options);

  const Response unknown =
      server.call(make_request(1, Kind::kDetection, "nosuch"));
  ASSERT_FALSE(unknown.ok());
  EXPECT_NE(unknown.error.find("nosuch"), std::string::npos);

  Request broken = make_request(2, Kind::kCompile, "broken");
  broken.source = "int main( {";
  const Response syntax = server.call(broken);
  ASSERT_FALSE(syntax.ok());

  // The compile failure is latched in the pool: same key, same error,
  // no recompilation storm.
  const Response again = server.call(broken);
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.error, syntax.error);

  const Response good = server.call(make_request(3, Kind::kDetection, "fir"));
  ASSERT_TRUE(good.ok()) << "worker must survive failed requests";

  const Stats stats = server.stats();
  EXPECT_EQ(stats.completed, 4u);
  EXPECT_EQ(stats.failed, 3u);
}

// --- Stats ------------------------------------------------------------------

TEST(ServiceServer, StatsCountPerKindAndLatency) {
  ServerOptions options;
  options.workers = 2;
  Server server(options);
  EXPECT_EQ(server.stats().completed, 0u);

  ASSERT_TRUE(server.call(make_request(1, Kind::kCompile, "fir")).ok());
  ASSERT_TRUE(server.call(make_request(2, Kind::kDetection, "fir")).ok());
  ASSERT_TRUE(server.call(make_request(3, Kind::kDetection, "edge")).ok());
  ASSERT_TRUE(server.call(make_request(4, Kind::kCoverage, "fir")).ok());

  const Stats stats = server.stats();
  EXPECT_EQ(stats.submitted, 4u);
  EXPECT_EQ(stats.completed, 4u);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.queue_depth, 0u);
  EXPECT_EQ(stats.completed_by_kind[static_cast<std::size_t>(Kind::kCompile)],
            1u);
  EXPECT_EQ(stats.completed_by_kind[static_cast<std::size_t>(Kind::kDetection)],
            2u);
  EXPECT_EQ(stats.completed_by_kind[static_cast<std::size_t>(Kind::kCoverage)],
            1u);
  EXPECT_GT(stats.uptime_seconds, 0.0);
  EXPECT_EQ(stats.latency.total, 4u);
  EXPECT_GT(stats.latency.quantile_us(0.50), 0.0);
  EXPECT_GE(stats.latency.quantile_us(0.99), stats.latency.quantile_us(0.50));
  EXPECT_GT(stats.latency.max_ns, 0u);

  // The response's own latency measurement is populated too.
  const Response timed = server.call(make_request(5, Kind::kDetection, "fir"));
  EXPECT_GT(timed.latency_us, 0.0);
}

TEST(ServiceServer, AsyncSubmissionDeliversCallback) {
  ServerOptions options;
  options.workers = 2;
  Server server(options);
  std::promise<Response> delivered;
  ASSERT_TRUE(server.try_submit_async(
      make_request(1, Kind::kDetection, "fir"),
      [&](Response r) { delivered.set_value(std::move(r)); }));
  const Response response = delivered.get_future().get();
  ASSERT_TRUE(response.ok()) << response.error;
  EXPECT_EQ(response.id, 1u);
  EXPECT_GT(response.latency_us, 0.0);

  // The callback-based result must render identically to the blocking
  // call's (same evaluation, same pool).
  EXPECT_EQ(render_response(response),
            render_response(server.call(make_request(1, Kind::kDetection,
                                                     "fir"))));
}

TEST(ServiceServer, TryAsyncRefusesWhenFull) {
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  std::atomic<int> started{0};
  ServerOptions options;
  options.workers = 1;
  options.queue_capacity = 1;
  options.on_start = [&](const Request&) {
    started.fetch_add(1);
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return release; });
  };
  Server server(options);

  std::promise<Response> first;
  ASSERT_TRUE(server.try_submit_async(
      make_request(1, Kind::kDetection, "fir"),
      [&](Response r) { first.set_value(std::move(r)); }));
  while (started.load() == 0) std::this_thread::yield();
  std::promise<Response> second;
  ASSERT_TRUE(server.try_submit_async(
      make_request(2, Kind::kDetection, "fir"),
      [&](Response r) { second.set_value(std::move(r)); }));
  EXPECT_FALSE(server.try_submit_async(make_request(3, Kind::kDetection, "fir"),
                                       [](Response) { FAIL(); }))
      << "full queue must refuse without invoking the callback";
  // Backpressure, not a rejection: the caller parks and retries it.
  EXPECT_EQ(server.stats().rejected, 0u);

  {
    const std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  EXPECT_TRUE(first.get_future().get().ok());
  EXPECT_TRUE(second.get_future().get().ok());
}

/// Half of 16 threads call `request` in a loop for 250 ms, half take
/// stats(); returns whether any snapshot failed `holds`.
bool storm_breaks(Server& server, const Request& request,
                  const std::function<bool(const Stats&)>& holds) {
  std::atomic<bool> stop{false};
  std::atomic<bool> violated{false};
  constexpr int kThreads = 16;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    if (t % 2 == 0) {
      threads.emplace_back([&] {
        while (!stop.load(std::memory_order_relaxed)) {
          (void)server.call(request);
        }
      });
    } else {
      threads.emplace_back([&] {
        while (!stop.load(std::memory_order_relaxed)) {
          if (!holds(server.stats())) violated.store(true);
        }
      });
    }
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(250));
  stop.store(true);
  for (auto& t : threads) t.join();
  return violated.load();
}

TEST(ServiceServer, SubmittedNeverBelowCompletedUnderStorm) {
  // Regression: submitted_ used to be bumped outside the queue lock after
  // the push, so a stats() racing with submit/complete could observe a
  // snapshot with completed > submitted.  Cheap memoized submits race
  // stats(); every snapshot must satisfy the counter invariants.
  ServerOptions options;
  options.workers = 4;
  options.queue_capacity = 1024;
  Server server(options);
  const Request request = make_request(1, Kind::kDetection, "fir");
  ASSERT_TRUE(server.call(request).ok());  // Warm: storm hits the cache.

  EXPECT_FALSE(storm_breaks(server, request, [](const Stats& s) {
    return s.completed <= s.submitted && s.latency.total >= s.completed;
  })) << "stats() snapshot observed completed > submitted or "
         "latency.total < completed";
  const Stats final_stats = server.stats();
  EXPECT_GE(final_stats.submitted, final_stats.completed);
}

TEST(ServiceServer, CompletedNeverBelowFailedUnderStorm) {
  // Every stormed request fails, so completed exceeds failed by one (the
  // warm-up) at rest: reading failed after completed let two failures
  // landing between the loads break failed <= completed.
  ServerOptions options;
  options.workers = 4;
  options.queue_capacity = 1024;
  Server server(options);
  ASSERT_TRUE(server.call(make_request(1, Kind::kDetection, "fir")).ok());

  EXPECT_FALSE(storm_breaks(
      server, make_request(2, Kind::kDetection, "nosuch"),
      [](const Stats& s) { return s.failed <= s.completed; }))
      << "stats() snapshot observed failed > completed";
  const Stats final_stats = server.stats();
  EXPECT_EQ(final_stats.completed, final_stats.failed + 1);
}

TEST(ServiceServer, ResponseLatencyMatchesHistogramSample) {
  // Regression: the worker used to call Clock::now() twice — once for the
  // histogram sample and again for response.latency_us — so the response
  // and the stats disagreed about the same request.  With exactly one
  // request on a fresh server, both must now derive from the one
  // completion timestamp: the histogram's max IS this request's latency.
  ServerOptions options;
  options.workers = 1;
  Server server(options);
  const Response response = server.call(make_request(1, Kind::kDetection, "fir"));
  ASSERT_TRUE(response.ok());
  const Stats stats = server.stats();
  EXPECT_DOUBLE_EQ(response.latency_us,
                   static_cast<double>(stats.latency.max_ns) / 1000.0);
}

TEST(ServiceLatencyHistogram, QuantileNeverExceedsMax) {
  // Regression: the quantile estimate used a log2 bucket's upper edge
  // without clamping, so with every sample in one bucket (e.g. 1100ns,
  // bucket [1024, 2048)) p99 reported 2.048us while max was 1.1us.
  LatencyHistogram h;
  h.counts[10] = 5;  // 1100ns lands in bucket 10: [2^10, 2^11).
  h.total = 5;
  h.max_ns = 1100;
  EXPECT_LE(h.quantile_us(0.50), h.quantile_us(0.99));
  EXPECT_LE(h.quantile_us(0.99), static_cast<double>(h.max_ns) / 1000.0);
  EXPECT_DOUBLE_EQ(h.quantile_us(0.99), 1.1);
}

TEST(ServiceLatencyHistogram, ServerQuantilesAreOrdered) {
  ServerOptions options;
  options.workers = 2;
  Server server(options);
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(
        server.call(make_request(static_cast<std::uint64_t>(i + 1),
                                 Kind::kDetection, i % 2 == 0 ? "fir" : "edge"))
            .ok());
  }
  const LatencyHistogram h = server.stats().latency;
  EXPECT_GT(h.quantile_us(0.50), 0.0);
  EXPECT_LE(h.quantile_us(0.50), h.quantile_us(0.99));
  EXPECT_LE(h.quantile_us(0.99), h.quantile_us(0.999));
  EXPECT_LE(h.quantile_us(0.999), static_cast<double>(h.max_ns) / 1000.0);
}

TEST(ServiceLatencyHistogram, EachCompletionLandsInItsLog2Bucket) {
  // One request on a fresh server: its sample is in bucket b with
  // 2^b <= latency < 2^(b+1), and every other bucket is empty.
  ServerOptions options;
  options.workers = 1;
  Server server(options);
  ASSERT_TRUE(server.call(make_request(1, Kind::kDetection, "fir")).ok());
  const LatencyHistogram h = server.stats().latency;
  ASSERT_EQ(h.total, 1u);
  ASSERT_GT(h.max_ns, 0u);
  for (std::size_t b = 0; b < LatencyHistogram::kBuckets; ++b) {
    const bool home = (h.max_ns >> b) == 1;
    EXPECT_EQ(h.counts[b], home ? 1u : 0u) << "bucket " << b;
  }
  EXPECT_DOUBLE_EQ(h.quantile_us(0.5), static_cast<double>(h.max_ns) / 1000.0);
  EXPECT_DOUBLE_EQ(LatencyHistogram{}.quantile_us(0.99), 0.0);
}

TEST(ServiceServer, OverCapWorkerCountIsRejected) {
  // Checked before any thread starts: the smallest over-cap count throws.
  ServerOptions options;
  options.workers = kMaxWorkerThreads + 1;
  EXPECT_THROW(Server{options}, std::invalid_argument);
  EXPECT_EQ(resolved_workers(3), 3u);
  EXPECT_GE(resolved_workers(0), 1u);
  EXPECT_LE(resolved_workers(0), kMaxWorkerThreads)
      << "the default worker count must stay constructible";
}

TEST(ServiceServer, RouterShimIsOneServerWithEveryShardsWorkers) {
  // The benchmark's shim (service/router.hpp): two shards of one worker
  // are one Server running two workers.
  RouterOptions options;
  options.shards = 2;
  options.server.workers = 1;
  Router router(options);
  EXPECT_EQ(router.workers(), 2u);
  EXPECT_EQ(router.shard_count(), 1u);

  // Its refusals come before any thread starts: no shards, and a total
  // over the cap, counted in 64 bits (2^16 x 2^16 wraps to 0 in 32).
  const auto refused = [](unsigned shards, unsigned workers) {
    RouterOptions over;
    over.shards = shards;
    over.server.workers = workers;
    EXPECT_THROW(Router{over}, std::invalid_argument)
        << shards << " x " << workers;
  };
  refused(0, 1);
  refused(2, kMaxWorkerThreads / 2 + 1);
  refused(1u << 16, 1u << 16);
}

TEST(ServiceServer, RouterShimMultipliesWorkersPerShard) {
  // shards x resolved_workers(workers): 0 workers per shard means the
  // hardware default, as for a Server.
  const auto workers_of = [](unsigned shards, unsigned workers) {
    RouterOptions options;
    options.shards = shards;
    options.server.workers = workers;
    return Router(options).workers();
  };
  EXPECT_EQ(workers_of(1, 3), 3u);
  EXPECT_EQ(workers_of(3, 2), 6u);
  EXPECT_EQ(workers_of(1, 0), resolved_workers(0));
}

TEST(ServiceServer, RouterShimShardIsTheRouterItself) {
  // The benchmark reads shard(shard_for(w)).pool(): every key maps to
  // shard 0, and that shard is the Router's own pool.
  RouterOptions options;
  options.shards = 2;
  options.server.workers = 1;
  Router router(options);
  for (const auto& w : wl::suite()) {
    EXPECT_EQ(router.shard_for(w.name), 0u) << w.name;
  }
  EXPECT_EQ(&router.shard(router.shard_for("fir")), &router);
  EXPECT_EQ(&router.shard(0).pool(), &router.pool());

  ASSERT_TRUE(router.call(make_request(1, Kind::kDetection, "fir")).ok());
  EXPECT_EQ(router.shard(router.shard_for("fir")).pool().size(), 1u);
  EXPECT_EQ(router.stats().completed, 1u);
}

TEST(ServiceServer, RouterShimSubmissionSurfaceMatchesServer) {
  // Blocking and callback submission through the shim answer what a
  // plain Server answers, rendered byte for byte.
  RouterOptions options;
  options.shards = 2;
  options.server.workers = 2;
  Router router(options);
  ServerOptions plain_options;
  plain_options.workers = 1;
  Server plain(plain_options);

  const Request detect = make_request(1, Kind::kDetection, "fir");
  EXPECT_EQ(render_response(router.call(detect)),
            render_response(plain.call(detect)));

  std::promise<Response> delivered;
  ASSERT_TRUE(router.try_submit_async(
      make_request(3, Kind::kCoverage, "fir"),
      [&](Response r) { delivered.set_value(std::move(r)); }));
  const Response response = delivered.get_future().get();
  ASSERT_TRUE(response.ok()) << response.error;
  EXPECT_EQ(render_response(response),
            render_response(plain.call(make_request(3, Kind::kCoverage,
                                                    "fir"))));
}

TEST(ServiceServer, RouterShimShutdownRefusesSubmissions) {
  RouterOptions options;
  options.shards = 2;
  options.server.workers = 1;
  Router router(options);
  ASSERT_TRUE(router.call(make_request(1, Kind::kDetection, "fir")).ok());
  router.shutdown();
  EXPECT_THROW((void)router.call(make_request(2, Kind::kDetection, "fir")),
               std::runtime_error);
  EXPECT_THROW((void)router.try_submit_async(
                   make_request(3, Kind::kDetection, "edge"),
                   [](Response) { FAIL(); }),
               std::runtime_error);
  EXPECT_EQ(router.stats().rejected, 2u);
  router.shutdown();  // Idempotent.
}

TEST(ServiceServer, StatsCountEveryRequestAcrossWorkers) {
  // Four workers feed one set of counters and one histogram: nothing is
  // lost or counted twice, and workers() is the ping line's count.
  ServerOptions options;
  options.workers = 4;
  Server server(options);
  EXPECT_EQ(server.workers(), 4u);
  std::mutex mu;
  std::vector<Response> delivered;
  std::uint64_t sent = 0;
  const auto submit = [&](const std::string& workload) {
    ++sent;
    ASSERT_TRUE(server.try_submit_async(
        make_request(sent, Kind::kDetection, workload), [&](Response r) {
          const std::lock_guard<std::mutex> lock(mu);
          delivered.push_back(std::move(r));
        }));
  };
  for (const auto& w : wl::suite()) submit(w.name);
  submit("nosuch");
  server.shutdown();  // Drains every accepted job.
  ASSERT_EQ(delivered.size(), sent);

  const Stats stats = server.stats();
  EXPECT_EQ(stats.submitted, sent);
  EXPECT_EQ(stats.completed, sent);
  EXPECT_EQ(stats.failed, 1u);
  EXPECT_EQ(stats.completed_by_kind[static_cast<std::size_t>(Kind::kDetection)],
            sent);
  EXPECT_EQ(stats.latency.total, sent);
  std::uint64_t bucketed = 0;
  for (const std::uint64_t count : stats.latency.counts) bucketed += count;
  EXPECT_EQ(bucketed, sent);
  EXPECT_EQ(stats.pool.sessions, wl::suite().size());
}

TEST(ServiceServer, ConcurrentFirstRequestsPrepareOneBaseline) {
  // Eight requests for one cold workload race over four workers: the pool
  // prepares its baseline once and the Session detects once.
  ServerOptions options;
  options.workers = 4;
  Server server(options);
  std::vector<std::promise<Response>> delivered(8);
  for (std::size_t i = 0; i < delivered.size(); ++i) {
    ASSERT_TRUE(server.try_submit_async(
        make_request(i + 1, Kind::kDetection, "fir"),
        [&delivered, i](Response r) { delivered[i].set_value(std::move(r)); }));
  }
  std::string first;
  for (auto& promise : delivered) {
    Response response = promise.get_future().get();
    ASSERT_TRUE(response.ok()) << response.error;
    response.id = 1;  // Only the echoed id may differ.
    if (first.empty()) first = render_response(response);
    EXPECT_EQ(render_response(response), first);
  }
  EXPECT_EQ(server.pool().size(), 1u);
  const Stats stats = server.stats();
  EXPECT_EQ(stats.pool.computed, 1u);
  EXPECT_EQ(server.pool().get("fir")->stats().detect_runs, 1u);
}

TEST(ServiceServer, StatsReportTheSharedStoreOnce) {
  // stats().store is the installed Store's own counters, read once, and
  // the pool counts one cold baseline per workload.
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) /
      ("asipfb_server_store_stats_" + std::to_string(::getpid()));
  std::error_code discard;
  std::filesystem::remove_all(dir, discard);
  {
    ServerOptions options;
    options.workers = 3;
    cache::StoreOptions store_options;
    store_options.dir = dir;
    options.store = std::make_shared<cache::Store>(std::move(store_options));
    Server server(options);
    ASSERT_EQ(server.store().get(), options.store.get());

    std::uint64_t id = 0;
    for (const auto& w : wl::suite()) {
      ASSERT_TRUE(
          server.call(make_request(++id, Kind::kDetection, w.name)).ok());
    }
    const Stats stats = server.stats();
    const cache::StoreStats store = server.store()->stats();
    EXPECT_GT(store.writes, 0u);
    EXPECT_EQ(stats.store.writes, store.writes);
    EXPECT_EQ(stats.store.hits, store.hits);
    EXPECT_EQ(stats.store.misses, store.misses);
    EXPECT_EQ(stats.pool.sessions, wl::suite().size());
    EXPECT_EQ(stats.pool.computed, wl::suite().size());
    EXPECT_EQ(stats.pool.disk_cache, 0u);
  }
  std::filesystem::remove_all(dir, discard);
}

TEST(ServiceServer, NonFiniteBudgetIsAnErrorResponse) {
  // A request built in process bypasses the protocol's checks; the
  // selection stage itself refuses the budget instead of lifting the area
  // limit, and the error is the response, not a dead worker.
  ServerOptions options;
  options.workers = 1;
  Server server(options);
  Request request = make_request(1, Kind::kExtension, "fir");
  request.selection.area_budget = std::numeric_limits<double>::quiet_NaN();
  const Response response = server.call(request);
  EXPECT_FALSE(response.ok());
  EXPECT_NE(response.error.find("area_budget"), std::string::npos)
      << response.error;
  EXPECT_TRUE(server.call(make_request(2, Kind::kExtension, "fir")).ok());
}

}  // namespace
}  // namespace asipfb::service
