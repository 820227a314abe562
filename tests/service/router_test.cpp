// Contracts of the consistent-hash router (service::Router): stable,
// instance-independent placement; reasonable balance over a realistic
// corpus; per-workload shard affinity (the property that keeps each
// shard's SessionPool hot); and shard-aware stats aggregation (counters
// summed, latency histograms merged before quantile estimation).  Runs
// under the CI TSan leg.
#include "service/router.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <system_error>
#include <vector>

#include "service/protocol.hpp"
#include "workloads/generator.hpp"
#include "workloads/suite.hpp"

namespace asipfb::service {
namespace {

Request make_request(std::uint64_t id, Kind kind, std::string workload) {
  Request r;
  r.id = id;
  r.kind = kind;
  r.workload = std::move(workload);
  r.level = opt::OptLevel::O1;
  return r;
}

RouterOptions small_router(unsigned shards, unsigned workers_per_shard = 1) {
  RouterOptions options;
  options.shards = shards;
  options.server.workers = workers_per_shard;
  return options;
}

TEST(ServiceRouter, PlacementIsAPureFunctionOfKeyAndShardCount) {
  const Router a(small_router(4));
  const Router b(small_router(4));
  for (const auto& w : wl::suite()) {
    EXPECT_EQ(a.shard_for(w.name), b.shard_for(w.name))
        << "placement of '" << w.name << "' differs between instances";
    EXPECT_EQ(a.shard_for(w.name), a.shard_for(w.name));
    EXPECT_LT(a.shard_for(w.name), a.shard_count());
  }
  EXPECT_EQ(Router::hash_key("fir"), Router::hash_key("fir"));
  EXPECT_NE(Router::hash_key("fir"), Router::hash_key("fir2"));
}

TEST(ServiceRouter, CorpusKeysSpreadOverShards) {
  const Router router(small_router(4));
  std::map<std::size_t, int> per_shard;
  int keys = 0;
  for (const auto& w : wl::default_corpus()) {
    per_shard[router.shard_for(w.name)]++;
    ++keys;
  }
  ASSERT_GE(keys, 16) << "corpus too small for a balance check";
  // Every shard gets some keys, and no shard hoards them: with 64 virtual
  // nodes per shard the worst shard stays well under the whole corpus.
  EXPECT_EQ(per_shard.size(), 4u) << "some shard received no corpus keys";
  for (const auto& [shard, count] : per_shard) {
    EXPECT_LT(count, keys) << "shard " << shard << " owns every key";
  }
}

TEST(ServiceRouter, WorkloadStaysOnOneShard) {
  Router router(small_router(4));
  const std::size_t home = router.shard_for("fir");
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(
        router.call(make_request(static_cast<std::uint64_t>(i + 1),
                                 Kind::kDetection, "fir"))
            .ok());
  }
  // All traffic landed on the home shard: its counters moved, the other
  // shards' did not, and its pool holds the one session.
  for (std::size_t s = 0; s < router.shard_count(); ++s) {
    const Stats stats = router.shard(s).stats();
    if (s == home) {
      EXPECT_EQ(stats.completed, 8u);
      EXPECT_EQ(router.shard(s).pool().size(), 1u);
    } else {
      EXPECT_EQ(stats.completed, 0u);
      EXPECT_EQ(router.shard(s).pool().size(), 0u);
    }
  }
  // Repeat requests were cache hits inside the home shard's session.
  const auto session = router.shard(home).pool().get("fir");
  EXPECT_EQ(session->stats().detect_runs, 1u);
}

TEST(ServiceRouter, SubmissionSurfaceMatchesServer) {
  Router router(small_router(2, 2));
  ASSERT_TRUE(router.call(make_request(1, Kind::kDetection, "fir")).ok());

  // A callback-delivered result renders exactly like the blocking call's.
  std::promise<Response> delivered;
  ASSERT_TRUE(router.try_submit_async(
      make_request(3, Kind::kCoverage, "fir"),
      [&](Response r) { delivered.set_value(std::move(r)); }));
  const Response response = delivered.get_future().get();
  ASSERT_TRUE(response.ok()) << response.error;
  EXPECT_EQ(render_response(response),
            render_response(router.call(make_request(3, Kind::kCoverage,
                                                     "fir"))));

  std::promise<Response> try_delivered;
  ASSERT_TRUE(router.try_submit_async(
      make_request(4, Kind::kDetection, "dft"),
      [&](Response r) { try_delivered.set_value(std::move(r)); }));
  ASSERT_TRUE(try_delivered.get_future().get().ok());
}

TEST(ServiceRouter, StatsAggregateAcrossShards) {
  Router router(small_router(4));
  // Spread distinct workloads so several shards do work.
  std::uint64_t id = 0;
  std::uint64_t sent = 0;
  for (const auto& w : wl::suite()) {
    ASSERT_TRUE(router.call(make_request(++id, Kind::kDetection, w.name)).ok());
    ++sent;
  }
  ASSERT_FALSE(router.call(make_request(++id, Kind::kDetection, "nosuch")).ok());
  ++sent;

  const Stats total = router.stats();
  EXPECT_EQ(total.submitted, sent);
  EXPECT_EQ(total.completed, sent);
  EXPECT_EQ(total.failed, 1u);
  EXPECT_EQ(total.completed_by_kind[static_cast<std::size_t>(Kind::kDetection)],
            sent);

  // The aggregate equals the sum of the per-shard snapshots, and the
  // merged-histogram quantiles are ordered and bounded by the true max.
  std::uint64_t sum_completed = 0;
  std::uint64_t sum_samples = 0;
  std::uint64_t max_ns = 0;
  for (std::size_t s = 0; s < router.shard_count(); ++s) {
    const Stats shard = router.shard(s).stats();
    sum_completed += shard.completed;
    sum_samples += shard.latency.total;
    max_ns = std::max(max_ns, shard.latency.max_ns);
  }
  EXPECT_EQ(total.completed, sum_completed);
  EXPECT_EQ(total.latency.total, sum_samples);
  EXPECT_EQ(total.latency.max_ns, max_ns);
  const LatencyHistogram& h = total.latency;
  EXPECT_GT(h.quantile_us(0.50), 0.0);
  EXPECT_LE(h.quantile_us(0.50), h.quantile_us(0.99));
  EXPECT_LE(h.quantile_us(0.99), h.quantile_us(0.999));
  EXPECT_LE(h.quantile_us(0.999), static_cast<double>(h.max_ns) / 1000.0);

  // workers() sums shards so a 4x1 deployment reports 4 (the ping line).
  EXPECT_EQ(router.workers(), 4u);
}

TEST(ServiceRouter, ShardsShareOneStoreAndStatsReadItOnce) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) /
      ("asipfb_router_cache_" + std::to_string(::getpid()));
  std::error_code discard;
  std::filesystem::remove_all(dir, discard);

  RouterOptions options = small_router(3);
  cache::StoreOptions store_options;
  store_options.dir = dir;
  options.server.store = std::make_shared<cache::Store>(std::move(store_options));
  {
    Router router(options);
    // One process-wide Store behind every shard.
    ASSERT_NE(router.store(), nullptr);
    for (std::size_t s = 0; s < router.shard_count(); ++s) {
      EXPECT_EQ(router.shard(s).store().get(), router.store().get());
    }

    std::uint64_t id = 0;
    for (const auto& w : wl::suite()) {
      ASSERT_TRUE(
          router.call(make_request(++id, Kind::kDetection, w.name)).ok());
    }

    // Every shard reports the same process-wide store counters, so the
    // aggregate must equal them, not shard_count times them.
    const Stats total = router.stats();
    const cache::StoreStats store = router.store()->stats();
    EXPECT_GT(store.writes, 0u);
    EXPECT_EQ(total.store.writes, store.writes);
    EXPECT_EQ(total.store.hits, store.hits);
    EXPECT_EQ(total.store.misses, store.misses);
    for (std::size_t s = 0; s < router.shard_count(); ++s) {
      EXPECT_EQ(router.shard(s).stats().store.writes, store.writes);
    }
    // The pool counters are per shard, so they sum: one cold baseline per
    // suite workload, wherever it was routed.
    EXPECT_EQ(total.pool.sessions, wl::suite().size());
    EXPECT_EQ(total.pool.computed, wl::suite().size());
  }
  std::filesystem::remove_all(dir, discard);
}

TEST(ServiceRouter, InvalidOptionsAreRejected) {
  RouterOptions zero;
  zero.shards = 0;
  EXPECT_THROW(Router{zero}, std::invalid_argument);
}

TEST(ServiceRouter, OverCapWorkerTotalIsRejected) {
  // The cap bounds shards x workers, checked before any shard starts a
  // thread; each case is the smallest total over it.
  EXPECT_THROW(Router{small_router(kMaxWorkerThreads + 1)},
               std::invalid_argument);
  EXPECT_THROW(Router{small_router(2, kMaxWorkerThreads / 2 + 1)},
               std::invalid_argument);
  EXPECT_THROW(Router{small_router(1, kMaxWorkerThreads + 1)},
               std::invalid_argument);
}

TEST(ServiceRouter, ShutdownStopsEveryShard) {
  Router router(small_router(2));
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

}  // namespace
}  // namespace asipfb::service
