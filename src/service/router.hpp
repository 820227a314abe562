// Consistent-hash router over N evaluation-server shards.
//
// One Server per shard, each with its own private SessionPool, and a
// consistent-hash ring (virtual nodes, FNV-1a key hash) that maps every
// request's workload key onto exactly one shard.  Keying on the workload
// name — the same key a `source` block binds inline BenchC to — means all
// traffic for a workload lands on one shard forever, so that shard's
// SessionPool stays hot (one compile + profile, one memoized artifact per
// option set, process-wide-per-shard) while the shards scale the worker
// pools and pool locks horizontally.  Routing is a pure function of the
// key and the shard count: independent of request order, thread timing,
// and Router instance, which tests pin.
//
// The Router mirrors Server's two submission calls (try_submit_async for
// the protocol front end, call for in-process callers) by delegating to
// the owning shard, and aggregates monitoring: stats() sums the counters
// and merges the shards' latency histograms, so p50/p99 are estimated
// over the merged distribution rather than averaged per-shard.
// docs/SERVICE.md covers the sharding model in prose.
#pragma once

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "service/server.hpp"

namespace asipfb::service {

struct RouterOptions {
  /// Number of shards (independent Servers with private pools); >= 1.
  /// Shards times resolved_workers(server.workers) is at most
  /// kMaxWorkerThreads.
  unsigned shards = 1;
  /// Per-shard server template.  Each shard owns its pool; a `store` is
  /// shared by every shard.
  ServerOptions server;
};

class Router {
 public:
  /// Throws std::invalid_argument for 0 shards or more than
  /// kMaxWorkerThreads workers in total, before any thread starts.
  explicit Router(RouterOptions options = {});
  ~Router();  ///< shutdown().

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  /// Stable 64-bit key hash (FNV-1a); exposed so tests and tools can
  /// predict placement.
  [[nodiscard]] static std::uint64_t hash_key(std::string_view key);

  /// The shard index `key` routes to — pure function of (key, ring).
  [[nodiscard]] std::size_t shard_for(std::string_view key) const;

  /// Submission mirrors Server's, routed by request.workload (the same
  /// key inline sources bind to).  call() blocks on the owning shard's
  /// queue only.
  [[nodiscard]] bool try_submit_async(Request request,
                                      std::function<void(Response)> done);
  Response call(Request request);

  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }
  [[nodiscard]] Server& shard(std::size_t index) { return *shards_[index]; }

  /// The artifact store every shard shares (null without a cache).
  [[nodiscard]] const std::shared_ptr<cache::Store>& store() const {
    return shards_.front()->store();
  }

  /// Total workers across shards (the `ping` line's "workers" field, so a
  /// 4-shard x 1-worker deployment reports the same as 1x4).
  [[nodiscard]] unsigned workers() const;

  /// Aggregated snapshot: counters, pool stats and queue_depth summed,
  /// latency histograms merged (render_stats() estimates quantiles from
  /// the merged one), uptime of the longest-lived shard, and the shared
  /// Store's counters taken from one read of it.
  [[nodiscard]] Stats stats() const;

  /// Stops every shard: each stops accepting, drains its accepted jobs,
  /// joins its workers.  Idempotent.
  void shutdown();

 private:
  struct RingPoint {
    std::uint64_t point;
    std::uint32_t shard;
  };

  std::vector<std::unique_ptr<Server>> shards_;
  std::vector<RingPoint> ring_;  ///< Sorted by point; immutable after ctor.
};

}  // namespace asipfb::service
