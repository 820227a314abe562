#include "service/router.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "support/bytes.hpp"

namespace asipfb::service {

namespace {

/// Ring points per shard.  More virtual nodes smooth the key distribution;
/// 64 keeps the worst shard within ~2x of the mean for realistic corpus
/// sizes.
constexpr std::size_t kVirtualNodes = 64;

/// splitmix64 finalizer: turns (shard, virtual-node) indices into
/// well-scattered ring points.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

std::uint64_t Router::hash_key(std::string_view key) {
  // FNV-1a, finalized through mix64 so short keys spread over the ring.
  return mix64(support::Fnv1a(support::kFnvOffsetBasis).bytes(key).value());
}

Router::Router(RouterOptions options) {
  if (options.shards == 0) {
    throw std::invalid_argument("Router shards must be >= 1");
  }
  // Checked before the first shard starts its workers; the product cannot
  // overflow 64 bits.
  if (std::uint64_t{options.shards} * resolved_workers(options.server.workers) >
      kMaxWorkerThreads) {
    throw std::invalid_argument("Router shards x workers must be <= " +
                                std::to_string(kMaxWorkerThreads));
  }
  // One Store (when set) shared by every shard: the artifact cache is keyed
  // by content, so cross-shard sharing is safe, and a single instance keeps
  // the hit/miss/write counters process-wide.
  shards_.reserve(options.shards);
  ring_.reserve(options.shards * kVirtualNodes);
  for (std::uint32_t s = 0; s < options.shards; ++s) {
    shards_.push_back(std::make_unique<Server>(options.server));
    for (std::size_t v = 0; v < kVirtualNodes; ++v) {
      const std::uint64_t point =
          mix64((std::uint64_t{s} << 32) | static_cast<std::uint64_t>(v));
      ring_.push_back({point, s});
    }
  }
  std::sort(ring_.begin(), ring_.end(),
            [](const RingPoint& a, const RingPoint& b) {
              return a.point < b.point || (a.point == b.point && a.shard < b.shard);
            });
}

Router::~Router() { shutdown(); }

std::size_t Router::shard_for(std::string_view key) const {
  const std::uint64_t h = hash_key(key);
  // First ring point at or after the key's hash, wrapping at the top.
  const auto it = std::lower_bound(
      ring_.begin(), ring_.end(), h,
      [](const RingPoint& p, std::uint64_t value) { return p.point < value; });
  return (it == ring_.end() ? ring_.front() : *it).shard;
}

bool Router::try_submit_async(Request request,
                              std::function<void(Response)> done) {
  Server& shard = *shards_[shard_for(request.workload)];
  return shard.try_submit_async(std::move(request), std::move(done));
}

Response Router::call(Request request) {
  Server& shard = *shards_[shard_for(request.workload)];
  return shard.call(std::move(request));
}

unsigned Router::workers() const {
  unsigned total = 0;
  for (const auto& shard : shards_) total += shard->workers();
  return total;
}

Stats Router::stats() const {
  Stats total;
  for (const auto& shard : shards_) {
    // One stats() per shard: the counters and the histogram merged below
    // come from the same pass, so the aggregate's quantiles/max cannot
    // reflect completions the summed completed counter has not seen.
    const Stats s = shard->stats();
    total.submitted += s.submitted;
    total.rejected += s.rejected;
    total.completed += s.completed;
    total.failed += s.failed;
    for (std::size_t k = 0; k < kKindCount; ++k) {
      total.completed_by_kind[k] += s.completed_by_kind[k];
    }
    total.queue_depth += s.queue_depth;
    total.uptime_seconds = std::max(total.uptime_seconds, s.uptime_seconds);
    total.pool += s.pool;
    total.latency.merge(s.latency);
  }
  // The shards share one Store: its counters are process-wide, so they
  // are read once, not summed over the shards.
  if (store() != nullptr) total.store = store()->stats();
  return total;
}

void Router::shutdown() {
  for (const auto& shard : shards_) shard->shutdown();
}

}  // namespace asipfb::service
