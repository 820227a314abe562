// Asynchronous evaluation server: a thread-safe bounded job queue + worker
// pool over SessionPool — the serving layer of the Figure-1 feedback loop.
//
// Many clients submit structured Requests (service.hpp); `workers` threads
// drain the queue and run evaluate() against one shared SessionPool, so
// concurrent and repeated requests share prepared baselines and memoized
// artifacts instead of recomputing them.  Contracts:
//
//   * Bounded queue with backpressure — call() blocks while the queue
//     holds `queue_capacity` jobs; try_submit_async() refuses immediately
//     so the protocol front end can park the request and retry it.
//   * Per-request errors are latched into Response::error; a bad request
//     (unknown workload, compile failure, option mismatch) never kills a
//     worker or tears down the server.
//   * Graceful shutdown — shutdown() stops accepting, drains every
//     accepted job (each completion callback receives its response), then
//     joins the workers.  The destructor calls shutdown().
//   * Determinism — responses depend only on the request (see
//     service.hpp); the server adds no ordering sensitivity.
//
// Stats() is a consistent-enough snapshot for monitoring: monotonic
// counters (submitted/completed/failed/rejected, per-kind completions),
// live queue depth, uptime, the pool's and the store's own counters, and
// a lock-free log-scale latency histogram.  docs/SERVICE.md describes the
// threading model in prose; tests/service/server_test.cpp pins every
// contract above.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "cache/store.hpp"
#include "pipeline/session.hpp"
#include "service/service.hpp"

namespace asipfb::service {

/// Most worker threads a Server may start.  Its constructor throws
/// std::invalid_argument above it, before any thread starts.
inline constexpr unsigned kMaxWorkerThreads = 1024;

/// The worker count a Server started with ServerOptions::workers ==
/// `requested` runs: `requested`, or hardware_concurrency() (at least 1)
/// for 0.
[[nodiscard]] unsigned resolved_workers(unsigned requested);

struct ServerOptions {
  /// Worker threads; 0 means std::thread::hardware_concurrency().  At
  /// most kMaxWorkerThreads once resolved.
  unsigned workers = 0;
  /// Maximum queued (accepted but not yet started) jobs; >= 1.
  std::size_t queue_capacity = 256;
  /// Persistent artifact store of the Server's SessionPool; null means no
  /// disk cache.  With a store the pool warm-starts: baselines and stage
  /// artifacts are read from disk when valid entries exist and written
  /// back after cold computes.
  std::shared_ptr<cache::Store> store;
  /// Observability hook, invoked by the worker thread immediately before a
  /// job's evaluation begins.  Used by tests to coordinate backpressure
  /// scenarios and by embedders for request logging; must not throw.
  std::function<void(const Request&)> on_start;
};

/// Accept-to-complete latency distribution: bucket i counts completions in
/// [2^i, 2^(i+1)) nanoseconds, plus the exact maximum.  Server::stats()
/// copies its lock-free counters into one.
struct LatencyHistogram {
  static constexpr std::size_t kBuckets = 64;
  std::array<std::uint64_t, kBuckets> counts{};
  std::uint64_t total = 0;   ///< Sum of counts.
  std::uint64_t max_ns = 0;  ///< Exact maximum recorded value.

  /// Quantile estimate in microseconds: the bucket's upper edge, clamped
  /// to max_ns so no estimate can exceed the true (reported) maximum.
  /// Still a <= 2x overestimate within a bucket — monitoring-grade, not
  /// billing.  Guarantees quantile_us(a) <= quantile_us(b) <= max for
  /// a <= b.
  [[nodiscard]] double quantile_us(double q) const;
};

/// Monitoring snapshot; all counters monotonic since construction.
struct Stats {
  std::uint64_t submitted = 0;  ///< Accepted by call()/try_submit_async().
  /// Submissions refused because the server was shut down.  A queue-full
  /// refusal from try_submit_async() is backpressure, not a rejection:
  /// the caller retries it, so counting it would make this timing-dependent.
  std::uint64_t rejected = 0;
  std::uint64_t completed = 0;  ///< Responses delivered (ok or error).
  std::uint64_t failed = 0;     ///< Completed with nonempty error.
  std::array<std::uint64_t, kKindCount> completed_by_kind{};
  std::size_t queue_depth = 0;  ///< Accepted, not yet started.
  double uptime_seconds = 0.0;  ///< Per-stage throughput = by_kind / uptime.

  /// The pool's baseline provenance and stage memo counters
  /// (SessionPool::stats()), and the shared cache::Store's own counters
  /// (zero without a store).  Warmth-dependent: a disk-cache hit for a
  /// downstream artifact skips the upstream stages it would otherwise
  /// have queried (a warm detection never touches optimize), so the
  /// protocol renders these only alongside the latency fields, never in
  /// the byte-diffed part of the stats line.
  pipeline::SessionPool::PoolStats pool;
  cache::StoreStats store;
  /// Accept-to-complete latencies; render_stats() derives the quantiles.
  LatencyHistogram latency;
};

class Server {
 public:
  /// Throws std::invalid_argument for queue_capacity 0 or more than
  /// kMaxWorkerThreads workers.  If a worker thread fails to start, the
  /// ones already started are stopped and joined before the error
  /// propagates.
  explicit Server(ServerOptions options = {});
  ~Server();  ///< shutdown().

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Enqueues a request without blocking: false when the queue is full
  /// (backpressure; retry later), and `done` is then never invoked.
  /// Throws std::runtime_error after shutdown() (counted in
  /// Stats::rejected), as call() does.  Otherwise the
  /// worker thread invokes `done` with the Response after the job's
  /// counters are recorded; `done` must not throw and should be cheap (it
  /// runs on the worker).  The protocol front end's path: its event loop
  /// is woken by `done`, and it parks a refused request to retry on the
  /// next completion instead of stalling every other client.
  [[nodiscard]] bool try_submit_async(Request request,
                                      std::function<void(Response)> done);

  /// Enqueues a request, blocking while the queue is at capacity, and
  /// waits for its Response (error responses included).  The synchronous
  /// path for in-process callers.  Throws std::runtime_error after
  /// shutdown().
  Response call(Request request);

  /// Stops accepting, drains every accepted job, joins the workers.
  /// Idempotent and safe to race with submitters (both submission calls
  /// then throw std::runtime_error).
  void shutdown();

  /// Counters, pool, store and latency histogram, read in one pass.  The
  /// failed counter is read before completed and completed before
  /// submitted, so submitted >= completed >= failed, and the histogram
  /// after completed, so latency.total >= completed (each
  /// record_latency() happens-before its completed_ bump).
  [[nodiscard]] Stats stats() const;
  [[nodiscard]] std::size_t queue_depth() const;
  [[nodiscard]] unsigned workers() const {
    return static_cast<unsigned>(threads_.size());
  }
  [[nodiscard]] pipeline::SessionPool& pool() { return pool_; }
  /// The installed artifact store (null when serving without a cache).
  [[nodiscard]] const std::shared_ptr<cache::Store>& store() const {
    return pool_.store();
  }

 private:
  using Clock = std::chrono::steady_clock;

  struct Job {
    Request request;
    std::function<void(Response)> done;
    Clock::time_point accepted;
  };

  void worker_loop();
  /// Accepts under mu_ (bumping submitted_ while the lock is held, so a
  /// stats() snapshot can never observe completed > submitted).  Returns
  /// false for a full queue when `block` is false; throws
  /// std::runtime_error when stopped.
  bool enqueue(Job job, bool block);
  void record_latency(std::uint64_t ns);

  ServerOptions options_;
  pipeline::SessionPool pool_;
  Clock::time_point started_;

  mutable std::mutex mu_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::deque<Job> queue_;
  bool stopping_ = false;
  std::vector<std::thread> threads_;

  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> rejected_{0};
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> failed_{0};
  std::array<std::atomic<std::uint64_t>, kKindCount> completed_by_kind_{};

  /// Lock-free accept-to-complete histogram; stats() copies it into a
  /// LatencyHistogram.
  std::array<std::atomic<std::uint64_t>, LatencyHistogram::kBuckets>
      latency_ns_{};
  std::atomic<std::uint64_t> max_latency_ns_{0};
};

}  // namespace asipfb::service
