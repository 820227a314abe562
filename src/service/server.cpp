#include "service/server.hpp"

#include <algorithm>
#include <bit>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

namespace asipfb::service {

double LatencyHistogram::quantile_us(double q) const {
  if (total == 0) return 0.0;
  const std::uint64_t target =
      std::max<std::uint64_t>(1, static_cast<std::uint64_t>(q * total));
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    seen += counts[b];
    if (seen < target) continue;
    // Bucket upper edge, clamped to the true maximum: when every sample
    // lands in one bucket the edge 2^(b+1) can exceed max_ns, and a p99
    // estimate above the reported max poisons any gate built on it.
    std::uint64_t estimate = max_ns;
    if (b + 1 < kBuckets) {
      estimate = std::min<std::uint64_t>(std::uint64_t{1} << (b + 1), max_ns);
    }
    return static_cast<double>(estimate) / 1000.0;
  }
  return static_cast<double>(max_ns) / 1000.0;
}

unsigned resolved_workers(unsigned requested) {
  return requested != 0 ? requested
                        : std::max(1u, std::thread::hardware_concurrency());
}

Server::Server(ServerOptions options)
    : options_(std::move(options)), pool_(options_.store) {
  if (options_.queue_capacity == 0) {
    throw std::invalid_argument("Server queue_capacity must be >= 1");
  }
  const unsigned n = resolved_workers(options_.workers);
  if (n > kMaxWorkerThreads) {
    throw std::invalid_argument("Server workers must be <= " +
                                std::to_string(kMaxWorkerThreads));
  }
  started_ = Clock::now();
  threads_.reserve(n);
  try {
    for (unsigned t = 0; t < n; ++t) {
      threads_.emplace_back([this] { worker_loop(); });
    }
  } catch (...) {
    // No destructor runs for a throwing constructor: joinable threads
    // left in threads_ would call std::terminate.
    shutdown();
    throw;
  }
}

Server::~Server() { shutdown(); }

bool Server::enqueue(Job job, bool block) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (block) {
      not_full_.wait(lock, [this] {
        return stopping_ || queue_.size() < options_.queue_capacity;
      });
    }
    if (stopping_) {
      rejected_.fetch_add(1, std::memory_order_relaxed);
      throw std::runtime_error("service::Server is shut down");
    }
    // Full (only reachable without `block`): backpressure the caller
    // retries, so it is deliberately not counted as a rejection.
    if (queue_.size() >= options_.queue_capacity) return false;
    queue_.push_back(std::move(job));
    // Under the lock: a worker can complete this job the instant the lock
    // drops, so bumping after release lets a stats() snapshot transiently
    // read completed > submitted.
    submitted_.fetch_add(1, std::memory_order_relaxed);
  }
  not_empty_.notify_one();
  return true;
}

bool Server::try_submit_async(Request request,
                              std::function<void(Response)> done) {
  return enqueue({std::move(request), std::move(done), Clock::now()},
                 /*block=*/false);
}

Response Server::call(Request request) {
  // The worker fills `result` and notifies under the lock, so this frame
  // cannot unwind while the callback still touches it.
  std::mutex mu;
  std::condition_variable cv;
  std::optional<Response> result;
  enqueue({std::move(request),
           [&](Response response) {
             const std::lock_guard<std::mutex> lock(mu);
             result = std::move(response);
             cv.notify_one();
           },
           Clock::now()},
          /*block=*/true);
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&] { return result.has_value(); });
  return std::move(*result);
}

void Server::worker_loop() {
  for (;;) {
    Job job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      not_empty_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained.
      job = std::move(queue_.front());
      queue_.pop_front();
    }
    // A submitter may be blocked on the slot just freed; during shutdown
    // the drain loop below keeps popping, so waking one waiter suffices.
    not_full_.notify_one();
    if (options_.on_start) options_.on_start(job.request);

    Response response = evaluate(job.request, pool_);  // Never throws.
    // One completion timestamp feeds both the histogram and the response,
    // so stats().latency.max_ns and Response::latency_us agree exactly —
    // two Clock::now() calls here let them diverge.
    const auto elapsed = std::chrono::duration_cast<std::chrono::nanoseconds>(
                             Clock::now() - job.accepted)
                             .count();
    const std::uint64_t ns =
        elapsed > 0 ? static_cast<std::uint64_t>(elapsed) : 1;
    record_latency(ns);
    response.latency_us = static_cast<double>(ns) / 1000.0;
    // Release pairs with the acquire loads in stats(): a snapshot that
    // observes this completion also observes the job's earlier
    // submitted_ bump (which happens-before it via mu_), and one that
    // observes the failure also observes the completion, so
    // submitted >= completed >= failed holds in every snapshot.
    completed_.fetch_add(1, std::memory_order_release);
    completed_by_kind_[static_cast<std::size_t>(job.request.kind)].fetch_add(
        1, std::memory_order_relaxed);
    if (!response.ok()) failed_.fetch_add(1, std::memory_order_release);
    job.done(std::move(response));  // Must not throw (contract).
  }
}

void Server::shutdown() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (stopping_ && threads_.empty()) return;  // Already shut down.
    stopping_ = true;
  }
  // Wake every blocked caller (they observe stopping_ and throw) and
  // every idle worker (they drain the queue, then exit).
  not_full_.notify_all();
  not_empty_.notify_all();
  std::vector<std::thread> threads;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    threads.swap(threads_);
  }
  for (std::thread& t : threads) t.join();
}

void Server::record_latency(std::uint64_t ns) {
  const std::size_t bucket = std::min<std::size_t>(
      std::bit_width(ns) - 1, LatencyHistogram::kBuckets - 1);
  latency_ns_[bucket].fetch_add(1, std::memory_order_relaxed);
  std::uint64_t seen = max_latency_ns_.load(std::memory_order_relaxed);
  while (ns > seen &&
         !max_latency_ns_.compare_exchange_weak(seen, ns,
                                                std::memory_order_relaxed)) {
  }
}

Stats Server::stats() const {
  Stats s;
  // failed before completed before submitted, acquire/release: every
  // failure the snapshot sees implies its completion bump is visible, and
  // every completion its submission bump, so submitted >= completed >=
  // failed cannot be violated transiently.
  s.failed = failed_.load(std::memory_order_acquire);
  s.completed = completed_.load(std::memory_order_acquire);
  s.submitted = submitted_.load(std::memory_order_relaxed);
  s.rejected = rejected_.load(std::memory_order_relaxed);
  for (std::size_t k = 0; k < kKindCount; ++k) {
    s.completed_by_kind[k] =
        completed_by_kind_[k].load(std::memory_order_relaxed);
  }
  s.queue_depth = queue_depth();
  s.pool = pool_.stats();
  if (pool_.store() != nullptr) s.store = pool_.store()->stats();
  s.uptime_seconds =
      std::chrono::duration<double>(Clock::now() - started_).count();

  // Histogram after the completed counter: record_latency() precedes the
  // completed_ bump, so latency.total >= completed always holds.
  for (std::size_t b = 0; b < LatencyHistogram::kBuckets; ++b) {
    s.latency.counts[b] = latency_ns_[b].load(std::memory_order_relaxed);
    s.latency.total += s.latency.counts[b];
  }
  s.latency.max_ns = max_latency_ns_.load(std::memory_order_relaxed);
  return s;
}

std::size_t Server::queue_depth() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

}  // namespace asipfb::service
