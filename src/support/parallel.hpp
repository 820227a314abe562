// The one fan-out loop: the differential gauntlet (bench/bench_gauntlet.cpp),
// the bench drivers' detection warm-up and sweep, and examples/corpus_tour
// spread independent tasks (typically one per Session) over worker threads
// with it.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <functional>
#include <thread>
#include <vector>

namespace asipfb {

/// Runs `task(i)` for i in [0, count) on `threads` workers (0 means
/// std::thread::hardware_concurrency()).  Tasks are claimed from a shared
/// atomic counter; each writes only its own output slot, so scheduling
/// order cannot affect results.  A task must not throw: with more than one
/// thread, an exception that escapes a worker calls std::terminate and
/// ends the process, so a task that can fail records its error in its
/// slot instead.
inline void parallel_for(std::size_t count, unsigned threads,
                         const std::function<void(std::size_t)>& task) {
  if (count == 0) return;
  unsigned n = threads != 0 ? threads : std::thread::hardware_concurrency();
  n = std::max(1u, std::min<unsigned>(n, static_cast<unsigned>(count)));
  if (n == 1) {
    for (std::size_t i = 0; i < count; ++i) task(i);
    return;
  }
  std::atomic<std::size_t> next{0};
  auto worker = [&] {
    for (std::size_t i = next.fetch_add(1); i < count; i = next.fetch_add(1)) {
      task(i);
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(n);
  for (unsigned t = 0; t < n; ++t) pool.emplace_back(worker);
  for (auto& t : pool) t.join();
}

}  // namespace asipfb
