// parallel_for (support/parallel.hpp), the one fan-out loop: every index
// runs exactly once for any thread count, and an empty range runs nothing.
#include "support/parallel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <vector>

namespace asipfb {
namespace {

/// How often parallel_for(count, threads) ran each index.
std::vector<int> run_counts(std::size_t count, unsigned threads) {
  std::vector<std::atomic<int>> runs(count);
  parallel_for(count, threads, [&](std::size_t i) {
    runs[i].fetch_add(1, std::memory_order_relaxed);
  });
  std::vector<int> counts;
  for (const auto& r : runs) counts.push_back(r.load());
  return counts;
}

TEST(ParallelFor, EveryIndexRunsExactlyOnce) {
  // count + 3 threads are capped at count, so keep count small.
  constexpr std::size_t kCount = 64;
  for (const unsigned threads :
       {0u, 1u, 2u, static_cast<unsigned>(kCount) + 3u}) {
    EXPECT_EQ(run_counts(kCount, threads), std::vector<int>(kCount, 1))
        << "threads " << threads;
  }
}

TEST(ParallelFor, MoreThreadsThanIndicesRunsEachOnce) {
  for (const std::size_t count : {1u, 2u, 5u}) {
    EXPECT_EQ(run_counts(count, static_cast<unsigned>(count) + 3u),
              std::vector<int>(count, 1))
        << "count " << count;
  }
}

TEST(ParallelFor, EmptyRangeRunsNothing) {
  for (const unsigned threads : {0u, 1u, 2u, 3u}) {
    int calls = 0;
    parallel_for(0, threads, [&](std::size_t) { ++calls; });
    EXPECT_EQ(calls, 0) << "threads " << threads;
  }
}

}  // namespace
}  // namespace asipfb
