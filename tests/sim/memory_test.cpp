#include "sim/memory.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <utility>

namespace asipfb::sim {
namespace {

TEST(WordMemory, MapsZeroWords) {
  WordMemory memory(5000);
  ASSERT_EQ(memory.size(), 5000u);
  for (std::size_t i = 0; i < memory.size(); ++i) ASSERT_EQ(memory[i], 0u) << i;
}

TEST(WordMemory, ZeroClearsExactlyTheRangeOnBothSidesOfTheThreshold) {
  // Spans under kMadviseBytes are filled; longer ones fill a partial head
  // and tail page and madvise the pages between.  Either way exactly
  // [begin, end) reads as zero afterwards and every other word keeps its
  // value, wherever the range starts and ends within a page.
  constexpr std::size_t kWords = 64 * 1024;
  constexpr std::size_t kThresholdWords = WordMemory::kMadviseBytes / sizeof(std::uint32_t);
  WordMemory memory(kWords);
  for (const auto& [begin, end] :
       {std::pair<std::size_t, std::size_t>{0, 0},
        {3, 3 + kThresholdWords - 1},
        {0, kThresholdWords},
        {5, 5 + kThresholdWords},
        {1024, 1024 + 3 * kThresholdWords},
        {777, kWords - 333},
        {0, kWords}}) {
    SCOPED_TRACE(testing::Message() << "[" << begin << ", " << end << ")");
    for (std::size_t i = 0; i < kWords; ++i) memory[i] = static_cast<std::uint32_t>(i) | 1u;
    memory.zero(begin, end);
    for (std::size_t i = 0; i < kWords; ++i) {
      const std::uint32_t want = i >= begin && i < end ? 0u : static_cast<std::uint32_t>(i) | 1u;
      ASSERT_EQ(memory[i], want) << i;
    }
  }
}

}  // namespace
}  // namespace asipfb::sim
