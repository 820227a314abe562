// Zero-on-touch word memory backing the simulator's image.
//
// One anonymous private mapping (mmap(2), MAP_NORESERVE): the kernel
// supplies a zero page on first touch, so mapping a large image costs
// nothing up front and a run pays only for the pages it writes.  zero()
// clears a word range: spans under kMadviseBytes with std::fill, longer
// ones by filling the partial head and tail pages and handing the whole
// pages between them back with madvise(MADV_DONTNEED), after which they
// read as zero again (madvise(2)).
#pragma once

#include <cstddef>
#include <cstdint>

namespace asipfb::sim {

class WordMemory {
public:
  /// Cleared spans of at least this many bytes go through madvise.
  static constexpr std::size_t kMadviseBytes = 64 * 1024;

  /// Maps `words` zero words.  Throws SimError when the kernel refuses
  /// the mapping.
  explicit WordMemory(std::size_t words);
  ~WordMemory();
  WordMemory(const WordMemory&) = delete;
  WordMemory& operator=(const WordMemory&) = delete;

  [[nodiscard]] std::uint32_t* data() { return words_; }
  [[nodiscard]] const std::uint32_t* data() const { return words_; }
  [[nodiscard]] std::size_t size() const { return size_; }
  std::uint32_t& operator[](std::size_t i) { return words_[i]; }
  const std::uint32_t& operator[](std::size_t i) const { return words_[i]; }

  /// Sets words [begin, end) to zero.
  void zero(std::size_t begin, std::size_t end);

private:
  std::uint32_t* words_ = nullptr;
  std::size_t size_ = 0;
};

}  // namespace asipfb::sim
