#include "sim/memory.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <string>
#include <system_error>

#include "sim/machine.hpp"

namespace asipfb::sim {

namespace {

std::uintptr_t page_bytes() {
  static const auto page = static_cast<std::uintptr_t>(sysconf(_SC_PAGESIZE));
  return page;
}

}  // namespace

WordMemory::WordMemory(std::size_t words) : size_(words) {
  void* const p = mmap(nullptr, words * sizeof(std::uint32_t), PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (p == MAP_FAILED) {
    const int error = errno;
    throw SimError("cannot map " + std::to_string(words) + " words of simulator memory: " +
                   std::generic_category().message(error));
  }
  words_ = static_cast<std::uint32_t*>(p);
}

WordMemory::~WordMemory() { munmap(words_, size_ * sizeof(std::uint32_t)); }

void WordMemory::zero(std::size_t begin, std::size_t end) {
  std::uint32_t* const first = words_ + begin;
  std::uint32_t* const last = words_ + end;
  // The mapping is page-aligned, so whole pages are whole words.
  const std::uintptr_t mask = page_bytes() - 1;
  auto* const head = reinterpret_cast<std::uint32_t*>(
      (reinterpret_cast<std::uintptr_t>(first) + mask) & ~mask);
  auto* const tail = reinterpret_cast<std::uint32_t*>(
      reinterpret_cast<std::uintptr_t>(last) & ~mask);
  if ((end - begin) * sizeof(std::uint32_t) < kMadviseBytes || head >= tail) {
    std::fill(first, last, 0u);
    return;
  }
  std::fill(first, head, 0u);
  std::fill(tail, last, 0u);
  // Private anonymous pages read as zero after MADV_DONTNEED; should the
  // kernel refuse, clearing them by hand is still correct.
  if (madvise(head, static_cast<std::size_t>(tail - head) * sizeof(std::uint32_t),
              MADV_DONTNEED) != 0) {
    std::fill(head, tail, 0u);
  }
}

}  // namespace asipfb::sim
