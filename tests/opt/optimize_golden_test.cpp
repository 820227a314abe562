// Optimizer byte-stability pin: per-family FNV-1a hashes over the canonical
// encoding (cache::serialize) of every artifact of a Figure-1 trip — the
// prepared baseline plus the optimized module, detection, coverage and
// extension at O0, O1 and O2 — for the Table-1 suite, the default corpus
// and the held-out seed-2 corpus.
//
// The encoding is canonical, so an equal hash means every optimized
// program, every detected sequence and every proposal is unchanged.  An
// optimizer, analysis or detector change that moves ANY byte fails here
// and must update the goldens intentionally (the failure message prints
// the replacement table ready to paste).  Performance work on the
// optimizer (liveness, percolation) must pass with the table unchanged.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "cache/serialize.hpp"
#include "pipeline/session.hpp"
#include "workloads/generator.hpp"
#include "workloads/suite.hpp"

namespace asipfb::opt {
namespace {

/// FNV-1a 64-bit over the bytes of `text`, continuing from `h`.
std::uint64_t fnv1a(const std::string& text, std::uint64_t h) {
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr std::array<OptLevel, 3> kLevels = {OptLevel::O0, OptLevel::O1,
                                             OptLevel::O2};

/// Folds the name and all 13 trip artifacts of `w` into `h`.
std::uint64_t hash_trip(const wl::Workload& w, std::uint64_t h) {
  const pipeline::Session s(w.source, w.name, w.input);
  h = fnv1a(w.name + "\n", h);
  h = fnv1a(cache::serialize(s.prepared()), h);
  for (const OptLevel level : kLevels) {
    h = fnv1a(cache::serialize(s.optimized(level)), h);
    h = fnv1a(cache::serialize(s.detection(level)), h);
    h = fnv1a(cache::serialize(s.coverage(level)), h);
    h = fnv1a(cache::serialize(s.extension(level)), h);
  }
  return h;
}

/// One hash per generator family, scenarios folded in corpus index order.
std::map<std::string, std::uint64_t> corpus_hashes(
    const std::vector<wl::Workload>& corpus) {
  std::map<std::string, std::uint64_t> hashes;
  for (const wl::Workload& w : corpus) {
    const auto [it, inserted] =
        hashes.try_emplace(std::string(wl::family_of(w.name)), kFnvOffset);
    it->second = hash_trip(w, it->second);
  }
  return hashes;
}

void expect_pinned(const std::map<std::string, std::uint64_t>& actual,
                   const std::map<std::string, std::uint64_t>& golden) {
  std::string replacement;
  for (const auto& [family, hash] : actual) {
    char row[96];
    std::snprintf(row, sizeof row, "      {\"%s\", 0x%llxull},\n",
                  family.c_str(), static_cast<unsigned long long>(hash));
    replacement += row;
  }
  ASSERT_EQ(actual.size(), golden.size())
      << "family set changed; replace the golden table with:\n"
      << replacement;
  for (const auto& [family, hash] : golden) {
    EXPECT_EQ(actual.at(family), hash)
        << "trip artifacts of '" << family
        << "' changed bytes.  If intentional, replace the golden table "
           "with:\n"
        << replacement;
  }
}

TEST(OptimizeGolden, SuiteTripArtifactsArePinned) {
  std::uint64_t h = kFnvOffset;
  for (const wl::Workload& w : wl::suite()) h = hash_trip(w, h);
  expect_pinned({{"suite", h}}, {
      {"suite", 0xf593825d1533b9b6ull},
  });
}

TEST(OptimizeGolden, DefaultCorpusTripArtifactsArePinned) {
  expect_pinned(corpus_hashes(wl::default_corpus()), {
      {"calls", 0xf2039c46bd1cd4c9ull},
      {"conv2d", 0x1dc9c161e9f7749cull},
      {"dft", 0x9996d5427e93ce1aull},
      {"fft", 0xf935750b4bb3c13eull},
      {"fir", 0xa9a7cda90b00fde3ull},
      {"fused", 0x4c000ecc8b680dd2ull},
      {"histeq", 0x91226556663be82bull},
      {"iir", 0xcb8bb6d3de798223ull},
      {"rle", 0x7a47e70a29bf6fabull},
  });
}

TEST(OptimizeGolden, HeldOutSeed2CorpusTripArtifactsArePinned) {
  wl::CorpusSpec spec;
  spec.seed = 2;
  expect_pinned(corpus_hashes(wl::corpus(spec)), {
      {"calls", 0x4adbcb81ca081353ull},
      {"conv2d", 0x32f48b7c6a75c8c5ull},
      {"dft", 0x64c7d69621ba4c6full},
      {"fft", 0x2a407ad210ed7eaaull},
      {"fir", 0x54579558643c1b84ull},
      {"fused", 0x838a1a2f6f84248cull},
      {"histeq", 0x3fd5ec6c9d9f6755ull},
      {"iir", 0xb18d38ba12ac175eull},
      {"rle", 0xf5c6bc0f966e73a4ull},
  });
}

}  // namespace
}  // namespace asipfb::opt
