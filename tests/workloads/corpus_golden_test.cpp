// Corpus byte-stability pin: per-family FNV-1a hashes over the default
// corpus's emitted source text.  Generator refactors that change ANY
// emitted byte — formatting, literal rendering, parameter sampling, family
// order — fail here loudly and must update the goldens intentionally
// (the failure message prints the replacement table ready to paste).
//
// This is deliberate friction: generated sources are oracle-checked
// artifacts that downstream consumers (the gauntlet, the corpus
// differential harness, serve_demo's pinned transcript) treat as stable
// for a fixed (seed, count, families) spec.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>

#include "workloads/generator.hpp"

namespace asipfb::wl {
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

/// name + '\n' + source of every family scenario, in corpus index order.
std::map<std::string, std::uint64_t> family_hashes() {
  std::map<std::string, std::uint64_t> hashes;
  for (const Family family : all_families()) {
    hashes[std::string(to_string(family))] = kFnvOffset;
  }
  for (const Workload& w : default_corpus()) {
    const std::string family(family_of(w.name));
    std::uint64_t& h = hashes.at(family);
    h = fnv1a(w.source, fnv1a(w.name + "\n", h));
  }
  return hashes;
}

TEST(CorpusGolden, PerFamilySourceHashesArePinned) {
  // Golden values for the default spec (seed 0x5EEDC0DE5EEDC0DE, 96
  // scenarios, nine families).  An intentional generator change updates
  // this table from the failure output below.
  const std::map<std::string, std::uint64_t> golden = {
      {"calls", 0x52a5122aca5f758full},
      {"conv2d", 0xb8da8b3d5404963aull},
      {"dft", 0x87dccf413a8e6446ull},
      {"fft", 0xde6b3f947edd2f6dull},
      {"fir", 0x66b20f7f44a666abull},
      {"fused", 0xdbd6f3fa132d019full},
      {"histeq", 0xf9a90d9b76e8b9f1ull},
      {"iir", 0xb76013b018ab20full},
      {"rle", 0x87ba40d4a63dd4bfull},
  };

  const auto actual = family_hashes();
  ASSERT_EQ(actual.size(), golden.size())
      << "family set changed; update the golden table";
  std::string replacement;
  for (const auto& [family, hash] : actual) {
    char row[96];
    std::snprintf(row, sizeof row, "      {\"%s\", 0x%llxull},\n",
                  family.c_str(), static_cast<unsigned long long>(hash));
    replacement += row;
  }
  for (const auto& [family, hash] : golden) {
    EXPECT_EQ(actual.at(family), hash)
        << "emitted source for family '" << family
        << "' changed bytes.  If intentional, replace the golden table "
           "with:\n"
        << replacement;
  }
}

}  // namespace
}  // namespace asipfb::wl
