// Replay verification: the cache's correctness contract, checked over a
// generated-corpus sample every CI build.
//
// The serialization in cache/serialize.hpp is canonical — byte equality
// of two encodings is value equality of the two artifacts — so the whole
// "a warm start is indistinguishable from a cold one" promise reduces to
// byte comparisons:
//
//   1. populate a store by running the full stage pipeline over >= 16
//      corpus scenarios (cold pass),
//   2. warm-start every scenario from a second, store-attached Session
//      and recompute it cold in a third, store-free Session: every
//      artifact (prepared baseline, optimized module, detection,
//      coverage, extension) must re-encode bit-identical between the two,
//   3. the on-disk baseline payload must equal the fresh encoding, and
//      every entry the store holds must deserialize cleanly and re-encode
//      to exactly its payload bytes (round-trip fidelity).
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <memory>
#include <string>
#include <system_error>

#include "cache/serialize.hpp"
#include "cache/store.hpp"
#include "pipeline/session.hpp"
#include "workloads/generator.hpp"

namespace asipfb::cache {
namespace {

class ScratchDir {
 public:
  ScratchDir() {
    dir_ = std::filesystem::path(::testing::TempDir()) /
           ("asipfb_replay_" + std::to_string(::getpid()));
    std::error_code discard;
    std::filesystem::remove_all(dir_, discard);
  }
  ~ScratchDir() {
    std::error_code discard;
    std::filesystem::remove_all(dir_, discard);
  }
  [[nodiscard]] const std::filesystem::path& path() const { return dir_; }

 private:
  std::filesystem::path dir_;
};

TEST(ReplayVerify, WarmArtifactsAreBitIdenticalToFreshRecompute) {
  wl::CorpusSpec spec;
  spec.count = 18;
  const auto corpus = wl::corpus(spec);
  ASSERT_GE(corpus.size(), 16u) << "the replay contract samples >= 16 scenarios";

  const ScratchDir scratch;
  StoreOptions options;
  options.dir = scratch.path();
  const auto store = std::make_shared<Store>(std::move(options));

  // Cold pass: run every stage so the store holds all five artifact
  // kinds per scenario.
  for (const auto& w : corpus) {
    const pipeline::Session cold(w.source, w.name, w.input, store);
    ASSERT_FALSE(cold.baseline_from_disk()) << w.name;
    (void)cold.detection(opt::OptLevel::O1);
    (void)cold.coverage(opt::OptLevel::O1);
    (void)cold.extension(opt::OptLevel::O1);
  }
  ASSERT_GT(store->stats().writes, 0u);

  // Warm-vs-fresh: deserialize from disk in one Session, recompute from
  // source in another, compare the canonical encodings.
  for (const auto& w : corpus) {
    const pipeline::Session warm(w.source, w.name, w.input, store);
    ASSERT_TRUE(warm.baseline_from_disk()) << w.name;
    const pipeline::Session fresh(w.source, w.name, w.input);

    EXPECT_EQ(serialize(warm.prepared()), serialize(fresh.prepared()))
        << w.name << ": prepared baseline";
    EXPECT_EQ(serialize(warm.optimized(opt::OptLevel::O1)),
              serialize(fresh.optimized(opt::OptLevel::O1)))
        << w.name << ": optimized module";
    EXPECT_EQ(serialize(warm.detection(opt::OptLevel::O1)),
              serialize(fresh.detection(opt::OptLevel::O1)))
        << w.name << ": detection";
    EXPECT_EQ(serialize(warm.coverage(opt::OptLevel::O1)),
              serialize(fresh.coverage(opt::OptLevel::O1)))
        << w.name << ": coverage";
    EXPECT_EQ(serialize(warm.extension(opt::OptLevel::O1)),
              serialize(fresh.extension(opt::OptLevel::O1)))
        << w.name << ": extension proposal";
    EXPECT_GT(warm.stats().disk_hits, 0u) << w.name;

    // The bytes on disk are exactly the fresh encoding, too — not just
    // value-equal after a decode/encode round trip.
    const auto payload =
        store->load(Artifact::kPrepared, warm.baseline_cache_key());
    ASSERT_TRUE(payload.has_value()) << w.name;
    EXPECT_EQ(*payload, serialize(fresh.prepared())) << w.name;
  }

  // Every entry on disk decodes without error and re-encodes to its own
  // payload bytes.
  const auto entries = store->entries();
  ASSERT_GE(entries.size(), corpus.size() * 4)
      << "expected baseline + optimized + detection + coverage (+ extension) "
         "per scenario";
  for (const auto& entry : entries) {
    const auto payload = store->load(entry.kind, entry.key);
    ASSERT_TRUE(payload.has_value()) << entry.key;
    std::string reencoded;
    switch (entry.kind) {
      case Artifact::kPrepared:
        reencoded = serialize(deserialize_prepared(*payload));
        break;
      case Artifact::kOptimized:
        reencoded = serialize(deserialize_module(*payload));
        break;
      case Artifact::kDetection:
        reencoded = serialize(deserialize_detection(*payload));
        break;
      case Artifact::kCoverage:
        reencoded = serialize(deserialize_coverage(*payload));
        break;
      case Artifact::kExtension:
        reencoded = serialize(deserialize_extension(*payload));
        break;
    }
    EXPECT_EQ(reencoded, *payload)
        << to_string(entry.kind) << "-" << entry.key
        << ": decode/encode round trip must be the identity";
  }
}

}  // namespace
}  // namespace asipfb::cache
