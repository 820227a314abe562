// The cache::Store robustness contract (cache/store.hpp):
//
//   * raw payloads round-trip for every artifact kind, byte for byte,
//   * malformed entries — truncated, bit-flipped, mislabeled — are
//     counted misses that degrade to cold compute, never crashes and
//     never wrong bytes (corrupt files are additionally unlinked),
//   * a different engine version is a plain miss: the entry survives so
//     the process that wrote it can still read it,
//   * the size cap evicts oldest-mtime entries and publishing never
//     leaves stray temp files,
//   * two Store instances — same process or two processes (fork) — can
//     hammer one directory concurrently and every successful load
//     returns exactly the payload some save published,
//   * Session/SessionPool integration: baselines and stage artifacts
//     warm-start from disk, corrupted entries fall back to cold compute,
//     preparation failures are never cached, and baseline provenance is
//     visible in PoolStats.
#include "cache/store.hpp"

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <system_error>
#include <thread>
#include <vector>

#include "cache/serialize.hpp"
#include "pipeline/session.hpp"
#include "support/rng.hpp"

#if defined(__SANITIZE_THREAD__)
#define ASIPFB_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define ASIPFB_TSAN 1
#endif
#endif

namespace asipfb::cache {
namespace {

/// A per-test scratch directory under the gtest temp root, removed on
/// destruction; the Store creates it on open.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& tag) {
    dir_ = std::filesystem::path(::testing::TempDir()) /
           ("asipfb_cache_" + tag + "_" + std::to_string(::getpid()));
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

std::shared_ptr<Store> open_store(const ScratchDir& scratch,
                                  std::uint64_t max_bytes = 256ull << 20,
                                  std::string engine = {}) {
  StoreOptions options;
  options.dir = scratch.path();
  options.max_bytes = max_bytes;
  if (!engine.empty()) options.engine_version = std::move(engine);
  return std::make_shared<Store>(std::move(options));
}

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_file(const std::filesystem::path& path, std::string_view bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Deterministic payload per (kind, key) so concurrent readers can verify
/// value integrity; embeds NUL and high bytes to exercise binary safety.
std::string payload_for(Artifact kind, std::string_view key) {
  std::string payload("\x00\xff\x7f", 3);
  payload += to_string(kind);
  payload += ':';
  payload += key;
  return payload;
}

const std::vector<Artifact> kAllKinds = {
    Artifact::kPrepared, Artifact::kOptimized, Artifact::kDetection,
    Artifact::kCoverage, Artifact::kExtension};

TEST(Store, RoundTripsEveryArtifactKind) {
  const ScratchDir scratch("roundtrip");
  const auto store = open_store(scratch);
  const std::string key = content_hash({"roundtrip"});

  for (const Artifact kind : kAllKinds) {
    EXPECT_EQ(store->load(kind, key), std::nullopt);
    store->save(kind, key, payload_for(kind, key));
  }
  for (const Artifact kind : kAllKinds) {
    const auto loaded = store->load(kind, key);
    ASSERT_TRUE(loaded.has_value()) << to_string(kind);
    EXPECT_EQ(*loaded, payload_for(kind, key)) << to_string(kind);
  }

  const StoreStats stats = store->stats();
  EXPECT_EQ(stats.writes, kAllKinds.size());
  EXPECT_EQ(stats.hits, kAllKinds.size());
  EXPECT_EQ(stats.misses, kAllKinds.size());
  EXPECT_EQ(stats.corrupt, 0u);
  EXPECT_EQ(store->entries().size(), kAllKinds.size());

  // A second instance over the same directory sees the same entries —
  // the cross-process warm-start path, minus the process boundary.
  const auto reopened = open_store(scratch);
  const auto loaded = reopened->load(Artifact::kDetection, key);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(*loaded, payload_for(Artifact::kDetection, key));
}

TEST(Store, TruncatedEntriesAreCountedMissesAndUnlinked) {
  const std::string key = content_hash({"truncate"});
  const std::string payload = payload_for(Artifact::kDetection, key);

  // Every possible truncation point: header cut short, payload cut short.
  const ScratchDir probe("truncate_probe");
  const auto probe_store = open_store(probe);
  probe_store->save(Artifact::kDetection, key, payload);
  const std::string full =
      read_file(probe_store->entry_path(Artifact::kDetection, key));
  ASSERT_GT(full.size(), payload.size());

  const ScratchDir scratch("truncate");
  const auto store = open_store(scratch);
  std::uint64_t attempts = 0;
  for (std::size_t keep = 0; keep < full.size(); ++keep) {
    write_file(store->entry_path(Artifact::kDetection, key),
               std::string_view(full).substr(0, keep));
    EXPECT_EQ(store->load(Artifact::kDetection, key), std::nullopt)
        << "kept " << keep << " of " << full.size() << " bytes";
    EXPECT_FALSE(
        std::filesystem::exists(store->entry_path(Artifact::kDetection, key)))
        << "truncated entry must be unlinked (kept " << keep << ")";
    ++attempts;
  }
  const StoreStats stats = store->stats();
  EXPECT_EQ(stats.misses, attempts);
  EXPECT_EQ(stats.corrupt, attempts);
  EXPECT_EQ(stats.hits, 0u);
}

TEST(Store, BitFlipsNeverCrashAndNeverReturnWrongBytes) {
  const std::string key = content_hash({"bitflip"});
  const std::string payload = payload_for(Artifact::kCoverage, key);

  const ScratchDir probe("bitflip_probe");
  const auto probe_store = open_store(probe);
  probe_store->save(Artifact::kCoverage, key, payload);
  const std::string full =
      read_file(probe_store->entry_path(Artifact::kCoverage, key));

  const ScratchDir scratch("bitflip");
  const auto store = open_store(scratch);
  for (std::size_t offset = 0; offset < full.size(); ++offset) {
    std::string flipped = full;
    flipped[offset] = static_cast<char>(flipped[offset] ^ 0x20);
    write_file(store->entry_path(Artifact::kCoverage, key), flipped);
    const auto loaded = store->load(Artifact::kCoverage, key);
    // Depending on which field the flip hits this is a corrupt entry, an
    // engine/version mismatch (plain miss), or — never — a hit with the
    // wrong bytes.
    EXPECT_EQ(loaded, std::nullopt) << "flipped offset " << offset;
    std::error_code discard;
    std::filesystem::remove(store->entry_path(Artifact::kCoverage, key),
                            discard);
  }
  const StoreStats stats = store->stats();
  EXPECT_EQ(stats.misses, full.size());
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_GT(stats.corrupt, 0u) << "checksum flips must be detected";
}

TEST(Store, DifferentEngineVersionIsAPlainMissThatKeepsTheEntry) {
  const ScratchDir scratch("engine");
  const std::string key = content_hash({"engine"});
  const std::string payload = payload_for(Artifact::kPrepared, key);

  const auto old_engine = open_store(scratch, 256ull << 20, "engine-A");
  old_engine->save(Artifact::kPrepared, key, payload);

  const auto new_engine = open_store(scratch, 256ull << 20, "engine-B");
  EXPECT_EQ(new_engine->load(Artifact::kPrepared, key), std::nullopt);
  const StoreStats stats = new_engine->stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.corrupt, 0u) << "a version skew is not corruption";

  // The entry must survive: the old engine can still read its own cache.
  const auto still_there = old_engine->load(Artifact::kPrepared, key);
  ASSERT_TRUE(still_there.has_value());
  EXPECT_EQ(*still_there, payload);
}

TEST(Store, MislabeledKindInTheHeaderIsCorrupt) {
  const ScratchDir scratch("kind");
  const auto store = open_store(scratch);
  const std::string key = content_hash({"kind"});
  store->save(Artifact::kPrepared, key, payload_for(Artifact::kPrepared, key));

  // Copy the prepared entry's bytes under a detection file name: the
  // header's kind byte no longer matches the name the reader asked for.
  const std::string bytes =
      read_file(store->entry_path(Artifact::kPrepared, key));
  write_file(store->entry_path(Artifact::kDetection, key), bytes);

  EXPECT_EQ(store->load(Artifact::kDetection, key), std::nullopt);
  EXPECT_GT(store->stats().corrupt, 0u);
  EXPECT_FALSE(
      std::filesystem::exists(store->entry_path(Artifact::kDetection, key)));
}

TEST(Store, SizeCapEvictsAndPublishingLeavesNoTempFiles) {
  const ScratchDir scratch("evict");
  // Each framed entry is ~600 bytes; a 2000-byte cap holds only a few.
  const auto store = open_store(scratch, 2000);
  const std::string big(512, 'x');
  for (int i = 0; i < 12; ++i) {
    store->save(Artifact::kOptimized,
                content_hash({"evict", std::to_string(i)}), big);
  }
  const StoreStats stats = store->stats();
  EXPECT_EQ(stats.writes, 12u);
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_LT(store->entries().size(), 12u);

  std::uint64_t on_disk = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(scratch.path())) {
    EXPECT_EQ(entry.path().extension(), ".art")
        << "stray file: " << entry.path();
    on_disk += std::filesystem::file_size(entry.path());
  }
  EXPECT_LE(on_disk, 2000u) << "directory must fit the cap after eviction";
}

TEST(Store, ConcurrentInstancesOnOneDirectoryStayConsistent) {
  const ScratchDir scratch("concurrent");
  const auto a = open_store(scratch);
  const auto b = open_store(scratch);

  std::vector<std::string> keys;
  for (int i = 0; i < 8; ++i) {
    keys.push_back(content_hash({"concurrent", std::to_string(i)}));
  }

  auto hammer = [&](const std::shared_ptr<Store>& store, unsigned seed) {
    Rng rng(seed);
    for (int op = 0; op < 200; ++op) {
      const std::string& key =
          keys[static_cast<std::size_t>(rng.next_int(0, 7))];
      const Artifact kind =
          kAllKinds[static_cast<std::size_t>(rng.next_int(0, 4))];
      if (rng.next_int(0, 1) == 0) {
        store->save(kind, key, payload_for(kind, key));
      } else if (const auto loaded = store->load(kind, key)) {
        // A hit must be exactly the canonical payload for that slot.
        ASSERT_EQ(*loaded, payload_for(kind, key));
      }
    }
  };

  std::vector<std::thread> threads;
  for (unsigned t = 0; t < 4; ++t) {
    threads.emplace_back(hammer, t % 2 == 0 ? a : b, 100 + t);
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(a->stats().corrupt + b->stats().corrupt, 0u);
}

TEST(Store, TwoProcessesShareOneDirectorySafely) {
#ifdef ASIPFB_TSAN
  GTEST_SKIP() << "fork() is not supported under ThreadSanitizer";
#else
  const ScratchDir scratch("fork");
  std::vector<std::string> keys;
  for (int i = 0; i < 6; ++i) {
    keys.push_back(content_hash({"fork", std::to_string(i)}));
  }

  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    // Child: private Store over the shared directory, same key set.
    int rc = 0;
    {
      const auto store = open_store(scratch);
      for (int round = 0; round < 50; ++round) {
        for (const std::string& key : keys) {
          store->save(Artifact::kDetection, key,
                      payload_for(Artifact::kDetection, key));
          const auto loaded = store->load(Artifact::kDetection, key);
          if (loaded.has_value() &&
              *loaded != payload_for(Artifact::kDetection, key)) {
            rc = 1;  // Wrong bytes are the one unforgivable outcome.
          }
        }
      }
    }
    ::_exit(rc);
  }

  {
    const auto store = open_store(scratch);
    for (int round = 0; round < 50; ++round) {
      for (const std::string& key : keys) {
        store->save(Artifact::kDetection, key,
                    payload_for(Artifact::kDetection, key));
        const auto loaded = store->load(Artifact::kDetection, key);
        if (loaded.has_value()) {
          ASSERT_EQ(*loaded, payload_for(Artifact::kDetection, key));
        }
      }
    }
  }

  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0) << "child observed wrong cached bytes";
#endif
}

// --- Session / SessionPool integration --------------------------------------

const char* const kKernel = R"(
int x[32];
int y[32];
int main() {
  int n;
  for (n = 1; n < 31; n++) {
    y[n] = (x[n] + x[n - 1]) * 3;
  }
  int s = 0;
  for (n = 0; n < 32; n++) s += y[n];
  return s;
}
)";

pipeline::WorkloadInput kernel_input() {
  Rng rng(77);
  pipeline::WorkloadInput input;
  input.add("x", rng.int_array(32, -64, 63));
  return input;
}

TEST(SessionStore, BaselineAndStagesWarmStartFromDisk) {
  const ScratchDir scratch("session");
  const auto store = open_store(scratch);

  std::string cold_prepared;
  std::string cold_detection;
  {
    const pipeline::Session cold(kKernel, "warmstart", kernel_input(),
                                 sim::jit_default(), store);
    EXPECT_FALSE(cold.baseline_from_disk());
    cold_prepared = serialize(cold.prepared());
    cold_detection = serialize(cold.detection(opt::OptLevel::O1));
    EXPECT_GT(cold.stats().disk_misses, 0u);
  }
  EXPECT_GT(store->stats().writes, 0u);

  const pipeline::Session warm(kKernel, "warmstart", kernel_input(),
                               sim::jit_default(), store);
  EXPECT_TRUE(warm.baseline_from_disk());
  EXPECT_EQ(serialize(warm.prepared()), cold_prepared);
  EXPECT_EQ(serialize(warm.detection(opt::OptLevel::O1)), cold_detection);
  const pipeline::Session::Stats stats = warm.stats();
  EXPECT_GT(stats.disk_hits, 0u);
  EXPECT_EQ(stats.disk_misses, 0u) << "everything needed is on disk";
  EXPECT_EQ(stats.optimize_runs, 0u)
      << "a warm detection deserializes; it never queries the optimizer";
}

TEST(SessionStore, CorruptBaselineEntryFallsBackToColdCompute) {
  const ScratchDir scratch("fallback");
  const auto store = open_store(scratch);
  const pipeline::Session cold(kKernel, "fallback", kernel_input(),
                               sim::jit_default(), store);
  const std::string expected = serialize(cold.prepared());

  // Truncate the baseline entry in place: the next Session must detect
  // the damage, count it, and re-prepare from source.
  const auto path =
      store->entry_path(Artifact::kPrepared, cold.baseline_cache_key());
  ASSERT_TRUE(std::filesystem::exists(path));
  const std::string bytes = read_file(path);
  write_file(path, std::string_view(bytes).substr(0, bytes.size() / 2));

  const pipeline::Session recovered(kKernel, "fallback", kernel_input(),
                                    sim::jit_default(), store);
  EXPECT_FALSE(recovered.baseline_from_disk());
  EXPECT_EQ(serialize(recovered.prepared()), expected);
  EXPECT_GT(store->stats().corrupt, 0u);
}

TEST(SessionStore, PreparationFailuresAreNeverCached) {
  const ScratchDir scratch("errors");
  const auto store = open_store(scratch);
  EXPECT_THROW(pipeline::Session("int main() { return undefined; }", "bad",
                                 pipeline::WorkloadInput{},
                                 sim::jit_default(), store),
               std::runtime_error);
  EXPECT_TRUE(store->entries().empty())
      << "a failed preparation must not publish anything";
}

TEST(SessionPoolStore, ProvenancePartitionsPoolStats) {
  const ScratchDir scratch("provenance");
  const auto store = open_store(scratch);

  pipeline::SessionPool first;
  first.set_store(store);
  (void)first.get("kernel", kKernel, kernel_input());
  const pipeline::SessionPool::PoolStats cold = first.stats();
  EXPECT_EQ(cold.sessions, 1u);
  EXPECT_EQ(cold.computed, 1u);
  EXPECT_EQ(cold.disk_cache, 0u);

  // A new pool over the same store — the restarted process — loads the
  // same workload from disk and reports it as such.
  pipeline::SessionPool second;
  second.set_store(store);
  const auto warm = second.get("kernel", kKernel, kernel_input());
  EXPECT_TRUE(warm->baseline_from_disk());
  const pipeline::PreparedProgram adopted =
      pipeline::prepare(kKernel, "adopted", kernel_input());
  (void)second.put("adopted", adopted);
  const pipeline::SessionPool::PoolStats stats = second.stats();
  EXPECT_EQ(stats.sessions, 2u);
  EXPECT_EQ(stats.computed, 0u);
  EXPECT_EQ(stats.adopted, 1u);
  EXPECT_EQ(stats.disk_cache, 1u);
  EXPECT_GT(stats.stages.disk_hits, 0u);
}

}  // namespace
}  // namespace asipfb::cache
