// The cache::Store robustness contract (cache/store.hpp), over the
// log-structured layout (records appended to per-instance segments):
//
//   * raw payloads round-trip for every artifact kind, byte for byte, and
//     a repeated save appends nothing,
//   * malformed records — cut short, bit-flipped, relabeled — are counted
//     corrupt misses that degrade to cold compute, never crashes and never
//     wrong bytes (corrupt records are dropped from the index); a torn
//     tail is a plain miss that hides nothing else,
//   * a different engine version, a legacy `.art` file or a segment of an
//     older format version is a plain miss: the bytes survive so the
//     engine that wrote them can still read them,
//   * the size cap evicts whole oldest segments and the directory holds
//     nothing but segments,
//   * records another instance or process appends after open are found on
//     the next miss, and entry_path() names the segment holding a record,
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

#include <chrono>
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
#include "support/bytes.hpp"
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
  /// Leaves the directory existing and empty.
  void clear() const {
    std::error_code discard;
    std::filesystem::remove_all(dir_, discard);
    std::filesystem::create_directories(dir_);
  }

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

/// Where one record sits in a segment: [begin, end).
struct Span {
  std::size_t begin = 0;
  std::size_t end = 0;
};

/// Locates the record for `key` in a segment's bytes by searching for the
/// key, then reads the record's length from its header: magic, format
/// version, kind, engine string, key, payload length, checksum, payload.
Span record_span(std::string_view segment, std::string_view key,
                 std::string_view engine = kEngineVersion) {
  const std::size_t key_at = segment.find(key);
  if (key_at == std::string_view::npos) return {};
  Span span;
  span.begin = key_at - (8 + 4 + 1 + 8 + engine.size() + 8);
  support::ByteReader in(segment.substr(span.begin));
  (void)in.raw(8 + 4 + 1);
  (void)in.str();
  (void)in.str();
  const std::uint64_t payload_bytes = in.u64();
  (void)in.u64();
  span.end = span.begin + in.position() + payload_bytes;
  return span;
}

void add(StoreStats& total, const StoreStats& s) {
  total.hits += s.hits;
  total.misses += s.misses;
  total.writes += s.writes;
  total.evictions += s.evictions;
  total.corrupt += s.corrupt;
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
  const std::vector<EntryInfo> entries = store->entries();
  EXPECT_EQ(entries.size(), kAllKinds.size());
  for (const EntryInfo& entry : entries) {
    const auto loaded = store->load(entry.kind, entry.key);
    ASSERT_TRUE(loaded.has_value()) << to_string(entry.kind);
    EXPECT_EQ(entry.payload_bytes, loaded->size()) << to_string(entry.kind);
  }

  // Saving a key the index already holds appends nothing.
  const std::uint64_t segment_bytes =
      std::filesystem::file_size(store->entry_path(Artifact::kPrepared, key));
  store->save(Artifact::kPrepared, key, payload_for(Artifact::kPrepared, key));
  EXPECT_EQ(store->stats().writes, kAllKinds.size());
  EXPECT_EQ(std::filesystem::file_size(store->entry_path(Artifact::kPrepared, key)),
            segment_bytes);

  // A second instance over the same directory sees the same entries —
  // the cross-process warm-start path, minus the process boundary.
  const auto reopened = open_store(scratch);
  const auto loaded = reopened->load(Artifact::kDetection, key);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(*loaded, payload_for(Artifact::kDetection, key));
  EXPECT_EQ(reopened->entries().size(), kAllKinds.size());
}

TEST(Store, FsyncedSavesReopenByteIdentical) {
  // With StoreOptions::fsync every append is fdatasync'd (a save counts as
  // a write only if that succeeded) and the new segment's directory entry
  // is fsync'd; a fresh Store over the directory must then hit every
  // payload byte for byte.
  const ScratchDir scratch("fsync");
  const std::string key = content_hash({"fsync"});
  {
    StoreOptions options;
    options.dir = scratch.path();
    options.fsync = true;
    Store store(std::move(options));
    for (const Artifact kind : kAllKinds) {
      store.save(kind, key, payload_for(kind, key));
    }
    EXPECT_EQ(store.stats().writes, kAllKinds.size());
  }
  const auto reopened = open_store(scratch);
  for (const Artifact kind : kAllKinds) {
    const auto loaded = reopened->load(kind, key);
    ASSERT_TRUE(loaded.has_value()) << to_string(kind);
    EXPECT_EQ(*loaded, payload_for(kind, key)) << to_string(kind);
  }
  EXPECT_EQ(reopened->stats().hits, kAllKinds.size());
  EXPECT_EQ(reopened->stats().corrupt, 0u);
}

TEST(Store, TruncatedTailRecordIsNeverAHit) {
  const std::string head_key = content_hash({"truncate", "head"});
  const std::string tail_key = content_hash({"truncate", "tail"});
  const std::string head = payload_for(Artifact::kDetection, head_key);
  const std::string tail = payload_for(Artifact::kDetection, tail_key);

  const ScratchDir probe("truncate_probe");
  Span record;
  std::uint64_t segment_bytes = 0;
  {
    const auto probe_store = open_store(probe);
    probe_store->save(Artifact::kDetection, head_key, head);
    probe_store->save(Artifact::kDetection, tail_key, tail);
    const std::string full =
        read_file(probe_store->entry_path(Artifact::kDetection, tail_key));
    record = record_span(full, tail_key);
    segment_bytes = full.size();
  }
  ASSERT_EQ(record.end, segment_bytes) << "the tail record ends the segment";

  // Every cut inside the tail record, from "nothing of it" to "all but
  // its last byte".  The instance that indexed the record reads it short
  // (corrupt); a fresh instance sees a torn tail (plain miss).  The record
  // before it serves either way.
  const ScratchDir scratch("truncate");
  std::uint64_t attempts = 0;
  StoreStats writer_total;
  StoreStats fresh_total;
  for (std::size_t keep = record.begin; keep < record.end; ++keep) {
    scratch.clear();
    const auto writer = open_store(scratch);
    writer->save(Artifact::kDetection, head_key, head);
    writer->save(Artifact::kDetection, tail_key, tail);
    const auto segment = writer->entry_path(Artifact::kDetection, tail_key);
    ASSERT_EQ(std::filesystem::file_size(segment), segment_bytes);
    std::filesystem::resize_file(segment, keep);

    EXPECT_EQ(writer->load(Artifact::kDetection, tail_key), std::nullopt)
        << "kept " << keep << " of " << segment_bytes << " bytes";
    EXPECT_EQ(writer->load(Artifact::kDetection, head_key), head);
    const auto fresh = open_store(scratch);
    EXPECT_EQ(fresh->load(Artifact::kDetection, tail_key), std::nullopt)
        << "kept " << keep << " of " << segment_bytes << " bytes";
    EXPECT_EQ(fresh->load(Artifact::kDetection, head_key), head);
    ++attempts;
    add(writer_total, writer->stats());
    add(fresh_total, fresh->stats());
  }
  EXPECT_EQ(writer_total.hits, attempts);
  EXPECT_EQ(writer_total.misses, attempts);
  EXPECT_EQ(writer_total.corrupt, attempts) << "a short read is corrupt";
  EXPECT_EQ(fresh_total.hits, attempts);
  EXPECT_EQ(fresh_total.misses, attempts);
  EXPECT_EQ(fresh_total.corrupt, 0u) << "a torn tail is not corruption";
}

TEST(Store, BitFlipsNeverCrashAndNeverReturnWrongBytes) {
  const std::string key = content_hash({"bitflip"});
  const std::string payload = payload_for(Artifact::kCoverage, key);

  const ScratchDir probe("bitflip_probe");
  std::string full;
  {
    const auto probe_store = open_store(probe);
    probe_store->save(Artifact::kCoverage, key, payload);
    full = read_file(probe_store->entry_path(Artifact::kCoverage, key));
  }
  const Span record = record_span(full, key);
  ASSERT_EQ(record.begin, 0u);
  ASSERT_EQ(record.end, full.size());
  const std::size_t key_at = full.find(key);
  const std::size_t checksum_at = key_at + key.size() + 8;

  const ScratchDir scratch("bitflip");
  std::uint64_t loads = 0;
  StoreStats total;
  for (std::size_t offset = 0; offset < full.size(); ++offset) {
    scratch.clear();
    std::string flipped = full;
    flipped[offset] = static_cast<char>(flipped[offset] ^ 0x20);
    write_file(scratch.path() / "seg-1-0.log", flipped);
    const auto store = open_store(scratch);
    // Depending on which field the flip hits this is a corrupt record, a
    // format/engine mismatch or a torn tail (plain misses), or — never —
    // a hit with the wrong bytes.
    EXPECT_EQ(store->load(Artifact::kCoverage, key), std::nullopt)
        << "flipped offset " << offset;
    ++loads;
    if (offset >= key_at && offset < key_at + key.size()) {
      // The record now names another key; it must not serve under it.
      std::string other = key;
      other[offset - key_at] = flipped[offset];
      EXPECT_EQ(store->load(Artifact::kCoverage, other), std::nullopt)
          << "flipped key offset " << offset;
      EXPECT_EQ(store->stats().corrupt, 1u) << "flipped key offset " << offset;
      ++loads;
    }
    if (offset >= checksum_at) {
      EXPECT_EQ(store->stats().corrupt, 1u)
          << "checksum or payload flip at " << offset << " must be detected";
    }
    add(total, store->stats());
  }
  EXPECT_EQ(total.misses, loads);
  EXPECT_EQ(total.hits, 0u);
  EXPECT_GT(total.corrupt, 0u);
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

  // The record must survive: the old engine can still read its own cache,
  // in the instance that wrote it and in a new one.
  const auto still_there = old_engine->load(Artifact::kPrepared, key);
  ASSERT_TRUE(still_there.has_value());
  EXPECT_EQ(*still_there, payload);
  const auto old_again = open_store(scratch, 256ull << 20, "engine-A");
  EXPECT_EQ(old_again->load(Artifact::kPrepared, key), payload);
}

TEST(Store, ChangedKindByteIsCorrupt) {
  const ScratchDir scratch("kind");
  const auto store = open_store(scratch);
  const std::string key = content_hash({"kind"});
  store->save(Artifact::kPrepared, key, payload_for(Artifact::kPrepared, key));

  // Relabel the prepared record as a detection record in place: the kind
  // byte follows the magic and the format version.
  const auto segment = store->entry_path(Artifact::kPrepared, key);
  std::string bytes = read_file(segment);
  ASSERT_EQ(bytes[12], static_cast<char>(Artifact::kPrepared));
  bytes[12] = static_cast<char>(Artifact::kDetection);
  write_file(segment, bytes);

  // The instance that indexed it as prepared sees a header that disagrees.
  EXPECT_EQ(store->load(Artifact::kPrepared, key), std::nullopt);
  EXPECT_EQ(store->stats().corrupt, 1u);

  // A fresh instance indexes it as detection; the checksum covers the
  // kind, so it is corrupt there too, and prepared is simply absent.
  const auto fresh = open_store(scratch);
  EXPECT_EQ(fresh->load(Artifact::kDetection, key), std::nullopt);
  EXPECT_EQ(fresh->load(Artifact::kPrepared, key), std::nullopt);
  EXPECT_EQ(fresh->stats().corrupt, 1u);
  EXPECT_EQ(fresh->stats().hits, 0u);
}

TEST(Store, SizeCapEvictsWholeSegmentsAndLeavesOnlySegments) {
  const ScratchDir scratch("evict");
  // Each record is ~600 bytes and a segment closes at an eighth of the
  // cap, so every record gets a segment and the cap holds only a few.
  const auto store = open_store(scratch, 2000);
  const std::string big(512, 'x');
  std::vector<std::string> keys;
  for (int i = 0; i < 12; ++i) {
    keys.push_back(content_hash({"evict", std::to_string(i)}));
    store->save(Artifact::kOptimized, keys.back(), big);
  }
  const StoreStats stats = store->stats();
  EXPECT_EQ(stats.writes, 12u);
  EXPECT_GT(stats.evictions, 0u);
  const std::vector<EntryInfo> entries = store->entries();
  EXPECT_LT(entries.size(), 12u);
  EXPECT_EQ(stats.evictions + entries.size(), 12u);

  std::uint64_t on_disk = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(scratch.path())) {
    const std::string name = entry.path().filename().string();
    EXPECT_TRUE(name.starts_with("seg-") && name.ends_with(".log"))
        << "stray file: " << entry.path();
    on_disk += std::filesystem::file_size(entry.path());
  }
  EXPECT_LE(on_disk, 2000u) << "directory must fit the cap after eviction";

  // The newest records survive whole; the evicted ones are plain misses.
  const auto fresh = open_store(scratch, 2000);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const bool kept = i >= keys.size() - entries.size();
    EXPECT_EQ(fresh->load(Artifact::kOptimized, keys[i]).has_value(), kept) << i;
  }
  EXPECT_EQ(fresh->stats().corrupt, 0u);
}

TEST(Store, LegacyEntryFilesArePlainMissesAndStayUntouched) {
  const ScratchDir scratch("legacy");
  std::filesystem::create_directories(scratch.path());
  const std::string key = content_hash({"legacy"});
  const std::string payload = payload_for(Artifact::kDetection, key);

  // One `<kind>-<key>.art` file per entry, framed as format version 1.
  support::ByteWriter legacy;
  legacy.raw("ASFBCACH");
  legacy.u32(1);
  legacy.u8(static_cast<std::uint8_t>(Artifact::kDetection));
  legacy.str(kEngineVersion);
  legacy.u64(payload.size());
  legacy.u64(support::Fnv1a(support::kFnvShortBasis).bytes(payload).value());
  legacy.raw(payload);
  const std::string legacy_bytes = std::move(legacy).take();
  const auto legacy_path = scratch.path() / ("detection-" + key + ".art");
  write_file(legacy_path, legacy_bytes);

  const auto store = open_store(scratch);
  EXPECT_EQ(store->load(Artifact::kDetection, key), std::nullopt);
  EXPECT_EQ(store->stats().misses, 1u);
  EXPECT_EQ(store->stats().corrupt, 0u) << "an old cache is not corrupt";
  EXPECT_TRUE(store->entries().empty());

  store->save(Artifact::kDetection, key, payload);
  EXPECT_EQ(store->load(Artifact::kDetection, key), payload);
  EXPECT_EQ(read_file(legacy_path), legacy_bytes) << "legacy files are left alone";
}

TEST(Store, FormatTwoSegmentsArePlainMissesAndStayUntouched) {
  const ScratchDir scratch("format2");
  std::filesystem::create_directories(scratch.path());
  const std::string key = content_hash({"format2"});
  const std::string payload = payload_for(Artifact::kCoverage, key);

  // A segment record framed as format version 2: the layout of today's
  // records with the FNV-1a checksum of (kind, key, payload).
  const auto kind = static_cast<std::uint8_t>(Artifact::kCoverage);
  support::ByteWriter old_record;
  old_record.raw("ASFBCACH");
  old_record.u32(2);
  old_record.u8(kind);
  old_record.str(kEngineVersion);
  old_record.str(key);
  old_record.u64(payload.size());
  old_record.u64(support::Fnv1a(support::kFnvShortBasis)
                     .bytes(std::string_view(reinterpret_cast<const char*>(&kind), 1))
                     .bytes(key)
                     .bytes(payload)
                     .value());
  old_record.raw(payload);
  const std::string old_bytes = std::move(old_record).take();
  const auto old_segment = scratch.path() / "seg-1-0.log";
  write_file(old_segment, old_bytes);

  const auto store = open_store(scratch);
  EXPECT_EQ(store->load(Artifact::kCoverage, key), std::nullopt);
  EXPECT_EQ(store->stats().misses, 1u);
  EXPECT_EQ(store->stats().corrupt, 0u) << "an older format is not corruption";
  EXPECT_TRUE(store->entries().empty());

  // The same key saves and loads under the current format, in a segment
  // of its own; the old one is left as it was.
  store->save(Artifact::kCoverage, key, payload);
  EXPECT_EQ(store->load(Artifact::kCoverage, key), payload);
  const std::filesystem::path new_segment =
      store->entry_path(Artifact::kCoverage, key);
  ASSERT_FALSE(new_segment.empty());
  EXPECT_NE(new_segment, old_segment);
  const std::string new_bytes = read_file(new_segment);
  support::ByteReader header(new_bytes);
  (void)header.raw(8);
  EXPECT_EQ(header.u32(), kFormatVersion);
  EXPECT_EQ(kFormatVersion, 3u);
  EXPECT_EQ(read_file(old_segment), old_bytes) << "old segments are left alone";

  const auto fresh = open_store(scratch);
  EXPECT_EQ(fresh->load(Artifact::kCoverage, key), payload);
  EXPECT_EQ(fresh->stats().corrupt, 0u);
}

TEST(Store, EntryPathNamesTheSegmentHoldingTheRecord) {
  const ScratchDir scratch("entry_path");
  const auto store = open_store(scratch);
  const std::string key = content_hash({"entry_path"});
  EXPECT_TRUE(store->entry_path(Artifact::kPrepared, key).empty());

  store->save(Artifact::kPrepared, key, payload_for(Artifact::kPrepared, key));
  const std::filesystem::path path = store->entry_path(Artifact::kPrepared, key);
  ASSERT_FALSE(path.empty());
  EXPECT_TRUE(std::filesystem::exists(path));
  EXPECT_EQ(path.parent_path(), scratch.path());
  EXPECT_TRUE(path.filename().string().starts_with("seg-"));
  EXPECT_NE(read_file(path).find(key), std::string::npos);

  // Another kind, another key: nothing indexed, so no path.
  EXPECT_TRUE(store->entry_path(Artifact::kDetection, key).empty());
  EXPECT_TRUE(
      store->entry_path(Artifact::kPrepared, content_hash({"absent"})).empty());

  // A fresh instance finds the record in the same segment.
  EXPECT_EQ(open_store(scratch)->entry_path(Artifact::kPrepared, key), path);
}

TEST(Store, RecordsAppendedByAnotherWriterAreFoundOnTheNextMiss) {
  const ScratchDir scratch("appended");
  const auto reader = open_store(scratch);
  const auto writer = open_store(scratch);
  const Artifact kind = Artifact::kExtension;
  std::vector<std::string> keys;
  for (int i = 0; i < 4; ++i) {
    keys.push_back(content_hash({"appended", std::to_string(i)}));
  }

  // A new segment, then growth of that same segment (the directory does
  // not change).
  writer->save(kind, keys[0], payload_for(kind, keys[0]));
  EXPECT_EQ(reader->load(kind, keys[0]), payload_for(kind, keys[0]));
  writer->save(kind, keys[1], payload_for(kind, keys[1]));
  EXPECT_EQ(reader->load(kind, keys[1]), payload_for(kind, keys[1]));

  // A segment created once the reader's listing has settled: the
  // directory's mtime moves past the one the reader recorded.
  std::this_thread::sleep_for(std::chrono::milliseconds(250));
  EXPECT_EQ(reader->load(kind, keys[2]), std::nullopt);
  open_store(scratch)->save(kind, keys[2], payload_for(kind, keys[2]));
  EXPECT_EQ(reader->load(kind, keys[2]), payload_for(kind, keys[2]));
  std::uint64_t expected_hits = 3;

#ifndef ASIPFB_TSAN
  // Another process.
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    open_store(scratch)->save(kind, keys[3], payload_for(kind, keys[3]));
    ::_exit(0);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(reader->load(kind, keys[3]), payload_for(kind, keys[3]));
  ++expected_hits;
#endif

  EXPECT_EQ(reader->stats().hits, expected_hits);
  EXPECT_EQ(reader->stats().corrupt, 0u);
}

TEST(Store, TornTailOfADeadWriterHidesNothingElse) {
  const ScratchDir probe("torn_probe");
  const Artifact kind = Artifact::kOptimized;
  std::vector<std::string> keys;
  for (int i = 0; i < 4; ++i) {
    keys.push_back(content_hash({"torn", std::to_string(i)}));
  }
  std::string dead_segment;
  {
    const auto probe_store = open_store(probe);
    probe_store->save(kind, keys[0], payload_for(kind, keys[0]));
    probe_store->save(kind, keys[1], payload_for(kind, keys[1]));
    const std::string full = read_file(probe_store->entry_path(kind, keys[1]));
    // A writer that died halfway through its second record.
    const Span second = record_span(full, keys[1]);
    dead_segment = full.substr(0, second.begin + (second.end - second.begin) / 2);
  }

  const ScratchDir scratch("torn");
  {
    const auto live = open_store(scratch);
    live->save(kind, keys[2], payload_for(kind, keys[2]));
  }
  write_file(scratch.path() / "seg-999999999-0.log", dead_segment);

  const auto store = open_store(scratch);
  EXPECT_EQ(store->load(kind, keys[0]), payload_for(kind, keys[0]));
  EXPECT_EQ(store->load(kind, keys[1]), std::nullopt);
  EXPECT_EQ(store->load(kind, keys[2]), payload_for(kind, keys[2]));

  // Segments created after the torn one are still picked up.
  open_store(scratch)->save(kind, keys[3], payload_for(kind, keys[3]));
  EXPECT_EQ(store->load(kind, keys[3]), payload_for(kind, keys[3]));

  EXPECT_EQ(store->stats().hits, 3u);
  EXPECT_EQ(store->stats().corrupt, 0u) << "a torn tail is not corruption";
}

TEST(Store, MoreSegmentsThanOpenDescriptorsStayReadable) {
  // Every instance writes its own segment; a reader over many of them
  // keeps a bounded number open and reopens the others on a hit.
  const ScratchDir scratch("many");
  const Artifact kind = Artifact::kCoverage;
  std::vector<std::string> keys;
  for (int i = 0; i < 100; ++i) {
    keys.push_back(content_hash({"many", std::to_string(i)}));
    open_store(scratch)->save(kind, keys.back(), payload_for(kind, keys.back()));
  }
  const auto store = open_store(scratch);
  for (int round = 0; round < 2; ++round) {
    for (const std::string& key : keys) {
      EXPECT_EQ(store->load(kind, key), payload_for(kind, key));
    }
  }
  EXPECT_EQ(store->stats().hits, 2 * keys.size());
  EXPECT_EQ(store->stats().corrupt, 0u);
}

TEST(Store, AStoreUsedAcrossForkWritesOneSegmentPerProcess) {
#ifdef ASIPFB_TSAN
  GTEST_SKIP() << "fork() is not supported under ThreadSanitizer";
#else
  const ScratchDir scratch("inherited");
  const Artifact kind = Artifact::kDetection;
  std::vector<std::string> keys;
  for (int i = 0; i < 3; ++i) {
    keys.push_back(content_hash({"inherited", std::to_string(i)}));
  }
  const auto store = open_store(scratch);
  store->save(kind, keys[0], payload_for(kind, keys[0]));

  // The child saves through the Store object it inherited: its record must
  // not land in the parent's segment, where the parent's offsets would no
  // longer match the file.
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    store->save(kind, keys[1], payload_for(kind, keys[1]));
    ::_exit(store->load(kind, keys[1]) == payload_for(kind, keys[1]) ? 0 : 1);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);

  store->save(kind, keys[2], payload_for(kind, keys[2]));
  for (std::size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(store->load(kind, keys[i]), payload_for(kind, keys[i])) << i;
  }
  EXPECT_EQ(store->stats().corrupt, 0u);
  const auto fresh = open_store(scratch);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(fresh->load(kind, keys[i]), payload_for(kind, keys[i])) << i;
  }
  EXPECT_EQ(fresh->stats().corrupt, 0u);
#endif
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
      if (store->stats().corrupt != 0) rc = 2;
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
    EXPECT_EQ(store->stats().corrupt, 0u);
  }

  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0) << "child observed wrong cached bytes";

  // Both segments together hold every key, and all of it reads back.
  const auto after = open_store(scratch);
  for (const std::string& key : keys) {
    EXPECT_EQ(after->load(Artifact::kDetection, key),
              payload_for(Artifact::kDetection, key));
  }
  EXPECT_EQ(after->stats().corrupt, 0u);
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
    const pipeline::Session cold(kKernel, "warmstart", kernel_input(), store);
    EXPECT_FALSE(cold.baseline_from_disk());
    cold_prepared = serialize(cold.prepared());
    cold_detection = serialize(cold.detection(opt::OptLevel::O1));
    EXPECT_GT(cold.stats().disk_misses, 0u);
  }
  EXPECT_GT(store->stats().writes, 0u);

  const pipeline::Session warm(kKernel, "warmstart", kernel_input(), store);
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
  const pipeline::Session cold(kKernel, "fallback", kernel_input(), store);
  const std::string expected = serialize(cold.prepared());

  // Cut the segment in the middle of the baseline record: the next
  // Session must detect the damage, count it, and re-prepare from source.
  const auto path =
      store->entry_path(Artifact::kPrepared, cold.baseline_cache_key());
  ASSERT_TRUE(std::filesystem::exists(path));
  const std::string bytes = read_file(path);
  const Span baseline = record_span(bytes, cold.baseline_cache_key());
  ASSERT_LT(baseline.begin, baseline.end);
  std::filesystem::resize_file(path, (baseline.begin + baseline.end) / 2);

  const pipeline::Session recovered(kKernel, "fallback", kernel_input(), store);
  EXPECT_FALSE(recovered.baseline_from_disk());
  EXPECT_EQ(serialize(recovered.prepared()), expected);
  EXPECT_GT(store->stats().corrupt, 0u);

  // The recomputed baseline was published again and serves a fresh
  // instance.
  const auto reopened = open_store(scratch);
  EXPECT_EQ(reopened->load(Artifact::kPrepared, cold.baseline_cache_key()),
            expected);
}

TEST(SessionStore, PreparationFailuresAreNeverCached) {
  const ScratchDir scratch("errors");
  const auto store = open_store(scratch);
  EXPECT_THROW(pipeline::Session("int main() { return undefined; }", "bad",
                                 pipeline::WorkloadInput{}, store),
               std::runtime_error);
  EXPECT_TRUE(store->entries().empty())
      << "a failed preparation must not publish anything";
}

TEST(SessionPoolStore, ProvenancePartitionsPoolStats) {
  const ScratchDir scratch("provenance");
  const auto store = open_store(scratch);

  pipeline::SessionPool first(store);
  (void)first.get("kernel", kKernel, kernel_input());
  const pipeline::SessionPool::PoolStats cold = first.stats();
  EXPECT_EQ(cold.sessions, 1u);
  EXPECT_EQ(cold.computed, 1u);
  EXPECT_EQ(cold.disk_cache, 0u);

  // A new pool over the same store — the restarted process — loads the
  // same workload from disk and reports it as such, while a workload the
  // store has never seen is computed.
  pipeline::SessionPool second(store);
  const auto warm = second.get("kernel", kKernel, kernel_input());
  EXPECT_TRUE(warm->baseline_from_disk());
  const auto fresh =
      second.get("fresh", "int main() { return 3; }\n", pipeline::WorkloadInput{});
  EXPECT_FALSE(fresh->baseline_from_disk());
  const pipeline::SessionPool::PoolStats stats = second.stats();
  EXPECT_EQ(stats.sessions, 2u);
  EXPECT_EQ(stats.computed, 1u);
  EXPECT_EQ(stats.disk_cache, 1u);
  EXPECT_GT(stats.stages.disk_hits, 0u);
}

}  // namespace
}  // namespace asipfb::cache
