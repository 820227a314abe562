// Persistent content-addressed artifact store, log-structured.
//
// One directory holds append-only segment files, `seg-<pid>-<n>.log`.
// Every Store instance appends to a segment of its own, created on its
// first save; a record is one entry for one (artifact kind, content key):
//
//   magic | u32 format version | u8 kind | engine-version string | key
//   | u64 payload length | u64 checksum: XXH64 of the payload, seeded
//   with the FNV-1a of (kind, key) | payload (cache/serialize.hpp)
//
// Entries are immutable — a key change is the only way content changes —
// which is what makes the store safe to share between threads, Store
// instances and whole processes (the design follows Bitcask: Sheehy &
// Smith, "Bitcask: A Log-Structured Hash Table for Fast Key/Value Data",
// Basho, 2010):
//
//   * Publishing a record is one write(2) to the instance's own segment,
//     opened O_APPEND, so no other writer can interleave with it.  Two
//     replicas racing on one key append the same bytes (serialization is
//     canonical), so either copy serves.  A crash mid-write leaves a torn
//     tail record, which is never indexed and never a hit.
//   * An in-memory index maps (kind, key) to (segment, offset, length).
//     It is built at open by reading the record headers of every segment,
//     and on a miss it picks up segments other instances have created or
//     grown since.  A segment whose writer is gone (its flock(2) lock is
//     free) is read to its end once and never checked again.
//   * A hit is one pread of the record, then full validation of frame,
//     key and checksum.  A complete record that fails validation is a
//     counted corrupt miss and is dropped from the index; a different
//     format or engine version is a plain miss and the record stays for
//     the engine that wrote it.  load() never throws and never returns
//     bad bytes.
//   * The size cap is segment-granular: a segment is closed once it
//     reaches an eighth of StoreOptions::max_bytes, and when the directory
//     outgrows the cap the least recently written segments are deleted
//     whole.  Eviction is best-effort and safe against concurrent
//     processes doing the same.
//
// kEngineVersion below is the single invalidation knob: it is baked into
// both the content keys (cache::baseline_key) and every record header, so
// bumping it makes every existing entry a miss.  Bump it whenever any
// stage's computed artifacts could change — compiler, optimizer, detector,
// coverage, selection, or the serialization format itself.  The record
// framing is versioned separately by kFormatVersion (serialize.hpp).
#pragma once

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "cache/serialize.hpp"

namespace asipfb::cache {

/// The engine/ABI version every key and entry header carries.  Bump this
/// one string to invalidate every cached artifact after a change to any
/// pipeline stage or to the serialization format.
inline constexpr std::string_view kEngineVersion = "asipfb-engine-pr8.1";

struct StoreOptions {
  std::filesystem::path dir;                     ///< Created if missing.
  std::uint64_t max_bytes = 256ull * 1024 * 1024;  ///< Segment eviction cap.
  bool fsync = false;  ///< fdatasync each append, fsync the directory per new segment.
  std::string engine_version = std::string(kEngineVersion);
};

/// Monotonic counters, readable while other threads use the store.
struct StoreStats {
  std::uint64_t hits = 0;       ///< load() returned a validated payload.
  std::uint64_t misses = 0;     ///< load() found nothing usable (corrupt included).
  std::uint64_t writes = 0;     ///< save() appended a record.
  std::uint64_t evictions = 0;  ///< Indexed entries removed with their segment by the size cap.
  std::uint64_t corrupt = 0;    ///< Malformed records detected (and dropped from the index).
};

/// One indexed entry (introspection for tests / tooling).
struct EntryInfo {
  Artifact kind = Artifact::kPrepared;
  std::string key;               ///< Content key (32 hex characters).
  std::uint64_t payload_bytes = 0;  ///< Length of the payload load() returns.
};

class Store {
 public:
  /// Opens (creating if needed) the cache directory and indexes the
  /// records already in it.  Throws std::runtime_error if the directory
  /// cannot be created or opened — callers wire the cache at startup and
  /// want that loud.
  explicit Store(StoreOptions options);
  ~Store();

  Store(const Store&) = delete;
  Store& operator=(const Store&) = delete;

  /// Returns the validated payload for (kind, key), or nullopt on any
  /// miss: absent entry, torn or corrupt record (dropped + counted),
  /// wrong format or engine version.  Never throws.
  [[nodiscard]] std::optional<std::string> load(Artifact kind,
                                                std::string_view key);

  /// Appends payload under (kind, key) to this instance's segment, then
  /// enforces the size cap; a no-op when the index already holds the key.
  /// Best-effort: any I/O failure is swallowed (the cache is an
  /// accelerator, not a system of record).  Never throws.
  void save(Artifact kind, std::string_view key, std::string_view payload);

  [[nodiscard]] StoreStats stats() const;

  /// Every entry in this instance's index: the records found at open or
  /// on a later miss, plus its own saves (headers only; payloads are
  /// validated by load()).
  [[nodiscard]] std::vector<EntryInfo> entries() const;

  [[nodiscard]] const std::filesystem::path& dir() const { return options_.dir; }
  [[nodiscard]] std::string_view engine_version() const {
    return options_.engine_version;
  }

  /// The segment file holding the indexed record for (kind, key), or an
  /// empty path when no record is indexed (exposed for tests and tools).
  [[nodiscard]] std::filesystem::path entry_path(Artifact kind,
                                                 std::string_view key) const;

 private:
  struct Log;  ///< Segments, index and directory handle (store.cpp).

  StoreOptions options_;
  std::unique_ptr<Log> log_;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> writes_{0};
  std::atomic<std::uint64_t> evictions_{0};
  std::atomic<std::uint64_t> corrupt_{0};
};

}  // namespace asipfb::cache
