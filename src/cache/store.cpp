#include "cache/store.hpp"

#include <dirent.h>
#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <ctime>
#include <functional>
#include <map>
#include <mutex>
#include <stdexcept>
#include <unordered_map>

#include "support/bytes.hpp"

namespace asipfb::cache {

namespace {

constexpr char kMagic[8] = {'A', 'S', 'F', 'B', 'C', 'A', 'C', 'H'};
constexpr std::string_view kSegmentPrefix = "seg-";
constexpr std::string_view kSegmentSuffix = ".log";

/// A segment takes no more appends once it reaches max_bytes / this, so
/// eviction always has whole segments to drop.
constexpr std::uint64_t kSegmentsPerCap = 8;

/// Segments are indexed by reading them in chunks of this size; a record
/// header longer than a chunk is corrupt.
constexpr std::size_t kChunkBytes = 64 * 1024;

/// Descriptors kept open for finished segments; beyond this the least
/// recently read are closed and reopened on their next hit.
constexpr std::size_t kMaxOpenFiles = 64;

/// A directory listing is trusted once the directory's mtime is this much
/// older than the listing.  File-system timestamps come from a coarse
/// clock, so a segment created in the same tick as the listing would not
/// move the mtime the next miss compares against.
constexpr std::int64_t kSettleNs = 100'000'000;

/// XXH64 of the payload, seeded with the FNV-1a of the kind byte and the
/// key, so it covers all three while only the short header bytes go
/// through FNV's byte-serial multiply chain.
std::uint64_t checksum(std::uint8_t kind, std::string_view key,
                       std::string_view payload) {
  const char kind_byte = static_cast<char>(kind);
  const std::uint64_t seed = support::Fnv1a(support::kFnvShortBasis)
                                 .bytes(std::string_view(&kind_byte, 1))
                                 .bytes(key)
                                 .value();
  return support::xxh64(payload, seed);
}

std::string frame_record(Artifact kind, std::string_view engine_version,
                         std::string_view key, std::string_view payload) {
  const auto kind_byte = static_cast<std::uint8_t>(kind);
  support::ByteWriter out;
  out.reserve(sizeof(kMagic) + 4 + 1 + 8 + engine_version.size() + 8 +
              key.size() + 16 + payload.size());
  out.raw(std::string_view(kMagic, sizeof(kMagic)));
  out.u32(kFormatVersion);
  out.u8(kind_byte);
  out.str(engine_version);
  out.str(key);
  out.u64(payload.size());
  out.u64(checksum(kind_byte, key, payload));
  out.raw(payload);
  return std::move(out).take();
}

/// Everything of a record before its payload.
struct RecordHeader {
  std::uint8_t kind = 0;
  std::string_view engine;
  std::string_view key;
  std::uint64_t payload_bytes = 0;
  std::uint64_t checksum = 0;
  std::size_t header_bytes = 0;
};

enum class Header { kOk, kOtherFormat, kBad };

/// Parses the record header at the start of `bytes`.  Throws
/// support::DecodeError when `bytes` ends inside the header.
Header read_header(std::string_view bytes, RecordHeader& header) {
  support::ByteReader in(bytes);
  if (in.raw(sizeof(kMagic)) != std::string_view(kMagic, sizeof(kMagic))) {
    return Header::kBad;
  }
  if (in.u32() != kFormatVersion) return Header::kOtherFormat;
  header.kind = in.u8();
  header.engine = in.raw(in.u64());
  header.key = in.raw(in.u64());
  header.payload_bytes = in.u64();
  header.checksum = in.u64();
  header.header_bytes = in.position();
  return Header::kOk;
}

/// Full validation of one record read back from its segment.
bool record_matches(std::string_view header_bytes, std::string_view payload,
                    Artifact kind, std::string_view key,
                    std::string_view engine_version) {
  RecordHeader header;
  try {
    if (read_header(header_bytes, header) != Header::kOk) return false;
  } catch (const support::DecodeError&) {
    return false;
  }
  return header.header_bytes == header_bytes.size() &&
         header.kind == static_cast<std::uint8_t>(kind) &&
         header.engine == engine_version && header.key == key &&
         header.payload_bytes == payload.size() &&
         header.checksum == checksum(header.kind, key, payload);
}

bool is_segment_name(std::string_view name) {
  return name.size() > kSegmentPrefix.size() + kSegmentSuffix.size() &&
         name.starts_with(kSegmentPrefix) && name.ends_with(kSegmentSuffix);
}

std::int64_t nanoseconds(const timespec& t) {
  return static_cast<std::int64_t>(t.tv_sec) * 1'000'000'000 + t.tv_nsec;
}

/// An open descriptor, closed when the last reader lets go of it.
struct File {
  explicit File(int descriptor) : fd(descriptor) {}
  ~File() { ::close(fd); }
  File(const File&) = delete;
  File& operator=(const File&) = delete;
  const int fd;
};

std::atomic<std::uint64_t> g_segment_seq{0};

}  // namespace

struct Store::Log {
  struct Segment {
    std::string name;
    std::uint64_t id = 0;  ///< Discovery order; breaks eviction mtime ties.
    std::shared_ptr<File> file;  ///< Null while closed (kMaxOpenFiles).
    ino_t inode = 0;
    std::uint64_t size = 0;     ///< Bytes counted against max_bytes.
    std::uint64_t scanned = 0;  ///< Records before this offset are indexed.
    std::uint64_t last_use = 0;
    /// Will never be read further: its writer is gone and it is read to
    /// the end, or it is our own retired segment, or it is unreadable.
    bool finished = false;
    bool listed = false;  ///< Seen by the current directory listing.
  };

  struct Location {
    Segment* segment = nullptr;
    std::uint64_t offset = 0;
    std::uint64_t header_bytes = 0;
    std::uint64_t payload_bytes = 0;
  };

  struct KeyHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view key) const noexcept {
      return std::hash<std::string_view>{}(key);
    }
  };
  using Index = std::unordered_map<std::string, Location, KeyHash, std::equal_to<>>;

  explicit Log(const StoreOptions& store_options) : options(store_options) {
    dir = ::opendir(options.dir.c_str());
    if (dir == nullptr) {
      throw std::runtime_error("cache::Store: cannot open directory '" +
                               options.dir.string() + "'");
    }
  }
  ~Log() { ::closedir(dir); }

  Log(const Log&) = delete;
  Log& operator=(const Log&) = delete;

  [[nodiscard]] int dir_fd() const { return ::dirfd(dir); }

  [[nodiscard]] const Location* find(Artifact kind, std::string_view key) const {
    const Index& kind_index = index[static_cast<std::size_t>(kind)];
    const auto it = kind_index.find(key);
    return it == kind_index.end() ? nullptr : &it->second;
  }

  /// Picks up segments created, deleted or grown by other writers since
  /// the last call.  Returns the corrupt records found.
  std::uint64_t refresh() {
    struct stat st {};
    if (::fstat(dir_fd(), &st) == 0 &&
        (!listing_settled || nanoseconds(st.st_mtim) != listed_mtime)) {
      relist();
    }
    std::uint64_t corrupt = 0;
    for (auto& [name, segment] : segments) {
      if (!segment.finished && &segment != active) corrupt += catch_up(segment);
    }
    return corrupt;
  }

  /// Re-reads the directory: new segments are registered (unread), and
  /// segments that disappeared are forgotten.
  void relist() {
    timespec now{};
    ::clock_gettime(CLOCK_REALTIME, &now);
    struct stat st {};
    if (::fstat(dir_fd(), &st) != 0) return;
    for (auto& [name, segment] : segments) segment.listed = false;
    ::rewinddir(dir);
    while (const dirent* entry = ::readdir(dir)) {
      const std::string_view name = entry->d_name;
      if (!is_segment_name(name)) continue;
      const auto [it, added] = segments.try_emplace(std::string(name));
      if (added) {
        it->second.name = it->first;
        it->second.id = next_id++;
      }
      it->second.listed = true;
    }
    for (auto it = segments.begin(); it != segments.end();) {
      if (it->second.listed) {
        ++it;
      } else {
        forget(it->second);
        it = segments.erase(it);
      }
    }
    listed_mtime = nanoseconds(st.st_mtim);
    listing_settled = nanoseconds(now) - listed_mtime >= kSettleNs;
  }

  /// Indexes what `segment` gained since it was last read.  A writer
  /// holds LOCK_EX on its segment while it may append; once that lock is
  /// free the segment is read to its end one last time.
  std::uint64_t catch_up(Segment& segment) {
    const std::shared_ptr<File> file = file_for(segment);
    if (file == nullptr) {
      segment.finished = true;
      return 0;
    }
    if (::flock(file->fd, LOCK_SH | LOCK_NB) == 0) segment.finished = true;
    struct stat st {};
    if (::fstat(file->fd, &st) != 0) return 0;
    const auto size = static_cast<std::uint64_t>(st.st_size);
    bytes = bytes - segment.size + size;
    segment.size = size;
    return size > segment.scanned ? scan(segment, *file, size) : 0;
  }

  /// Indexes the complete records of `segment` between its scanned offset
  /// and `size`, reading headers only.  A torn tail stops the scan where
  /// it starts (it may still be completed); a bad header or another
  /// format stops it for good.  Returns the corrupt records found.
  std::uint64_t scan(Segment& segment, const File& file, std::uint64_t size) {
    std::string chunk;
    std::uint64_t chunk_at = segment.scanned;
    std::uint64_t at = segment.scanned;
    std::uint64_t corrupt = 0;
    while (at < size) {
      if (at < chunk_at || at >= chunk_at + chunk.size()) {
        chunk.resize(static_cast<std::size_t>(std::min<std::uint64_t>(kChunkBytes, size - at)));
        const ssize_t n = ::pread(file.fd, chunk.data(), chunk.size(),
                                  static_cast<off_t>(at));
        if (n <= 0) break;
        chunk.resize(static_cast<std::size_t>(n));
        chunk_at = at;
      }
      RecordHeader header;
      Header parsed = Header::kBad;
      bool cut_short = false;
      try {
        parsed = read_header(std::string_view(chunk).substr(at - chunk_at), header);
      } catch (const support::DecodeError&) {
        cut_short = true;
      }
      if (cut_short) {
        if (chunk_at != at) {
          chunk.clear();  // Re-read from this record's start.
          continue;
        }
        if (chunk.size() == kChunkBytes) {
          ++corrupt;  // No real header spans a whole chunk.
          segment.finished = true;
        }
        break;  // Torn tail.
      }
      if (parsed != Header::kOk) {
        if (parsed == Header::kBad) ++corrupt;
        segment.finished = true;
        break;
      }
      if (header.payload_bytes > size - at - header.header_bytes) break;  // Torn tail.
      if (header.kind >= kArtifactCount) {
        ++corrupt;
      } else if (header.engine == options.engine_version) {
        index[header.kind].insert_or_assign(
            std::string(header.key),
            Location{&segment, at, header.header_bytes, header.payload_bytes});
      }
      at += header.header_bytes + header.payload_bytes;
    }
    segment.scanned = at;
    return corrupt;
  }

  /// The segment's open descriptor, reopening it if it was closed.  Null
  /// when the file is gone or another file has taken its name.
  std::shared_ptr<File> file_for(Segment& segment) {
    segment.last_use = ++use_clock;
    if (segment.file != nullptr) return segment.file;
    const int fd = ::openat(dir_fd(), segment.name.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) return nullptr;
    auto file = std::make_shared<File>(fd);
    struct stat st {};
    if (::fstat(fd, &st) != 0 || (segment.inode != 0 && st.st_ino != segment.inode)) {
      return nullptr;
    }
    segment.inode = st.st_ino;
    segment.file = file;
    ++open_files;
    while (open_files > kMaxOpenFiles) {
      Segment* idle = nullptr;
      for (auto& [name, other] : segments) {
        if (other.file != nullptr && other.finished &&
            (idle == nullptr || other.last_use < idle->last_use)) {
          idle = &other;
        }
      }
      if (idle == nullptr) break;
      idle->file.reset();
      --open_files;
    }
    return file;
  }

  /// This process's segment for appends, created on first use.
  Segment* active_segment() {
    const pid_t pid = ::getpid();
    if (active != nullptr && active_pid == pid) return active;
    if (active != nullptr) {
      // A fork()ed child: the parent keeps appending to the segment, so
      // it is now someone else's, and this process starts its own.
      active->file.reset();
      --open_files;
      active = nullptr;
    }
    for (int attempt = 0; attempt < 100; ++attempt) {
      std::string name(kSegmentPrefix);
      name += std::to_string(pid);
      name += '-';
      name += std::to_string(g_segment_seq.fetch_add(1, std::memory_order_relaxed));
      name += kSegmentSuffix;
      const int fd = ::openat(dir_fd(), name.c_str(),
                              O_RDWR | O_APPEND | O_CREAT | O_EXCL | O_CLOEXEC, 0644);
      if (fd < 0) {
        if (errno == EEXIST) continue;  // Left by an earlier process with our pid.
        return nullptr;
      }
      auto file = std::make_shared<File>(fd);
      struct stat st {};
      if (::flock(fd, LOCK_EX | LOCK_NB) != 0 || ::fstat(fd, &st) != 0) {
        // A reader locked it first and took it for a finished segment.
        ::unlinkat(dir_fd(), name.c_str(), 0);
        continue;
      }
      if (options.fsync) ::fsync(dir_fd());
      const auto stale = segments.find(name);
      if (stale != segments.end()) {
        forget(stale->second);
        segments.erase(stale);
      }
      Segment& segment = segments[name];
      segment.name = name;
      segment.id = next_id++;
      segment.file = std::move(file);
      segment.inode = st.st_ino;
      segment.listed = true;
      ++open_files;
      active = &segment;
      active_pid = pid;
      return active;
    }
    return nullptr;
  }

  /// Ends appends to the active segment and lets other readers finish it.
  void retire_active() {
    ::flock(active->file->fd, LOCK_UN);
    active->finished = true;
    active = nullptr;
  }

  /// Drops every index entry into `segment` and closes it; the caller
  /// erases it from `segments`.  Returns the entries dropped.
  std::uint64_t forget(Segment& segment) {
    std::uint64_t dropped = 0;
    for (Index& kind_index : index) {
      dropped += std::erase_if(kind_index, [&](const auto& entry) {
        return entry.second.segment == &segment;
      });
    }
    bytes -= segment.size;
    if (segment.file != nullptr) {
      segment.file.reset();
      --open_files;
    }
    if (active == &segment) active = nullptr;
    return dropped;
  }

  /// Deletes the least recently written segments, never the active one,
  /// until the directory fits max_bytes.  Returns the entries dropped.
  std::uint64_t evict() {
    relist();
    struct Candidate {
      Segment* segment;
      std::int64_t mtime;
    };
    std::vector<Candidate> candidates;
    bytes = 0;
    for (auto& [name, segment] : segments) {
      struct stat st {};
      segment.size = 0;
      if (::fstatat(dir_fd(), name.c_str(), &st, 0) != 0) continue;  // Deleted meanwhile.
      segment.size = static_cast<std::uint64_t>(st.st_size);
      bytes += segment.size;
      if (&segment != active) candidates.push_back({&segment, nanoseconds(st.st_mtim)});
    }
    std::sort(candidates.begin(), candidates.end(),
              [](const Candidate& a, const Candidate& b) {
                return a.mtime != b.mtime ? a.mtime < b.mtime
                                          : a.segment->id < b.segment->id;
              });
    std::uint64_t dropped = 0;
    for (const Candidate& victim : candidates) {
      if (bytes <= options.max_bytes) break;
      if (::unlinkat(dir_fd(), victim.segment->name.c_str(), 0) != 0 &&
          errno != ENOENT) {
        continue;
      }
      dropped += forget(*victim.segment);
      segments.erase(segments.find(victim.segment->name));
    }
    return dropped;
  }

  const StoreOptions& options;
  std::mutex append_mu;  ///< Serializes appends; taken before `mu`.
  std::mutex mu;         ///< Guards everything below.
  DIR* dir = nullptr;
  std::map<std::string, Segment> segments;  ///< By file name.
  std::array<Index, kArtifactCount> index;
  Segment* active = nullptr;
  pid_t active_pid = 0;
  std::uint64_t bytes = 0;  ///< Sum of the known segments' sizes.
  std::uint64_t next_id = 0;
  std::uint64_t use_clock = 0;
  std::size_t open_files = 0;
  std::int64_t listed_mtime = 0;
  bool listing_settled = false;
};

Store::Store(StoreOptions options) : options_(std::move(options)) {
  std::error_code ec;
  std::filesystem::create_directories(options_.dir, ec);
  if (ec || !std::filesystem::is_directory(options_.dir)) {
    throw std::runtime_error("cache::Store: cannot create directory '" +
                             options_.dir.string() + "': " + ec.message());
  }
  log_ = std::make_unique<Log>(options_);
  std::lock_guard<std::mutex> lock(log_->mu);
  corrupt_.fetch_add(log_->refresh(), std::memory_order_relaxed);
}

Store::~Store() = default;

std::filesystem::path Store::entry_path(Artifact kind,
                                        std::string_view key) const {
  std::lock_guard<std::mutex> lock(log_->mu);
  const Log::Location* found = log_->find(kind, key);
  return found == nullptr ? std::filesystem::path()
                          : options_.dir / found->segment->name;
}

std::optional<std::string> Store::load(Artifact kind, std::string_view key) {
  Log& log = *log_;
  try {
    Log::Location at;
    std::shared_ptr<File> file;
    {
      std::lock_guard<std::mutex> lock(log.mu);
      const Log::Location* found = log.find(kind, key);
      if (found == nullptr) {
        corrupt_.fetch_add(log.refresh(), std::memory_order_relaxed);
        found = log.find(kind, key);
      }
      if (found != nullptr) {
        at = *found;
        file = log.file_for(*at.segment);
      }
    }
    if (file == nullptr) {
      misses_.fetch_add(1, std::memory_order_relaxed);
      return std::nullopt;
    }

    std::string header(at.header_bytes, '\0');
    std::string payload(at.payload_bytes, '\0');
    iovec parts[2] = {{header.data(), header.size()},
                      {payload.data(), payload.size()}};
    const ssize_t n = ::preadv(file->fd, parts, 2, static_cast<off_t>(at.offset));
    if (n == static_cast<ssize_t>(header.size() + payload.size()) &&
        record_matches(header, payload, kind, key, options_.engine_version)) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      return payload;
    }

    {
      std::lock_guard<std::mutex> lock(log.mu);
      Log::Index& kind_index = log.index[static_cast<std::size_t>(kind)];
      const auto it = kind_index.find(key);
      if (it != kind_index.end() && it->second.segment == at.segment &&
          it->second.offset == at.offset) {
        kind_index.erase(it);
      }
      // Our own segment changed under us: stop appending where our
      // offsets no longer match the file.
      if (at.segment == log.active) log.retire_active();
    }
    corrupt_.fetch_add(1, std::memory_order_relaxed);
  } catch (...) {
    // Out of memory or the like: a miss, like any other failure.
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  return std::nullopt;
}

void Store::save(Artifact kind, std::string_view key, std::string_view payload) {
  Log& log = *log_;
  try {
    {
      std::lock_guard<std::mutex> lock(log.mu);
      if (log.find(kind, key) != nullptr) return;
    }
    const std::string record =
        frame_record(kind, options_.engine_version, key, payload);

    std::lock_guard<std::mutex> append(log.append_mu);
    Log::Segment* segment = nullptr;
    std::shared_ptr<File> file;
    std::uint64_t offset = 0;
    {
      std::lock_guard<std::mutex> lock(log.mu);
      if (log.find(kind, key) != nullptr) return;
      segment = log.active_segment();
      if (segment == nullptr) return;
      file = segment->file;
      offset = segment->size;
    }

    // The one write(2) that publishes the record.
    ssize_t n = 0;
    do {
      n = ::write(file->fd, record.data(), record.size());
    } while (n < 0 && errno == EINTR);
    const bool ok = n == static_cast<ssize_t>(record.size()) &&
                    (!options_.fsync || ::fdatasync(file->fd) == 0);

    std::lock_guard<std::mutex> lock(log.mu);
    if (log.active != segment) return;  // Evicted by another process meanwhile.
    if (!ok) {
      log.retire_active();  // It may end in a torn record now.
      return;
    }
    segment->size += record.size();
    segment->scanned = segment->size;
    log.bytes += record.size();
    log.index[static_cast<std::size_t>(kind)].insert_or_assign(
        std::string(key),
        Log::Location{segment, offset, record.size() - payload.size(), payload.size()});
    writes_.fetch_add(1, std::memory_order_relaxed);
    if (segment->size >= std::max<std::uint64_t>(options_.max_bytes / kSegmentsPerCap, 1)) {
      log.retire_active();
    }
    if (log.bytes > options_.max_bytes) {
      evictions_.fetch_add(log.evict(), std::memory_order_relaxed);
    }
  } catch (...) {
    // Best-effort by contract: a failed save is just a future cold compute.
  }
}

StoreStats Store::stats() const {
  StoreStats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.writes = writes_.load(std::memory_order_relaxed);
  s.evictions = evictions_.load(std::memory_order_relaxed);
  s.corrupt = corrupt_.load(std::memory_order_relaxed);
  return s;
}

std::vector<EntryInfo> Store::entries() const {
  std::vector<EntryInfo> out;
  {
    std::lock_guard<std::mutex> lock(log_->mu);
    for (std::size_t k = 0; k < kArtifactCount; ++k) {
      for (const auto& [key, at] : log_->index[k]) {
        out.push_back({static_cast<Artifact>(k), key, at.payload_bytes});
      }
    }
  }
  std::sort(out.begin(), out.end(), [](const EntryInfo& a, const EntryInfo& b) {
    return a.key < b.key || (a.key == b.key && a.kind < b.kind);
  });
  return out;
}

}  // namespace asipfb::cache
