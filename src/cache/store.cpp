#include "cache/store.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <fstream>
#include <system_error>

#include "support/bytes.hpp"

namespace asipfb::cache {

namespace {

// Entry framing: everything before the payload that a reader validates.
constexpr char kMagic[8] = {'A', 'S', 'F', 'B', 'C', 'A', 'C', 'H'};
constexpr std::string_view kEntrySuffix = ".art";

std::uint64_t checksum(std::string_view payload) {
  return support::Fnv1a(support::kFnvShortBasis).bytes(payload).value();
}

std::string frame_entry(Artifact kind, std::string_view engine_version,
                        std::string_view payload) {
  support::ByteWriter out;
  out.reserve(sizeof(kMagic) + 4 + 1 + 8 + engine_version.size() + 16 +
              payload.size());
  out.raw(std::string_view(kMagic, sizeof(kMagic)));
  out.u32(kFormatVersion);
  out.u8(static_cast<std::uint8_t>(kind));
  out.str(engine_version);
  out.u64(payload.size());
  out.u64(checksum(payload));
  out.raw(payload);
  return std::move(out).take();
}

// Validation failures mean bytes we wrote got damaged; plain absence or
// a different format or engine version is the expected shape of a cold
// cache.
enum class Outcome { kHit, kMiss, kCorrupt };

/// Checks one entry file's frame and points `payload` at its body on a
/// hit.  A frame cut short throws support::DecodeError (corrupt).
Outcome unframe(std::string_view file, Artifact kind,
                std::string_view engine_version, std::string_view& payload) {
  support::ByteReader in(file);
  if (in.raw(sizeof(kMagic)) != std::string_view(kMagic, sizeof(kMagic))) {
    return Outcome::kCorrupt;
  }
  const std::uint32_t version = in.u32();
  const std::uint8_t file_kind = in.u8();
  if (version != kFormatVersion) return Outcome::kMiss;  // Old format.
  if (file_kind != static_cast<std::uint8_t>(kind)) return Outcome::kCorrupt;
  if (in.raw(in.u64()) != engine_version) return Outcome::kMiss;
  const std::uint64_t length = in.u64();
  const std::uint64_t sum = in.u64();
  payload = in.raw(length);
  in.expect_end();
  return checksum(payload) == sum ? Outcome::kHit : Outcome::kCorrupt;
}

/// Whole-file read; nullopt on any I/O error (treated as a miss upstream).
std::optional<std::string> read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  if (!in.good() && !in.eof()) return std::nullopt;
  return bytes;
}

bool key_is_wellformed(std::string_view key) {
  if (key.size() != 32) return false;
  return std::all_of(key.begin(), key.end(), [](char c) {
    return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f');
  });
}

std::atomic<std::uint64_t> g_temp_seq{0};

}  // namespace

Store::Store(StoreOptions options) : options_(std::move(options)) {
  std::error_code ec;
  std::filesystem::create_directories(options_.dir, ec);
  if (ec || !std::filesystem::is_directory(options_.dir)) {
    throw std::runtime_error("cache::Store: cannot create directory '" +
                             options_.dir.string() + "': " + ec.message());
  }
  std::uint64_t total = 0;
  for (const auto& entry : std::filesystem::directory_iterator(options_.dir, ec)) {
    std::error_code size_ec;
    const auto size = entry.file_size(size_ec);
    if (!size_ec) total += size;
  }
  approx_bytes_.store(total, std::memory_order_relaxed);
}

std::filesystem::path Store::entry_path(Artifact kind,
                                        std::string_view key) const {
  std::string name;
  name.reserve(to_string(kind).size() + 1 + key.size() + kEntrySuffix.size());
  name.append(to_string(kind));
  name.push_back('-');
  name.append(key);
  name.append(kEntrySuffix);
  return options_.dir / name;
}

std::optional<std::string> Store::load(Artifact kind, std::string_view key) {
  const std::filesystem::path path = entry_path(kind, key);

  Outcome outcome = Outcome::kMiss;
  std::optional<std::string> payload;
  try {
    if (const std::optional<std::string> bytes = read_file(path)) {
      std::string_view body;
      outcome = unframe(*bytes, kind, options_.engine_version, body);
      if (outcome == Outcome::kHit) payload.emplace(body);
    }
  } catch (...) {
    outcome = Outcome::kCorrupt;
    payload.reset();
  }

  std::error_code ec;
  switch (outcome) {
    case Outcome::kHit:
      hits_.fetch_add(1, std::memory_order_relaxed);
      // LRU touch; best-effort (another process may have evicted it).
      std::filesystem::last_write_time(
          path, std::filesystem::file_time_type::clock::now(), ec);
      break;
    case Outcome::kCorrupt:
      corrupt_.fetch_add(1, std::memory_order_relaxed);
      std::filesystem::remove(path, ec);
      misses_.fetch_add(1, std::memory_order_relaxed);
      break;
    case Outcome::kMiss:
      misses_.fetch_add(1, std::memory_order_relaxed);
      break;
  }
  return payload;
}

void Store::save(Artifact kind, std::string_view key, std::string_view payload) {
  try {
    const std::string framed = frame_entry(kind, options_.engine_version, payload);
    const std::filesystem::path final_path = entry_path(kind, key);

    // Temp name unique across processes (pid) and threads (global seq);
    // same directory as the entry so rename() cannot cross filesystems.
    std::string temp_name = ".tmp-";
    temp_name += std::to_string(::getpid());
    temp_name += '-';
    temp_name += std::to_string(g_temp_seq.fetch_add(1, std::memory_order_relaxed));
    const std::filesystem::path temp_path = options_.dir / temp_name;

    const int fd = ::open(temp_path.c_str(), O_WRONLY | O_CREAT | O_EXCL, 0644);
    if (fd < 0) return;
    bool ok = true;
    std::size_t written = 0;
    while (written < framed.size()) {
      const ssize_t n =
          ::write(fd, framed.data() + written, framed.size() - written);
      if (n <= 0) {
        ok = false;
        break;
      }
      written += static_cast<std::size_t>(n);
    }
    if (ok && options_.fsync && ::fsync(fd) != 0) ok = false;
    ::close(fd);

    std::error_code ec;
    if (ok) {
      std::filesystem::rename(temp_path, final_path, ec);
      ok = !ec;
    }
    if (!ok) {
      std::filesystem::remove(temp_path, ec);
      return;
    }
    if (options_.fsync) {
      // Make the rename itself durable: fsync the directory.
      const int dir_fd = ::open(options_.dir.c_str(), O_RDONLY | O_DIRECTORY);
      if (dir_fd >= 0) {
        ::fsync(dir_fd);
        ::close(dir_fd);
      }
    }

    writes_.fetch_add(1, std::memory_order_relaxed);
    approx_bytes_.fetch_add(framed.size(), std::memory_order_relaxed);
    if (approx_bytes_.load(std::memory_order_relaxed) > options_.max_bytes) {
      evict_if_over_cap();
    }
  } catch (...) {
    // Best-effort by contract: a failed save is just a future cold compute.
  }
}

void Store::evict_if_over_cap() {
  std::lock_guard<std::mutex> lock(evict_mutex_);
  try {
    struct OnDisk {
      std::filesystem::path path;
      std::filesystem::file_time_type mtime;
      std::uint64_t size = 0;
    };
    std::vector<OnDisk> files;
    std::uint64_t total = 0;
    std::error_code ec;
    for (const auto& entry :
         std::filesystem::directory_iterator(options_.dir, ec)) {
      if (entry.path().filename().string().ends_with(kEntrySuffix)) {
        std::error_code item_ec;
        const auto size = entry.file_size(item_ec);
        const auto mtime = entry.last_write_time(item_ec);
        if (item_ec) continue;  // Concurrently evicted by another process.
        files.push_back({entry.path(), mtime, size});
        total += size;
      }
    }
    // Rescan is the source of truth; the approx counter drifts when other
    // processes share the directory.
    approx_bytes_.store(total, std::memory_order_relaxed);
    if (total <= options_.max_bytes) return;

    std::sort(files.begin(), files.end(),
              [](const OnDisk& a, const OnDisk& b) { return a.mtime < b.mtime; });
    for (const OnDisk& victim : files) {
      if (total <= options_.max_bytes) break;
      std::error_code rm_ec;
      if (std::filesystem::remove(victim.path, rm_ec) && !rm_ec) {
        total -= victim.size;
        approx_bytes_.fetch_sub(victim.size, std::memory_order_relaxed);
        evictions_.fetch_add(1, std::memory_order_relaxed);
      }
    }
  } catch (...) {
    // Eviction is best-effort; an oversized cache is not an error.
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
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(options_.dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (!name.ends_with(kEntrySuffix)) continue;
    const std::string_view stem(name.data(),
                                name.size() - kEntrySuffix.size());
    const std::size_t dash = stem.find('-');
    if (dash == std::string_view::npos) continue;
    const std::string_view tag = stem.substr(0, dash);
    const std::string_view key = stem.substr(dash + 1);
    if (!key_is_wellformed(key)) continue;
    bool matched = false;
    EntryInfo info;
    for (std::size_t k = 0; k < kArtifactCount; ++k) {
      const auto kind = static_cast<Artifact>(k);
      if (tag == to_string(kind)) {
        info.kind = kind;
        matched = true;
        break;
      }
    }
    if (!matched) continue;
    info.key = std::string(key);
    std::error_code size_ec;
    const auto size = entry.file_size(size_ec);
    if (!size_ec) info.payload_bytes = size;
    out.push_back(std::move(info));
  }
  std::sort(out.begin(), out.end(), [](const EntryInfo& a, const EntryInfo& b) {
    return a.key < b.key || (a.key == b.key && a.kind < b.kind);
  });
  return out;
}

}  // namespace asipfb::cache
