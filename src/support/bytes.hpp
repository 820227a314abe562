// The byte codec: explicit little-endian encoding, FNV-1a and XXH64.
//
// Every value asipfb turns into bytes or hashes goes through this file —
// cache payloads and entry frames (cache/serialize.cpp, cache/store.cpp),
// Session option keys (pipeline/session.cpp) and the simulator baseline
// hashes (sim/baseline_hash.hpp).  Encodings are independent of host byte
// order and of struct layout, so bytes written on one platform read the
// same on any other.
//
// Fixed-width fields move as whole words, one copy each way, through
// to_le(), which byte-swaps only on a big-endian host, so there is one
// code path and no byte loop.  FNV-1a hashes content keys and the
// simulator baselines; XXH64, whose four lanes run at memory speed,
// checksums cache records, the one place that hashes whole payloads.
//
// ByteReader is defensive, not trusting: every read is bounds-checked,
// vector counts are capped by the bytes left, and enum bytes are checked
// against their range, so malformed input throws DecodeError instead of
// crashing or yielding a silently wrong value.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>

namespace asipfb::support {

/// Thrown by ByteReader on malformed input (truncation, bad bool or enum
/// byte, absurd count, trailing bytes).
class DecodeError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// `v` with its bytes in little-endian order: `v` itself on a
/// little-endian host, byte-swapped on a big-endian one.  Its own inverse,
/// so it both prepares a word for memcpy out and reads one memcpy'd in.
constexpr std::uint32_t to_le(std::uint32_t v) {
  if constexpr (std::endian::native == std::endian::big) return __builtin_bswap32(v);
  return v;
}
constexpr std::uint64_t to_le(std::uint64_t v) {
  if constexpr (std::endian::native == std::endian::big) return __builtin_bswap64(v);
  return v;
}

class ByteWriter {
 public:
  void reserve(std::size_t n) { bytes_.reserve(n); }

  void u8(std::uint8_t v) { bytes_.push_back(static_cast<char>(v)); }
  void u32(std::uint32_t v) { word(v); }
  void u64(std::uint64_t v) { word(v); }
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void f32(float v) { u32(std::bit_cast<std::uint32_t>(v)); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void boolean(bool v) { u8(v ? 1 : 0); }
  /// Length-prefixed: u64 size, then the bytes.
  void str(std::string_view s) {
    u64(s.size());
    raw(s);
  }
  /// The bytes as they are, with no length prefix.
  void raw(std::string_view s) { bytes_.append(s.data(), s.size()); }

  [[nodiscard]] std::string take() && { return std::move(bytes_); }

 private:
  template <class Word>
  void word(Word v) {
    const Word le = to_le(v);
    bytes_.append(reinterpret_cast<const char*>(&le), sizeof le);
  }

  std::string bytes_;
};

class ByteReader {
 public:
  explicit ByteReader(std::string_view bytes) : data_(bytes) {}

  std::uint8_t u8() {
    require(1);
    return static_cast<std::uint8_t>(data_[pos_++]);
  }
  std::uint32_t u32() { return word<std::uint32_t>(); }
  std::uint64_t u64() { return word<std::uint64_t>(); }
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  float f32() { return std::bit_cast<float>(u32()); }
  double f64() { return std::bit_cast<double>(u64()); }
  bool boolean() {
    const std::uint8_t v = u8();
    if (v > 1) throw DecodeError("cache payload: bad bool byte");
    return v != 0;
  }
  std::string str() { return std::string(raw(u64())); }
  /// The next `n` bytes, viewed in place.
  std::string_view raw(std::uint64_t n) {
    require(n);
    const std::string_view s = data_.substr(pos_, static_cast<std::size_t>(n));
    pos_ += s.size();
    return s;
  }

  /// One byte holding an enumerator of E; bytes above `last` throw `what`.
  template <class E>
  E enumerator(E last, const char* what) {
    const std::uint8_t v = u8();
    if (v > static_cast<std::uint8_t>(last)) throw DecodeError(what);
    return static_cast<E>(v);
  }

  /// Element count of a vector whose elements occupy at least
  /// `min_elem_bytes` each: a corrupted count can never allocate more
  /// than the remaining bytes could possibly hold.
  std::size_t count(std::size_t min_elem_bytes) {
    const std::uint64_t n = u64();
    const std::size_t remaining = data_.size() - pos_;
    if (min_elem_bytes == 0) min_elem_bytes = 1;
    if (n > remaining / min_elem_bytes) {
      throw DecodeError("cache payload: count exceeds remaining bytes");
    }
    return static_cast<std::size_t>(n);
  }

  /// Bytes read so far.
  [[nodiscard]] std::size_t position() const { return pos_; }

  void expect_end() const {
    if (pos_ != data_.size()) {
      throw DecodeError("cache payload: trailing bytes");
    }
  }

 private:
  void require(std::uint64_t n) const {
    if (n > data_.size() - pos_) {
      throw DecodeError("cache payload: truncated");
    }
  }

  /// One bounds check, then the little-endian word at any alignment.
  template <class Word>
  Word word() {
    require(sizeof(Word));
    Word v = 0;
    std::memcpy(&v, data_.data() + pos_, sizeof v);
    pos_ += sizeof v;
    return to_le(v);
  }

  std::string_view data_;
  std::size_t pos_ = 0;
};

inline constexpr std::uint64_t kFnvPrime = 1099511628211ull;

/// The standard FNV-1a 64-bit offset basis (0xcbf29ce484222325).
inline constexpr std::uint64_t kFnvOffsetBasis = 14695981039346656037ull;

/// The standard basis with its last digit dropped (0x14650fb0739d0383).
/// It is not a standard constant, but content keys, the seeds of cache
/// record checksums and the simulator baseline hashes pinned in the
/// suite_differential test are all computed with it, so it stays:
/// changing it would move every one of those values.
inline constexpr std::uint64_t kFnvShortBasis = 1469598103934665603ull;

/// Streaming FNV-1a 64-bit hash from a caller-chosen offset basis.
class Fnv1a {
 public:
  explicit Fnv1a(std::uint64_t basis) : h_(basis) {}

  Fnv1a& bytes(std::string_view s) {
    for (const char c : s) mix(static_cast<std::uint8_t>(c));
    return *this;
  }
  /// The eight little-endian bytes of `v`.
  Fnv1a& u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) mix(static_cast<std::uint8_t>(v >> (8 * i)));
    return *this;
  }

  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  void mix(std::uint8_t byte) {
    h_ ^= byte;
    h_ *= kFnvPrime;
  }

  std::uint64_t h_;
};

/// XXH64 (Yann Collet's xxHash, 64-bit variant) of `s` from `seed`.
/// Four independent multiply-rotate lanes consume 32 bytes per round, so
/// it runs at memory speed where FNV-1a's one multiply chain per byte
/// does not; the record checksum of the cache store uses it.  Bytes are
/// read as little-endian words on every host, so the value is portable.
inline std::uint64_t xxh64(std::string_view s, std::uint64_t seed) {
  constexpr std::uint64_t kP1 = 0x9e3779b185ebca87ull;
  constexpr std::uint64_t kP2 = 0xc2b2ae3d27d4eb4full;
  constexpr std::uint64_t kP3 = 0x165667b19e3779f9ull;
  constexpr std::uint64_t kP4 = 0x85ebca77c2b2ae63ull;
  constexpr std::uint64_t kP5 = 0x27d4eb2f165667c5ull;
  const auto load64 = [](const char* p) {
    std::uint64_t v = 0;
    std::memcpy(&v, p, sizeof v);
    return to_le(v);
  };
  const auto round = [](std::uint64_t acc, std::uint64_t input) {
    return std::rotl(acc + input * kP2, 31) * kP1;
  };
  const auto merge = [&](std::uint64_t h, std::uint64_t lane) {
    return (h ^ round(0, lane)) * kP1 + kP4;
  };

  const char* p = s.data();
  const char* const end = p + s.size();
  std::uint64_t h = 0;
  if (s.size() >= 32) {
    std::uint64_t v1 = seed + kP1 + kP2;
    std::uint64_t v2 = seed + kP2;
    std::uint64_t v3 = seed;
    std::uint64_t v4 = seed - kP1;
    for (; end - p >= 32; p += 32) {
      v1 = round(v1, load64(p));
      v2 = round(v2, load64(p + 8));
      v3 = round(v3, load64(p + 16));
      v4 = round(v4, load64(p + 24));
    }
    h = std::rotl(v1, 1) + std::rotl(v2, 7) + std::rotl(v3, 12) +
        std::rotl(v4, 18);
    h = merge(merge(merge(merge(h, v1), v2), v3), v4);
  } else {
    h = seed + kP5;
  }
  h += s.size();
  for (; end - p >= 8; p += 8) {
    h = std::rotl(h ^ round(0, load64(p)), 27) * kP1 + kP4;
  }
  if (end - p >= 4) {
    std::uint32_t word = 0;
    std::memcpy(&word, p, sizeof word);
    h = std::rotl(h ^ to_le(word) * kP1, 23) * kP2 + kP3;
    p += 4;
  }
  for (; p != end; ++p) {
    h = std::rotl(h ^ static_cast<std::uint8_t>(*p) * kP5, 11) * kP1;
  }
  h ^= h >> 33;
  h *= kP2;
  h ^= h >> 29;
  h *= kP3;
  h ^= h >> 32;
  return h;
}

}  // namespace asipfb::support
