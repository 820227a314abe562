// The byte codec: explicit little-endian encoding and FNV-1a hashing.
//
// Every value asipfb turns into bytes or hashes goes through this file —
// cache payloads and entry frames (cache/serialize.cpp, cache/store.cpp),
// Session option keys (pipeline/session.cpp), the simulator baseline
// hashes (sim/baseline_hash.hpp) and the router's key hash
// (service/router.cpp).  Encodings are independent of host byte order and
// of struct layout, so bytes written on one platform read the same on any
// other.
//
// ByteReader is defensive, not trusting: every read is bounds-checked,
// vector counts are capped by the bytes left, and enum bytes are checked
// against their range, so malformed input throws DecodeError instead of
// crashing or yielding a silently wrong value.
#pragma once

#include <bit>
#include <cstdint>
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

class ByteWriter {
 public:
  void reserve(std::size_t n) { bytes_.reserve(n); }

  void u8(std::uint8_t v) { bytes_.push_back(static_cast<char>(v)); }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) u8(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) u8(static_cast<std::uint8_t>(v >> (8 * i)));
  }
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
  std::string bytes_;
};

class ByteReader {
 public:
  explicit ByteReader(std::string_view bytes) : data_(bytes) {}

  std::uint8_t u8() {
    require(1);
    return static_cast<std::uint8_t>(data_[pos_++]);
  }
  std::uint32_t u32() {
    require(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(static_cast<std::uint8_t>(data_[pos_++]))
           << (8 * i);
    }
    return v;
  }
  std::uint64_t u64() {
    require(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(static_cast<std::uint8_t>(data_[pos_++]))
           << (8 * i);
    }
    return v;
  }
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

  std::string_view data_;
  std::size_t pos_ = 0;
};

inline constexpr std::uint64_t kFnvPrime = 1099511628211ull;

/// The standard FNV-1a 64-bit offset basis (0xcbf29ce484222325).
inline constexpr std::uint64_t kFnvOffsetBasis = 14695981039346656037ull;

/// The standard basis with its last digit dropped (0x14650fb0739d0383).
/// It is not a standard constant, but cache entry checksums, content keys
/// and the simulator baseline hashes pinned in the suite_differential test
/// were all computed with it, so it stays: changing it would move every
/// one of those values.
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

}  // namespace asipfb::support
