// The byte codec (support/bytes.hpp): little-endian layout of every
// writer primitive, the reader's rejection of malformed input with its
// exact messages, word reads at every alignment, FNV-1a and XXH64
// against the published test vectors, and XXH64 against a byte-by-byte
// reference over every tail length.
#include "support/bytes.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <initializer_list>
#include <limits>
#include <string>
#include <string_view>

namespace asipfb::support {
namespace {

enum class Color : std::uint8_t { kRed, kGreen, kBlue };

std::string bytes(std::initializer_list<int> values) {
  std::string out;
  for (const int v : values) out.push_back(static_cast<char>(v));
  return out;
}

/// XXH64 as its specification reads, every word assembled from single
/// bytes: the reference for xxh64() in the test below.
std::uint64_t reference_xxh64(const std::string& s, std::uint64_t seed) {
  const std::uint64_t p1 = 11400714785074694791ull;
  const std::uint64_t p2 = 14029467366897019727ull;
  const std::uint64_t p3 = 1609587929392839161ull;
  const std::uint64_t p4 = 9650029242287828579ull;
  const std::uint64_t p5 = 2870177450012600261ull;
  auto rotl = [](std::uint64_t x, int r) { return (x << r) | (x >> (64 - r)); };
  auto le = [&](std::size_t at, int width) {
    std::uint64_t v = 0;
    for (int i = width - 1; i >= 0; --i) {
      v = (v << 8) | static_cast<unsigned char>(s[at + static_cast<std::size_t>(i)]);
    }
    return v;
  };
  auto round = [&](std::uint64_t acc, std::uint64_t input) {
    acc += input * p2;
    acc = rotl(acc, 31);
    return acc * p1;
  };
  std::size_t at = 0;
  std::uint64_t h;
  if (s.size() >= 32) {
    std::uint64_t v[4] = {seed + p1 + p2, seed + p2, seed, seed - p1};
    while (at + 32 <= s.size()) {
      for (std::uint64_t& lane : v) {
        lane = round(lane, le(at, 8));
        at += 8;
      }
    }
    h = rotl(v[0], 1) + rotl(v[1], 7) + rotl(v[2], 12) + rotl(v[3], 18);
    for (const std::uint64_t lane : v) {
      h ^= round(0, lane);
      h = h * p1 + p4;
    }
  } else {
    h = seed + p5;
  }
  h += s.size();
  while (at + 8 <= s.size()) {
    h ^= round(0, le(at, 8));
    h = rotl(h, 27) * p1 + p4;
    at += 8;
  }
  if (at + 4 <= s.size()) {
    h ^= le(at, 4) * p1;
    h = rotl(h, 23) * p2 + p3;
    at += 4;
  }
  while (at < s.size()) {
    h ^= le(at, 1) * p5;
    h = rotl(h, 11) * p1;
    ++at;
  }
  h ^= h >> 33;
  h *= p2;
  h ^= h >> 29;
  h *= p3;
  h ^= h >> 32;
  return h;
}

template <class F>
std::string error_of(F&& read) {
  try {
    read();
  } catch (const DecodeError& e) {
    return e.what();
  }
  return "no error";
}

TEST(Bytes, WriterIsLittleEndianWhateverTheHost) {
  ByteWriter out;
  out.u8(0xab);
  out.u32(0x01020304u);
  out.u64(0x0102030405060708ull);
  out.i32(-2);
  out.f32(1.0f);   // 0x3f800000
  out.f64(-0.0);   // sign bit only
  out.boolean(true);
  out.str("hi");
  out.raw("!");
  EXPECT_EQ(std::move(out).take(),
            bytes({0xab, 4, 3, 2, 1, 8, 7, 6, 5, 4, 3, 2, 1, 0xfe, 0xff, 0xff,
                   0xff, 0, 0, 0x80, 0x3f, 0, 0, 0, 0, 0, 0, 0, 0x80, 1, 2, 0,
                   0, 0, 0, 0, 0, 0, 'h', 'i', '!'}));
}

TEST(Bytes, ReaderRoundTripsTheWriter) {
  ByteWriter out;
  out.u8(7);
  out.u32(std::numeric_limits<std::uint32_t>::max());
  out.u64(0x8000000000000001ull);
  out.i32(std::numeric_limits<std::int32_t>::min());
  out.f32(-1.5f);
  out.f64(0.1);
  out.boolean(false);
  out.str(std::string_view("a\0b", 3));
  out.u8(static_cast<std::uint8_t>(Color::kBlue));
  const std::string encoded = std::move(out).take();

  ByteReader in(encoded);
  EXPECT_EQ(in.u8(), 7u);
  EXPECT_EQ(in.u32(), std::numeric_limits<std::uint32_t>::max());
  EXPECT_EQ(in.u64(), 0x8000000000000001ull);
  EXPECT_EQ(in.i32(), std::numeric_limits<std::int32_t>::min());
  EXPECT_EQ(in.f32(), -1.5f);
  EXPECT_EQ(in.f64(), 0.1);
  EXPECT_FALSE(in.boolean());
  EXPECT_EQ(in.str(), std::string("a\0b", 3));
  EXPECT_EQ(in.enumerator(Color::kBlue, "bad color"), Color::kBlue);
  EXPECT_NO_THROW(in.expect_end());
}

TEST(Bytes, ReaderRejectsMalformedInputWithItsMessage) {
  EXPECT_EQ(error_of([] { ByteReader(bytes({1, 2, 3})).u32(); }),
            "cache payload: truncated");
  EXPECT_EQ(error_of([] {
              ByteReader(bytes({5, 0, 0, 0, 0, 0, 0, 0, 'x'})).str();
            }),
            "cache payload: truncated");
  EXPECT_EQ(error_of([] { ByteReader(bytes({2})).boolean(); }),
            "cache payload: bad bool byte");
  EXPECT_EQ(error_of([] {
              ByteReader(bytes({3})).enumerator(Color::kBlue, "bad color");
            }),
            "bad color");
  EXPECT_EQ(error_of([] { ByteReader(bytes({0})).expect_end(); }),
            "cache payload: trailing bytes");

  // Three 4-byte elements fit in the 12 bytes after the count; four do not.
  const std::string twelve_left =
      bytes({3, 0, 0, 0, 0, 0, 0, 0}) + std::string(12, '\0');
  EXPECT_EQ(ByteReader(twelve_left).count(4), 3u);
  const std::string too_many =
      bytes({4, 0, 0, 0, 0, 0, 0, 0}) + std::string(12, '\0');
  EXPECT_EQ(error_of([&] { ByteReader(too_many).count(4); }),
            "cache payload: count exceeds remaining bytes");
}

TEST(Bytes, WordsRoundTripAtEveryAlignmentAndShortReadsThrow) {
  // Preceded by 0-7 filler bytes, the words start at every offset modulo 8.
  for (std::size_t offset = 0; offset < 8; ++offset) {
    ByteWriter out;
    for (std::size_t i = 0; i < offset; ++i) out.u8(0xee);
    out.u32(0x89abcdefu);
    out.u64(0xfedcba9876543210ull);
    const std::string encoded = std::move(out).take();
    ASSERT_EQ(encoded.size(), offset + 12);
    ByteReader in(encoded);
    (void)in.raw(offset);
    EXPECT_EQ(in.u32(), 0x89abcdefu) << "offset " << offset;
    EXPECT_EQ(in.u64(), 0xfedcba9876543210ull) << "offset " << offset;
    EXPECT_NO_THROW(in.expect_end());
  }

  // Every buffer that ends inside a word throws, at every offset, and the
  // failed read consumes nothing.
  const std::string filler(16, '\x5a');
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t left = 0; left < 8; ++left) {
      const std::string_view buffer =
          std::string_view(filler).substr(0, offset + left);
      ByteReader in(buffer);
      (void)in.raw(offset);
      if (left < 4) {
        EXPECT_EQ(error_of([&] { in.u32(); }), "cache payload: truncated")
            << "u32 at " << offset << " with " << left << " left";
      }
      EXPECT_EQ(error_of([&] { in.u64(); }), "cache payload: truncated")
          << "u64 at " << offset << " with " << left << " left";
      EXPECT_EQ(in.position(), offset);
    }
  }
}

TEST(Bytes, Fnv1aMatchesPublishedVectors) {
  EXPECT_EQ(kFnvOffsetBasis, 0xcbf29ce484222325ull);
  EXPECT_EQ(Fnv1a(kFnvOffsetBasis).value(), kFnvOffsetBasis);
  EXPECT_EQ(Fnv1a(kFnvOffsetBasis).bytes("a").value(), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(Fnv1a(kFnvOffsetBasis).bytes("foobar").value(),
            0x85944171f73967e8ull);
  // Streaming: split input hashes like the whole.
  EXPECT_EQ(Fnv1a(kFnvOffsetBasis).bytes("foo").bytes("bar").value(),
            0x85944171f73967e8ull);
}

TEST(Bytes, Fnv1aShortBasisAndWordMixing) {
  EXPECT_EQ(kFnvShortBasis, 0x14650fb0739d0383ull);
  EXPECT_EQ(Fnv1a(kFnvShortBasis).bytes("a").value(), 0x44bd8ad473cd9906ull);
  // u64() mixes the eight little-endian bytes of its argument.
  EXPECT_EQ(Fnv1a(kFnvShortBasis).u64(258).value(), 0x44b603e247dbeac6ull);
  const std::string le258 = bytes({2, 1, 0, 0, 0, 0, 0, 0});
  EXPECT_EQ(Fnv1a(kFnvShortBasis).u64(258).value(),
            Fnv1a(kFnvShortBasis).bytes(le258).value());
}

TEST(Bytes, Xxh64MatchesPublishedVectors) {
  EXPECT_EQ(xxh64("", 0), 0xef46db3751d8e999ull);
  EXPECT_EQ(xxh64("a", 0), 0xd24ec4f1a98c6e5bull);
  EXPECT_EQ(xxh64("abc", 0), 0x44bc2cf5ad770999ull);
}

TEST(Bytes, Xxh64MatchesTheReferenceAtEveryLengthAndSeed) {
  // Lengths 0-100 cover inputs with and without the 32-byte lane loop and
  // every tail (8-byte words, one 4-byte word, single bytes) after it.
  std::string input;
  for (std::size_t n = 0; n <= 100; ++n) {
    for (const std::uint64_t seed :
         {0ull, 1ull, 0x14650fb0739d0383ull, ~0ull}) {
      EXPECT_EQ(xxh64(input, seed), reference_xxh64(input, seed))
          << "length " << n << " seed " << seed;
    }
    input.push_back(static_cast<char>(n * 37 + 0x81));
  }
  // Every byte counts: one flipped bit changes the hash.
  const std::string base(100, 'q');
  for (std::size_t i = 0; i < base.size(); ++i) {
    std::string flipped = base;
    flipped[i] = static_cast<char>(flipped[i] ^ 1);
    EXPECT_NE(xxh64(flipped, 0), xxh64(base, 0)) << "byte " << i;
  }
}

}  // namespace
}  // namespace asipfb::support
