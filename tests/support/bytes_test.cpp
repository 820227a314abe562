// The byte codec (support/bytes.hpp): little-endian layout of every
// writer primitive, the reader's rejection of malformed input with its
// exact messages, and FNV-1a against the published test vectors.
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

}  // namespace
}  // namespace asipfb::support
