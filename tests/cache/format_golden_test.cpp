// Persisted-format pin: every value the artifact cache derives from bytes
// — content keys, the entries (kind, key, payload bytes) a Figure-1 trip
// writes into a Store, and the bytes of one whole record — checked against
// recorded goldens.
//
// A cache directory written by one build must keep serving the next, so
// none of these values may change without a kFormatVersion /
// kEngineVersion bump.  A failure
// prints the replacement table ready to paste; paste it only for an
// intentional format change.
//
// The FNV-1a here is the test's own, kept independent of the code under
// test.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <system_error>
#include <utility>
#include <vector>

#include "cache/serialize.hpp"
#include "cache/store.hpp"
#include "pipeline/session.hpp"
#include "workloads/suite.hpp"

namespace asipfb::cache {
namespace {

using Pinned = std::vector<std::pair<std::string, std::string>>;

/// FNV-1a 64-bit (standard offset basis) over `bytes`.
std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

void expect_pinned(const Pinned& actual, const Pinned& golden) {
  std::string replacement;
  for (const auto& [name, value] : actual) {
    replacement += "      {\"" + name + "\",\n       \"" + value + "\"},\n";
  }
  EXPECT_EQ(actual, golden) << "persisted format moved; the new table is:\n"
                            << replacement;
}

/// Input bindings with the byte patterns a float codec can get wrong:
/// signed zero, a NaN payload, a denormal, and negative integers.
pipeline::WorkloadInput tricky_input() {
  pipeline::WorkloadInput input;
  input.add("xs", std::vector<float>{0.0f, -0.0f, 1.5f,
                                     std::bit_cast<float>(0x7fc00123u),
                                     std::bit_cast<float>(0x00000001u)});
  input.add("ns", std::vector<std::int32_t>{-1, 0, 0x12345678, INT32_MIN});
  input.add("empty", std::vector<std::int32_t>{});
  return input;
}

TEST(FormatGolden, ContentKeysArePinned) {
  const wl::Workload& fir = wl::workload("fir");
  const std::string base = baseline_key(kEngineVersion, fir.name, fir.source,
                                        {fir.input});
  const std::string tricky = baseline_key(
      "engine-x", "tricky", "int main() { return 0; }",
      {tricky_input(), pipeline::WorkloadInput{}});

  Pinned actual = {
      {"content_hash()", content_hash({})},
      {"content_hash(empty)", content_hash({""})},
      {"content_hash(ab,c)", content_hash({"ab", "c"})},
      {"content_hash(a,bc)", content_hash({"a", "bc"})},
      {"content_hash(binary)",
       content_hash({std::string_view("\x00\xff\x80\x7f", 4), "tail"})},
      {"baseline_key(fir)", base},
      {"baseline_key(tricky)", tricky},
      {"baseline_key(no inputs)", baseline_key("e", "n", "s", {})},
  };
  for (std::size_t k = 0; k < kArtifactCount; ++k) {
    const auto kind = static_cast<Artifact>(k);
    actual.emplace_back("stage_key(fir," + std::string(to_string(kind)) + ")",
                        stage_key(base, kind, std::string_view("\x01\x00\x02", 3)));
  }

  expect_pinned(actual, {
      {"content_hash()",
       "14650fb0739d03839e3779b97f4a7c15"},
      {"content_hash(empty)",
       "47fe0d7eaf8e51e35411bed49a1310b5"},
      {"content_hash(ab,c)",
       "ca4781f3f499cd167db1b069354ebd00"},
      {"content_hash(a,bc)",
       "aeb55c4814d4b1d6bc2564619e2f6648"},
      {"content_hash(binary)",
       "27734accafa3ac21987ad91e15b32383"},
      {"baseline_key(fir)",
       "c4b49420806767bf77e262188caf7765"},
      {"baseline_key(tricky)",
       "366644b0b0a1ec2954d43d2fa4e9af9f"},
      {"baseline_key(no inputs)",
       "c899dbbe1fd6e92fd261dff08bb2b66d"},
      {"stage_key(fir,prepared)",
       "0e0348c29fa32365ed2e86fac1743057"},
      {"stage_key(fir,optimized)",
       "2a7dff81dd43a28ed2b1b384bd1bb734"},
      {"stage_key(fir,detection)",
       "efef4b85e2f28d5c46f8aa2a7b4cb90e"},
      {"stage_key(fir,coverage)",
       "bb9c3b964a63941478c062ca01b5bdca"},
      {"stage_key(fir,extension)",
       "f344971a939bb22a1989454c66955a10"},
  });
}

TEST(FormatGolden, SessionTripFilesArePinned) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) /
      ("asipfb_format_golden_" + std::to_string(::getpid()));
  std::error_code discard;
  std::filesystem::remove_all(dir, discard);

  {
    StoreOptions options;
    options.dir = dir;
    const auto store = std::make_shared<Store>(std::move(options));
    const wl::Workload& fir = wl::workload("fir");
    const pipeline::Session s(fir.source, fir.name, fir.input, store);
    (void)s.prepared();
    for (const opt::OptLevel level :
         {opt::OptLevel::O0, opt::OptLevel::O1, opt::OptLevel::O2}) {
      (void)s.optimized(level);
      (void)s.detection(level);
      (void)s.coverage(level);
      (void)s.extension(level);
    }
    EXPECT_EQ(store->stats().writes, 13u);
  }
  // All 13 records went into the one segment the Store opened.
  std::vector<std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    files.push_back(entry.path().filename().string());
  }
  ASSERT_EQ(files.size(), 1u);
  EXPECT_TRUE(files[0].starts_with("seg-") && files[0].ends_with(".log")) << files[0];

  Pinned actual;
  {
    StoreOptions options;
    options.dir = dir;
    Store store(std::move(options));
    for (const EntryInfo& entry : store.entries()) {
      const std::optional<std::string> payload = store.load(entry.kind, entry.key);
      ASSERT_TRUE(payload.has_value()) << entry.key;
      actual.emplace_back(std::string(to_string(entry.kind)) + "-" + entry.key,
                          hex(fnv1a(*payload)) + " " + std::to_string(payload->size()));
    }

    // One whole record: magic, format version, kind, engine string, key,
    // payload length, checksum, payload.  Found by searching its segment
    // for its key.
    const std::string key = baseline_key(kEngineVersion, "fir",
                                         wl::workload("fir").source,
                                         {wl::workload("fir").input});
    const std::filesystem::path segment = store.entry_path(Artifact::kPrepared, key);
    std::ifstream in(segment, std::ios::binary);
    const std::string bytes{std::istreambuf_iterator<char>(in),
                            std::istreambuf_iterator<char>()};
    const std::size_t key_at = bytes.find(key);
    ASSERT_NE(key_at, std::string::npos);
    const std::size_t begin = key_at - (8 + 4 + 1 + 8 + kEngineVersion.size() + 8);
    const std::size_t length = (key_at - begin) + key.size() + 8 + 8 +
                               store.load(Artifact::kPrepared, key)->size();
    const std::string record = bytes.substr(begin, length);
    actual.emplace_back("record(prepared-" + key + ")",
                        hex(fnv1a(record)) + " " + std::to_string(record.size()));
    EXPECT_EQ(store.stats().corrupt, 0u);
  }
  std::sort(actual.begin(), actual.end());
  std::filesystem::remove_all(dir, discard);

  expect_pinned(actual, {
      {"coverage-22ab71f02f98e18392c8d1350305bd89",
       "3797ae826cf53a87 204"},
      {"coverage-6757c97f2f6a94419c93c618da2fece3",
       "5002ad00e0379446 390"},
      {"coverage-a8429a42e10392fb185ff987b4706f01",
       "b8e8aca6d296bc03 504"},
      {"detection-7896a423fdd946fda1be69eeeff51e0f",
       "62d2bad1a64e2b77 690"},
      {"detection-b2c48553e3fc5a4b17e1d6aa0325bc89",
       "ee760d9764cf5464 377"},
      {"detection-b3048660c8edb8f5ea9e7c0e4d687de7",
       "54f6efe2aa91846c 343"},
      {"extension-a4fa1526a7da719be69ce0c6cde6ab85",
       "e02f6c6bef1af4a8 298"},
      {"extension-a9ea9cdd1829ff41671d98bc8bbe6e67",
       "3225fc689442291b 384"},
      {"extension-b6d05e80d1d94d69ee6d5ae81c646faf",
       "3556af635da6d2aa 212"},
      {"optimized-892c3816e4b53ede6c165b3c95dd6a9c",
       "0f32371ae3537796 3523"},
      {"optimized-abd6fc388303da17a51f10724fe86e55",
       "65e55e91cf6e3205 5078"},
      {"optimized-c8202c094cd0369103f470d679b74613",
       "5132bfebf79e9f3b 6035"},
      {"prepared-c4b49420806767bf77e262188caf7765",
       "9a948520d9eb551a 3567"},
      {"record(prepared-c4b49420806767bf77e262188caf7765)",
       "843155953d3ce011 3663"},
  });
}

}  // namespace
}  // namespace asipfb::cache
