// Versioned binary serialization for the persistent artifact cache.
//
// Every expensive Figure-1 artifact — the profiled baseline
// (pipeline::PreparedProgram, i.e. ir::Module + exec_count profile),
// chain::DetectionResult, chain::CoverageResult, and
// asip::ExtensionProposal — round-trips through an explicit little-endian
// byte encoding.  The encoding is *total* (every field, doubles and floats
// by bit pattern) and *canonical* (a pure function of the artifact value),
// so byte equality of two encodings is exactly value equality of the two
// artifacts.  That property is what the replay-verification contract is
// built on: a cached payload is correct iff it equals the encoding of a
// fresh recomputation, byte for byte
// (tests/cache/replay_verify_test.cpp pins this over a corpus sample).
//
// Deserialization is defensive, not trusting: ByteReader bounds-checks
// every read, enum bytes are validated against their ranges, and vector
// counts are sanity-capped by the remaining payload size, so a corrupted
// or truncated payload throws CacheError instead of crashing or returning
// a silently wrong artifact.  cache::Store (store.hpp) catches that and
// degrades to a cold compute.
//
// Key derivation also lives here: baseline_key() hashes (engine version,
// workload name, source bytes, input bindings) and stage_key() extends a
// baseline key with the stage tag and the Session's normalized-options
// byte key — the same byte strings pipeline::Session already memoizes on,
// so disk keys and in-memory keys agree on what "the same computation"
// means.  docs/CACHE.md documents the format and the invalidation rules.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "asip/extension.hpp"
#include "chain/coverage.hpp"
#include "chain/detect.hpp"
#include "pipeline/driver.hpp"

namespace asipfb::cache {

/// Thrown on any malformed payload (truncation, bad enum byte, absurd
/// count).  Callers treat it as a cache miss, never as fatal.
class CacheError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Bumped whenever the byte layout below changes; part of every entry's
/// header, so an old-format file reads as a miss, not garbage.
inline constexpr std::uint32_t kFormatVersion = 1;

/// The artifact families the cache stores — one serializer per family.
enum class Artifact : std::uint8_t {
  kPrepared,   ///< pipeline::PreparedProgram (profiled baseline).
  kOptimized,  ///< ir::Module (optimized variant, profile included).
  kDetection,  ///< chain::DetectionResult.
  kCoverage,   ///< chain::CoverageResult.
  kExtension,  ///< asip::ExtensionProposal.
};
inline constexpr std::size_t kArtifactCount = 5;

/// Stable lower-case tag ("prepared", "optimized", ...); used in key
/// derivation and file names.
[[nodiscard]] std::string_view to_string(Artifact kind);

// --- Encoders (canonical: byte equality == value equality) ------------------

[[nodiscard]] std::string serialize(const ir::Module& module);
[[nodiscard]] std::string serialize(const pipeline::PreparedProgram& prepared);
[[nodiscard]] std::string serialize(const chain::DetectionResult& detection);
[[nodiscard]] std::string serialize(const chain::CoverageResult& coverage);
[[nodiscard]] std::string serialize(const asip::ExtensionProposal& proposal);

// --- Decoders (throw CacheError on any malformed payload) -------------------

[[nodiscard]] ir::Module deserialize_module(std::string_view payload);
[[nodiscard]] pipeline::PreparedProgram deserialize_prepared(
    std::string_view payload);
[[nodiscard]] chain::DetectionResult deserialize_detection(
    std::string_view payload);
[[nodiscard]] chain::CoverageResult deserialize_coverage(
    std::string_view payload);
[[nodiscard]] asip::ExtensionProposal deserialize_extension(
    std::string_view payload);

// --- Key derivation ----------------------------------------------------------

/// 128-bit content hash rendered as 32 hex characters; the cache's file
/// naming unit.  Deterministic across platforms and processes.
[[nodiscard]] std::string content_hash(
    std::initializer_list<std::string_view> parts);

/// Key of a prepared baseline: hashes the engine version, the workload
/// name (the deserialized module must carry the same name bit for bit),
/// the exact source bytes, and every input binding.  Simulator run
/// options are not part of it: a baseline is always the default profiled
/// run.
[[nodiscard]] std::string baseline_key(
    std::string_view engine_version, std::string_view name,
    std::string_view source, const std::vector<pipeline::WorkloadInput>& inputs);

/// Key of a downstream stage artifact: the baseline key (so any change to
/// source, inputs, or engine version invalidates every derived artifact)
/// plus the stage tag and the normalized-options byte key the Session
/// memoizes the artifact under.
[[nodiscard]] std::string stage_key(std::string_view baseline_key,
                                    Artifact kind,
                                    std::string_view option_key);

}  // namespace asipfb::cache
