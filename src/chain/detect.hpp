// Chainable-sequence detection (the paper's step-4 sequence detection
// analyzer).
//
// Enumerates data-flow paths of bounded length in every region graph with
// for_each_path (region_graph.hpp), the walk coverage shares, as a
// branch-and-bound search: a partial path is abandoned when even its best
// possible extension cannot contribute a frequency above the pruning
// threshold (path weights only shrink as paths grow, so the bound is sound).
// Each surviving path of length L executing w times accounts for L*w
// operation-cycles; per-signature totals divided by the program's total
// dynamic operation count give the paper's "dynamic frequency".  The walk
// streams: each path is tallied under its SignatureIds id, so memory is
// O(signatures).  The result is ordered by (frequency, the id's pre-order
// rank), which is (frequency, Signature), and a Signature is built once
// per distinct id as it is emitted.
//
// The span overload runs over region graphs built already, so a caller
// that also runs coverage on the same module (pipeline::Session) builds
// them once; the module overload builds them and calls it.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "chain/region_graph.hpp"
#include "chain/signature.hpp"

namespace asipfb::chain {

/// detect_sequences throws std::invalid_argument unless
/// 1 <= min_length <= max_length and prune_percent is finite and >= 0.
struct DetectorOptions {
  int min_length = 2;            ///< Shortest sequence reported (paper: 2).
  int max_length = 5;            ///< Longest sequence searched (paper: 5).
  /// Branch-and-bound floor: paths whose maximum possible contribution is
  /// below this percentage of total cycles are pruned.  0 disables pruning
  /// (exhaustive enumeration).
  double prune_percent = 0.0;
  /// Restrict paths to textually adjacent operations — the "no scheduler"
  /// model of the paper's unoptimized analysis: without percolation the
  /// compiler cannot reorder code, so only already-consecutive operations
  /// can be fused into one chained instruction.  The pipeline driver sets
  /// this for optimization level O0.
  bool require_adjacency = false;
  /// Hard safety valve: the walk stops once this many paths are recorded.
  std::size_t max_occurrences = 4'000'000;
};

/// Aggregate statistics for one signature.
struct SequenceStat {
  Signature signature;
  std::uint64_t cycles = 0;          ///< Sum over occurrences of weight*length.
  std::size_t occurrences = 0;       ///< Number of distinct paths.
  double frequency = 0.0;            ///< 100 * cycles / total_cycles.
};

struct DetectionResult {
  std::vector<SequenceStat> sequences;  ///< Sorted by descending frequency.
  std::uint64_t total_cycles = 0;       ///< Denominator used.
  std::size_t regions = 0;              ///< Regions searched.
  std::size_t paths = 0;                ///< Occurrences enumerated.

  /// Frequency of one signature (0 when absent).
  [[nodiscard]] double frequency_of(const Signature& sig) const;
};

/// Runs detection over a profiled module.  `total_cycles` fixes the
/// frequency denominator (pass the unoptimized profile's total so levels are
/// comparable, as the paper does); 0 means "use this module's own total".
[[nodiscard]] DetectionResult detect_sequences(const ir::Module& module,
                                               const DetectorOptions& options = {},
                                               std::uint64_t total_cycles = 0);

/// Detection over `regions` (build_region_graphs of one module), with
/// `total_cycles` as the frequency denominator as given: 0 makes every
/// frequency 0.  Validates `options` as above.
[[nodiscard]] DetectionResult detect_sequences(std::span<const RegionGraph> regions,
                                               const DetectorOptions& options,
                                               std::uint64_t total_cycles);

}  // namespace asipfb::chain
