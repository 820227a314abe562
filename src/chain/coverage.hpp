// Iterative sequence-coverage analysis (paper section 7, Table 3).
//
// Repeatedly: find the signature with the highest aggregate frequency over
// still-uncovered operations, greedily commit a maximal set of
// NON-OVERLAPPING occurrences of it (each operation is covered by at most
// one chained instruction), and continue until no signature achieves the
// significance floor.  Total coverage is the percentage of dynamic
// operation-cycles covered by the selected chained instructions.
//
// One coverage_analysis call walks the paths once, with the for_each_path
// detection uses, and stores the occurrences flat, grouped by signature
// id.  Covering an operation only removes paths, so round k's paths are
// the walked ones with no covered operation, in the same order: each
// commit retires the occurrences through the operations it covered, and
// each round ranks the groups by their live aggregate and realizes the
// top candidates from them, with no further walk.  Memory is O(paths).
//
// The groups are ordered by their ids' pre-order rank in the SignatureIds
// trie, which is Signature order (it breaks ties between equal
// aggregates), and a group's Signature is built only when a round commits
// it.  Members are placed by a counting sort on group, which keeps walk
// order, and a group is stable-sorted by weight only when the walk did not
// already yield it in weight order.
//
// The span overload runs over region graphs built already, so a caller
// that also runs detection on the same module (pipeline::Session) builds
// them once; the module overload builds them and calls it.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "chain/detect.hpp"

namespace asipfb::chain {

/// coverage_analysis throws std::invalid_argument unless
/// 1 <= min_length <= max_length, floor_percent is finite and
/// max_rounds >= 0.
struct CoverageOptions {
  int min_length = 2;
  int max_length = 5;
  double floor_percent = 4.0;  ///< Stop below this realized frequency.
  int max_rounds = 12;         ///< Maximum chained instructions selected.
  bool require_adjacency = false;  ///< See DetectorOptions::require_adjacency.
};

/// Reference to one static instruction of a module.
using OpRef = std::pair<ir::FuncId, ir::InstrId>;

/// One selected chained instruction.
struct CoverageStep {
  Signature signature;
  double frequency = 0.0;           ///< Realized (non-overlapping) frequency.
  std::uint64_t cycles = 0;         ///< Covered operation-cycles.
  std::size_t occurrences_taken = 0;
  /// The committed non-overlapping occurrences: the exact instructions each
  /// chained-instruction instance fuses (ordered producer -> consumer).
  /// Consumed by the ASIP rewriter (asip/rewrite.hpp).
  std::vector<std::vector<OpRef>> matches;
};

struct CoverageResult {
  std::vector<CoverageStep> steps;
  double total_coverage = 0.0;      ///< Sum of step frequencies.
  std::uint64_t total_cycles = 0;   ///< Denominator used.
};

/// Runs the iterative analysis.  `total_cycles` as in detect_sequences.
[[nodiscard]] CoverageResult coverage_analysis(const ir::Module& module,
                                               const CoverageOptions& options = {},
                                               std::uint64_t total_cycles = 0);

/// Coverage over `regions` (build_region_graphs of one module), with
/// `total_cycles` as the denominator as given: 0 gives no steps.
/// Validates `options` as above.
[[nodiscard]] CoverageResult coverage_analysis(std::span<const RegionGraph> regions,
                                               const CoverageOptions& options,
                                               std::uint64_t total_cycles);

}  // namespace asipfb::chain
