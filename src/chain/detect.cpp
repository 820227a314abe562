#include "chain/detect.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace asipfb::chain {

namespace {

void check(const DetectorOptions& options) {
  if (options.min_length < 1 || options.max_length < options.min_length) {
    throw std::invalid_argument("detect: want 1 <= min_length <= max_length");
  }
  if (!std::isfinite(options.prune_percent) || options.prune_percent < 0.0) {
    throw std::invalid_argument("detect: prune_percent must be finite and >= 0");
  }
}

}  // namespace

double DetectionResult::frequency_of(const Signature& sig) const {
  for (const auto& stat : sequences) {
    if (stat.signature == sig) return stat.frequency;
  }
  return 0.0;
}

DetectionResult detect_sequences(const ir::Module& module,
                                 const DetectorOptions& options,
                                 std::uint64_t total_cycles) {
  check(options);
  return detect_sequences(
      build_region_graphs(module), options,
      total_cycles != 0 ? total_cycles : module.total_dynamic_ops());
}

DetectionResult detect_sequences(std::span<const RegionGraph> regions,
                                 const DetectorOptions& options,
                                 std::uint64_t total_cycles) {
  check(options);
  DetectionResult result;
  result.total_cycles = total_cycles;
  result.regions = regions.size();

  PathBounds bounds;
  bounds.min_length = options.min_length;
  bounds.max_length = options.max_length;
  bounds.require_adjacency = options.require_adjacency;
  // Saturate: a floor past 2^64 cycles prunes every path.
  const double prune = options.prune_percent / 100.0 *
                       static_cast<double>(result.total_cycles);
  bounds.prune_cycles =
      prune >= 0x1p64 ? UINT64_MAX : static_cast<std::uint64_t>(prune);

  struct Tally {
    std::uint64_t cycles = 0;
    std::size_t occurrences = 0;
  };
  SignatureIds ids;
  std::vector<Tally> tallies;  // Indexed by signature id.
  for (const auto& region : regions) {
    if (result.paths >= options.max_occurrences) break;
    for_each_path(region, bounds,
                  [&](const std::vector<std::size_t>& path, std::uint64_t weight) {
                    const std::uint32_t id = ids.id_of(region, path);
                    if (id >= tallies.size()) tallies.resize(ids.size());
                    tallies[id].cycles += weight * path.size();
                    ++tallies[id].occurrences;
                    return ++result.paths < options.max_occurrences;
                  });
  }

  // Descending frequency; ties in Signature order, by trie rank.
  struct Found {
    double frequency;
    std::uint32_t rank;
    std::uint32_t id;
  };
  const std::vector<std::uint32_t> rank = ids.preorder_ranks();
  std::vector<Found> found;
  for (std::uint32_t id = 0; id < tallies.size(); ++id) {
    if (tallies[id].occurrences == 0) continue;
    const double frequency =
        result.total_cycles == 0
            ? 0.0
            : 100.0 * static_cast<double>(tallies[id].cycles) /
                  static_cast<double>(result.total_cycles);
    found.push_back({frequency, rank[id], id});
  }
  std::sort(found.begin(), found.end(), [](const Found& a, const Found& b) {
    if (a.frequency != b.frequency) return a.frequency > b.frequency;
    return a.rank < b.rank;
  });
  result.sequences.reserve(found.size());
  for (const Found& f : found) {
    result.sequences.push_back({ids.signature(f.id), tallies[f.id].cycles,
                                tallies[f.id].occurrences, f.frequency});
  }
  return result;
}

}  // namespace asipfb::chain
