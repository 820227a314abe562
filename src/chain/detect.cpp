#include "chain/detect.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace asipfb::chain {

double DetectionResult::frequency_of(const Signature& sig) const {
  for (const auto& stat : sequences) {
    if (stat.signature == sig) return stat.frequency;
  }
  return 0.0;
}

DetectionResult detect_sequences(const ir::Module& module,
                                 const DetectorOptions& options,
                                 std::uint64_t total_cycles) {
  if (options.min_length < 1 || options.max_length < options.min_length) {
    throw std::invalid_argument("detect: want 1 <= min_length <= max_length");
  }
  if (!std::isfinite(options.prune_percent) || options.prune_percent < 0.0) {
    throw std::invalid_argument("detect: prune_percent must be finite and >= 0");
  }
  DetectionResult result;
  result.total_cycles = total_cycles != 0 ? total_cycles : module.total_dynamic_ops();

  const auto regions = build_region_graphs(module);
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

  SignatureIds ids;
  std::vector<SequenceStat> stats;  // Indexed by signature id.
  for (const auto& region : regions) {
    if (result.paths >= options.max_occurrences) break;
    for_each_path(region, bounds,
                  [&](const std::vector<std::size_t>& path, std::uint64_t weight) {
                    const std::uint32_t id = ids.id_of(region, path);
                    if (id >= stats.size()) stats.resize(ids.size());
                    stats[id].cycles += weight * path.size();
                    ++stats[id].occurrences;
                    return ++result.paths < options.max_occurrences;
                  });
  }

  for (std::uint32_t id = 0; id < stats.size(); ++id) {
    SequenceStat& stat = stats[id];
    if (stat.occurrences == 0) continue;
    stat.signature = ids.signature(id);
    stat.frequency = result.total_cycles == 0
                         ? 0.0
                         : 100.0 * static_cast<double>(stat.cycles) /
                               static_cast<double>(result.total_cycles);
    result.sequences.push_back(std::move(stat));
  }
  std::sort(result.sequences.begin(), result.sequences.end(),
            [](const SequenceStat& a, const SequenceStat& b) {
              if (a.frequency != b.frequency) return a.frequency > b.frequency;
              return a.signature < b.signature;
            });
  return result;
}

}  // namespace asipfb::chain
