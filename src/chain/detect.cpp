#include "chain/detect.hpp"

#include <algorithm>

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
  DetectionResult result;
  result.total_cycles = total_cycles != 0 ? total_cycles : module.total_dynamic_ops();

  const auto regions = build_region_graphs(module);
  result.regions = regions.size();

  PathBounds bounds;
  bounds.min_length = options.min_length;
  bounds.max_length = options.max_length;
  bounds.require_adjacency = options.require_adjacency;
  bounds.prune_cycles = static_cast<std::uint64_t>(
      options.prune_percent / 100.0 * static_cast<double>(result.total_cycles));

  std::map<Signature, SequenceStat> stats;
  for (const auto& region : regions) {
    if (result.paths >= options.max_occurrences) break;
    for_each_path(region, bounds, [](std::size_t) { return true; },
                  [&](const std::vector<std::size_t>& path, std::uint64_t weight) {
                    auto& stat = stats[signature_of(region, path)];
                    stat.cycles += weight * static_cast<std::uint64_t>(path.size());
                    ++stat.occurrences;
                    return ++result.paths < options.max_occurrences;
                  });
  }

  result.sequences.reserve(stats.size());
  for (auto& [sig, stat] : stats) {
    stat.signature = sig;
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
