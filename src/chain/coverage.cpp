#include "chain/coverage.hpp"

#include <algorithm>
#include <map>
#include <utility>

namespace asipfb::chain {

CoverageResult coverage_analysis(const ir::Module& module,
                                 const CoverageOptions& options,
                                 std::uint64_t total_cycles) {
  CoverageResult result;
  result.total_cycles =
      total_cycles != 0 ? total_cycles : module.total_dynamic_ops();
  if (result.total_cycles == 0) return result;

  const auto regions = build_region_graphs(module);
  PathBounds bounds;
  bounds.min_length = options.min_length;
  bounds.max_length = options.max_length;
  bounds.require_adjacency = options.require_adjacency;

  // form_traces puts every block in exactly one trace, so each operation is
  // exactly one (region, node): flags at base[region] + node stand for it.
  std::vector<std::size_t> base(regions.size() + 1, 0);
  for (std::size_t r = 0; r < regions.size(); ++r) {
    base[r + 1] = base[r] + regions[r].nodes.size();
  }
  std::vector<char> covered(base.back(), 0);
  std::vector<char> taken;

  auto frequency = [&](std::uint64_t cycles) {
    return 100.0 * static_cast<double>(cycles) /
           static_cast<double>(result.total_cycles);
  };

  struct Occurrence {
    std::uint64_t weight;
    std::size_t region;
    std::vector<std::size_t> path;
  };
  struct Group {
    std::uint64_t cycles = 0;  ///< Aggregate over overlapping occurrences.
    std::vector<Occurrence> occurrences;  ///< In walk order.
  };

  for (int round = 0; round < options.max_rounds; ++round) {
    // Phase 1: one walk over the uncovered paths, grouped by signature.
    std::map<Signature, Group> groups;
    for (std::size_t r = 0; r < regions.size(); ++r) {
      const auto open = [&](std::size_t node) {
        return covered[base[r] + node] == 0;
      };
      for_each_path(regions[r], bounds, open,
                    [&](const std::vector<std::size_t>& path, std::uint64_t weight) {
                      auto& group = groups[signature_of(regions[r], path)];
                      group.cycles += weight * path.size();
                      group.occurrences.push_back({weight, r, path});
                      return true;
                    });
    }
    if (groups.empty()) break;

    // Candidates in descending aggregate order; ties keep signature order.
    std::vector<std::pair<const Signature, Group>*> candidates;
    candidates.reserve(groups.size());
    for (auto& entry : groups) candidates.push_back(&entry);
    std::stable_sort(candidates.begin(), candidates.end(),
                     [](const auto* a, const auto* b) {
                       return a->second.cycles > b->second.cycles;
                     });

    // Phase 2: realize (greedy non-overlapping matching) each of the top
    // aggregate candidates and commit the one with the highest realized
    // coverage.  Aggregate frequencies over-count overlapping paths of long
    // signatures, so ranking must use realized values.
    struct Realization {
      const Signature* signature = nullptr;
      std::vector<const Occurrence*> matches;
      std::uint64_t cycles = 0;
    };
    Realization best;
    const std::size_t candidate_limit = 16;
    for (std::size_t ci = 0; ci < candidates.size() && ci < candidate_limit; ++ci) {
      auto& [sig, group] = *candidates[ci];
      if (frequency(group.cycles) < options.floor_percent) break;
      if (group.cycles <= best.cycles) break;  // Aggregate bounds realized.

      std::stable_sort(group.occurrences.begin(), group.occurrences.end(),
                       [](const Occurrence& a, const Occurrence& b) {
                         return a.weight > b.weight;
                       });
      taken.assign(covered.size(), 0);
      Realization r;
      r.signature = &sig;
      for (const Occurrence& occ : group.occurrences) {
        const std::size_t b = base[occ.region];
        if (std::any_of(occ.path.begin(), occ.path.end(),
                        [&](std::size_t node) { return taken[b + node] != 0; })) {
          continue;
        }
        for (std::size_t node : occ.path) taken[b + node] = 1;
        r.matches.push_back(&occ);
        r.cycles += occ.weight * occ.path.size();
      }
      if (r.cycles > best.cycles) best = std::move(r);
    }

    if (frequency(best.cycles) < options.floor_percent) break;

    CoverageStep step;
    step.signature = *best.signature;
    step.cycles = best.cycles;
    step.frequency = frequency(best.cycles);
    step.occurrences_taken = best.matches.size();
    for (const Occurrence* occ : best.matches) {
      const RegionGraph& region = regions[occ->region];
      auto& ops = step.matches.emplace_back();
      ops.reserve(occ->path.size());
      for (std::size_t node : occ->path) {
        covered[base[occ->region] + node] = 1;
        ops.emplace_back(region.func, region.nodes[node].instr_id);
      }
    }
    result.total_coverage += step.frequency;
    result.steps.push_back(std::move(step));
  }
  return result;
}

}  // namespace asipfb::chain
