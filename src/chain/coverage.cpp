#include "chain/coverage.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace asipfb::chain {

namespace {

void check(const CoverageOptions& options) {
  if (options.min_length < 1 || options.max_length < options.min_length) {
    throw std::invalid_argument("coverage: want 1 <= min_length <= max_length");
  }
  if (!std::isfinite(options.floor_percent)) {
    throw std::invalid_argument("coverage: floor_percent must be finite");
  }
  if (options.max_rounds < 0) {
    throw std::invalid_argument("coverage: max_rounds must be >= 0");
  }
}

}  // namespace

CoverageResult coverage_analysis(const ir::Module& module,
                                 const CoverageOptions& options,
                                 std::uint64_t total_cycles) {
  check(options);
  if (total_cycles == 0) total_cycles = module.total_dynamic_ops();
  if (total_cycles == 0) return {};
  return coverage_analysis(build_region_graphs(module), options, total_cycles);
}

CoverageResult coverage_analysis(std::span<const RegionGraph> regions,
                                 const CoverageOptions& options,
                                 std::uint64_t total_cycles) {
  check(options);
  CoverageResult result;
  result.total_cycles = total_cycles;
  if (result.total_cycles == 0) return result;

  PathBounds bounds;
  bounds.min_length = options.min_length;
  bounds.max_length = options.max_length;
  bounds.require_adjacency = options.require_adjacency;

  // form_traces puts every block in exactly one trace, so each operation is
  // exactly one (region, node): index base[region] + node stands for it.
  std::vector<std::size_t> base(regions.size() + 1, 0);
  for (std::size_t r = 0; r < regions.size(); ++r) {
    base[r + 1] = base[r] + regions[r].nodes.size();
  }

  auto frequency = [&](std::uint64_t cycles) {
    return 100.0 * static_cast<double>(cycles) /
           static_cast<double>(result.total_cycles);
  };

  // One walk.  A later round's walk would visit exactly these paths minus
  // those through a covered operation, in the same order, so rounds retire
  // occurrences instead of walking again.  Operations and occurrences are
  // numbered in 32 bits: 2^32 paths would not fit in memory anyway.
  struct Occurrence {
    std::uint64_t weight;
    std::uint32_t region;
    std::uint32_t first;   ///< Offset of the path in `path_ops`.
    std::uint32_t length;
    std::uint32_t group;   ///< Signature id until grouped, then group index.
    [[nodiscard]] std::uint64_t cycles() const { return weight * length; }
  };
  std::vector<Occurrence> occurrences;
  std::vector<std::uint32_t> path_ops;  // Paths as base[region] + node.
  SignatureIds ids;
  for (std::size_t r = 0; r < regions.size(); ++r) {
    for_each_path(regions[r], bounds,
                  [&](const std::vector<std::size_t>& path, std::uint64_t weight) {
                    occurrences.push_back({weight, static_cast<std::uint32_t>(r),
                                           static_cast<std::uint32_t>(path_ops.size()),
                                           static_cast<std::uint32_t>(path.size()),
                                           ids.id_of(regions[r], path)});
                    for (std::size_t node : path) {
                      path_ops.push_back(static_cast<std::uint32_t>(base[r] + node));
                    }
                    return true;
                  });
  }
  std::vector<char> live(occurrences.size(), 1);

  // Groups in Signature order, which breaks ties between equal aggregates:
  // the ids that occur, by trie rank.
  std::vector<std::uint32_t> id_at_rank(ids.size(), UINT32_MAX);
  {
    const std::vector<std::uint32_t> rank = ids.preorder_ranks();
    for (const Occurrence& occ : occurrences) id_at_rank[rank[occ.group]] = occ.group;
  }
  struct Group {
    std::uint32_t id = 0;      ///< Signature id.
    std::uint64_t cycles = 0;  ///< Aggregate over live, overlapping occurrences.
    std::size_t begin = 0;     ///< Slice [begin, end) of `members`.
    std::size_t end = 0;
  };
  std::vector<Group> groups;
  std::vector<std::uint32_t> group_of(ids.size());
  for (const std::uint32_t id : id_at_rank) {
    if (id == UINT32_MAX) continue;
    group_of[id] = static_cast<std::uint32_t>(groups.size());
    groups.push_back({id});
  }
  for (Occurrence& occ : occurrences) {
    occ.group = group_of[occ.group];
    groups[occ.group].cycles += occ.cycles();
    ++groups[occ.group].end;  // Counts members until the slices are laid out.
  }
  // Members of each group in walk order (a counting sort on group), then
  // stably by weight: filtering this order later gives what stable-sorting
  // the filtered list would.
  std::size_t offset = 0;
  for (Group& group : groups) {
    group.begin = offset;
    offset += group.end;
    group.end = group.begin;
  }
  std::vector<std::uint32_t> members(occurrences.size());
  for (std::uint32_t o = 0; o < occurrences.size(); ++o) {
    members[groups[occurrences[o].group].end++] = o;
  }
  const auto heavier = [&](std::uint32_t a, std::uint32_t b) {
    return occurrences[a].weight > occurrences[b].weight;
  };
  for (const Group& group : groups) {
    const auto first = members.begin() + static_cast<std::ptrdiff_t>(group.begin);
    const auto last = members.begin() + static_cast<std::ptrdiff_t>(group.end);
    if (!std::is_sorted(first, last, heavier)) std::stable_sort(first, last, heavier);
  }

  // The occurrences through each operation, to retire them once it is
  // covered.
  std::vector<std::uint32_t> touch_begin(base.back() + 1, 0);
  for (std::uint32_t op : path_ops) ++touch_begin[op + 1];
  for (std::size_t op = 0; op < base.back(); ++op) {
    touch_begin[op + 1] += touch_begin[op];
  }
  std::vector<std::uint32_t> touching(path_ops.size());
  {
    std::vector<std::uint32_t> fill(touch_begin.begin(), touch_begin.end() - 1);
    for (std::uint32_t o = 0; o < occurrences.size(); ++o) {
      const Occurrence& occ = occurrences[o];
      for (std::uint32_t k = occ.first; k < occ.first + occ.length; ++k) {
        touching[fill[path_ops[k]]++] = o;
      }
    }
  }

  std::vector<std::size_t> taken(base.back(), 0);  // Candidate stamp per op.
  std::size_t stamp = 0;
  std::vector<std::size_t> candidates;
  std::vector<std::uint32_t> matches;
  std::vector<std::uint32_t> best_matches;

  for (int round = 0; round < options.max_rounds; ++round) {
    // Candidates in descending aggregate order; ties keep signature order.
    candidates.clear();
    for (std::size_t g = 0; g < groups.size(); ++g) {
      if (groups[g].cycles != 0) candidates.push_back(g);
    }
    if (candidates.empty()) break;
    const std::size_t candidate_limit = std::min<std::size_t>(16, candidates.size());
    std::partial_sort(candidates.begin(),
                      candidates.begin() + static_cast<std::ptrdiff_t>(candidate_limit),
                      candidates.end(), [&](std::size_t a, std::size_t b) {
                        if (groups[a].cycles != groups[b].cycles) {
                          return groups[a].cycles > groups[b].cycles;
                        }
                        return a < b;
                      });

    // Realize (greedy non-overlapping matching) each of the top aggregate
    // candidates and commit the one with the highest realized coverage.
    // Aggregate frequencies over-count overlapping paths of long
    // signatures, so ranking must use realized values.
    std::size_t best = SIZE_MAX;
    std::uint64_t best_cycles = 0;
    for (std::size_t ci = 0; ci < candidate_limit; ++ci) {
      const Group& group = groups[candidates[ci]];
      if (frequency(group.cycles) < options.floor_percent) break;
      if (group.cycles <= best_cycles) break;  // Aggregate bounds realized.

      ++stamp;
      matches.clear();
      std::uint64_t cycles = 0;
      for (std::size_t m = group.begin; m < group.end; ++m) {
        if (live[members[m]] == 0) continue;
        const Occurrence& occ = occurrences[members[m]];
        const auto ops = path_ops.begin() + static_cast<std::ptrdiff_t>(occ.first);
        const auto ops_end = ops + static_cast<std::ptrdiff_t>(occ.length);
        const auto is_taken = [&](std::uint32_t op) { return taken[op] == stamp; };
        if (std::any_of(ops, ops_end, is_taken)) continue;
        for (auto op = ops; op != ops_end; ++op) taken[*op] = stamp;
        matches.push_back(members[m]);
        cycles += occ.cycles();
      }
      if (cycles > best_cycles) {
        best = candidates[ci];
        best_cycles = cycles;
        std::swap(best_matches, matches);
      }
    }

    if (best == SIZE_MAX || frequency(best_cycles) < options.floor_percent) break;

    CoverageStep step;
    step.signature = ids.signature(groups[best].id);
    step.cycles = best_cycles;
    step.frequency = frequency(best_cycles);
    step.occurrences_taken = best_matches.size();
    for (std::uint32_t o : best_matches) {
      const Occurrence& occ = occurrences[o];
      const RegionGraph& region = regions[occ.region];
      auto& ops = step.matches.emplace_back();
      ops.reserve(occ.length);
      for (std::uint32_t k = occ.first; k < occ.first + occ.length; ++k) {
        const std::uint32_t op = path_ops[k];
        ops.emplace_back(region.func, region.nodes[op - base[occ.region]].instr_id);
        // The operation is covered: retire every occurrence through it.
        for (std::uint32_t t = touch_begin[op]; t < touch_begin[op + 1]; ++t) {
          const std::uint32_t dead = touching[t];
          if (live[dead] == 0) continue;
          live[dead] = 0;
          groups[occurrences[dead].group].cycles -= occurrences[dead].cycles();
        }
      }
    }
    result.total_coverage += step.frequency;
    result.steps.push_back(std::move(step));
  }
  return result;
}

}  // namespace asipfb::chain
