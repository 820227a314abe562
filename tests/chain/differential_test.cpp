// Differential test of chain analysis over non-default options.
//
// The goldens pin detection and coverage only at the pipeline's default
// options.  This file keeps the earlier, simpler algorithms as references
// — traces grown by probing predecessor lists and successors() per step,
// region graphs from a per-trace std::map, detection aggregated in a
// std::map<Signature, ...>, coverage re-walking the uncovered paths every
// round — and requires the library's results to serialize to the same
// bytes over every suite workload, the first 24 default-corpus scenarios,
// O0/O1/O2, with and without the adjacency restriction, and a grid of
// lengths, floors, rounds, pruning and occurrence caps.  The library's
// traces must equal the reference's on every function of the suite and of
// the default and seed-2 corpora at O0/O1/O2, and on random profiled CFGs
// with tied counts, self loops and CondBrs whose two targets are one.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "analysis/cfg.hpp"
#include "analysis/traces.hpp"
#include "cache/serialize.hpp"
#include "chain/coverage.hpp"
#include "chain/detect.hpp"
#include "ir/builder.hpp"
#include "pipeline/session.hpp"
#include "support/rng.hpp"
#include "workloads/generator.hpp"
#include "workloads/suite.hpp"

namespace asipfb::chain {
namespace {
namespace reference {

/// Trace formation probing the CFG at every step: the best successor from
/// BasicBlock::successors(), the best predecessor from predecessors()
/// lists, and backward growth inserting at the trace's front.
std::vector<std::vector<ir::BlockId>> form_traces(const ir::Function& fn) {
  using ir::BlockId;
  const std::size_t nblocks = fn.blocks.size();
  const auto preds = analysis::predecessors(fn);
  auto count_of = [&](BlockId b) { return fn.blocks[b].exec_count(); };
  // Ties: the first successor, the lowest predecessor id.
  auto best_succ = [&](BlockId b) -> BlockId {
    BlockId best = ir::kNoBlock;
    std::uint64_t best_count = 0;
    for (BlockId s : fn.blocks[b].successors()) {
      if (s == b) continue;
      const std::uint64_t c = count_of(s);
      if (best == ir::kNoBlock || c > best_count) {
        best = s;
        best_count = c;
      }
    }
    return best;
  };
  auto best_pred = [&](BlockId b) -> BlockId {
    BlockId best = ir::kNoBlock;
    std::uint64_t best_count = 0;
    for (BlockId p : preds[b]) {
      if (p == b) continue;
      const std::uint64_t c = count_of(p);
      if (best == ir::kNoBlock || c > best_count) {
        best = p;
        best_count = c;
      }
    }
    return best;
  };
  std::vector<BlockId> seeds(nblocks);
  for (std::size_t b = 0; b < nblocks; ++b) seeds[b] = static_cast<BlockId>(b);
  std::stable_sort(seeds.begin(), seeds.end(), [&](BlockId a, BlockId b) {
    return count_of(a) > count_of(b);
  });
  std::vector<bool> visited(nblocks, false);
  std::vector<std::vector<BlockId>> traces;
  for (BlockId seed : seeds) {
    if (visited[seed]) continue;
    visited[seed] = true;
    std::vector<BlockId> trace{seed};
    if (count_of(seed) > 0) {
      for (BlockId tail = seed;;) {
        const BlockId next = best_succ(tail);
        if (next == ir::kNoBlock || visited[next] || count_of(next) == 0) break;
        if (best_pred(next) != tail) break;
        visited[next] = true;
        trace.push_back(next);
        tail = next;
      }
      for (BlockId head = seed;;) {
        const BlockId prev = best_pred(head);
        if (prev == ir::kNoBlock || visited[prev] || count_of(prev) == 0) break;
        if (best_succ(prev) != head) break;
        visited[prev] = true;
        trace.insert(trace.begin(), prev);
        head = prev;
      }
    }
    traces.push_back(std::move(trace));
  }
  return traces;
}

std::vector<RegionGraph> build_region_graphs(const ir::Module& module) {
  std::vector<RegionGraph> regions;
  for (std::size_t f = 0; f < module.functions.size(); ++f) {
    const auto& fn = module.functions[f];
    for (const auto& trace : form_traces(fn)) {
      RegionGraph region;
      region.func = static_cast<ir::FuncId>(f);
      region.blocks = trace;
      std::map<std::uint32_t, int> latest_def;
      std::size_t adjacent_candidate = SIZE_MAX;
      for (ir::BlockId b : trace) {
        for (const auto& instr : fn.blocks[b].instrs) {
          int this_node = -1;
          if (ir::chainable(instr.op)) {
            RegionNode node;
            node.instr_id = instr.id;
            node.chain_class = instr.chain_class();
            node.exec_count = instr.exec_count;
            node.adjacent_pred = adjacent_candidate;
            this_node = static_cast<int>(region.nodes.size());
            region.nodes.push_back(node);
            region.succs.emplace_back();
            int last_producer = -1;
            for (ir::Reg a : instr.args) {
              const auto def = latest_def.find(a.id);
              if (def == latest_def.end()) continue;
              const int producer = def->second;
              if (producer < 0 || producer == last_producer) continue;
              region.succs[static_cast<std::size_t>(producer)].push_back(
                  static_cast<std::size_t>(this_node));
              last_producer = producer;
            }
          }
          if (instr.dst) latest_def[instr.dst->id] = this_node;
          adjacent_candidate =
              this_node >= 0 ? static_cast<std::size_t>(this_node) : SIZE_MAX;
        }
      }
      bool has_edges = false;
      for (const auto& s : region.succs) {
        if (!s.empty()) has_edges = true;
      }
      if (has_edges) regions.push_back(std::move(region));
    }
  }
  return regions;
}

/// The walk with a node filter: only paths whose every node is open.
template <typename Open, typename Fn>
void for_each_path(const RegionGraph& region, const PathBounds& bounds,
                   const Open& open, const Fn& fn) {
  const auto min_length = static_cast<std::size_t>(bounds.min_length);
  const auto max_length = static_cast<std::size_t>(bounds.max_length);
  std::vector<std::size_t> path;
  const auto extend = [&](const auto& self, std::size_t node,
                          std::uint64_t weight_so_far) -> bool {
    const std::uint64_t weight =
        std::min(weight_so_far, region.nodes[node].exec_count);
    if (weight == 0 || weight * max_length < bounds.prune_cycles) return true;
    path.push_back(node);
    bool go = path.size() < min_length || fn(path, weight);
    if (path.size() < max_length) {
      for (std::size_t succ : region.succs[node]) {
        if (!go) break;
        if (bounds.require_adjacency && region.nodes[succ].adjacent_pred != node) {
          continue;
        }
        if (open(succ)) go = self(self, succ, weight);
      }
    }
    path.pop_back();
    return go;
  };
  for (std::size_t start = 0; start < region.nodes.size(); ++start) {
    if (open(start) && !extend(extend, start, UINT64_MAX)) return;
  }
}

Signature signature_of(const RegionGraph& region,
                       const std::vector<std::size_t>& path) {
  Signature sig;
  for (std::size_t node : path) sig.classes.push_back(region.nodes[node].chain_class);
  return sig;
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

CoverageResult coverage_analysis(const ir::Module& module,
                                 const CoverageOptions& options,
                                 std::uint64_t total_cycles) {
  CoverageResult result;
  result.total_cycles = total_cycles != 0 ? total_cycles : module.total_dynamic_ops();
  if (result.total_cycles == 0) return result;
  const auto regions = build_region_graphs(module);
  PathBounds bounds;
  bounds.min_length = options.min_length;
  bounds.max_length = options.max_length;
  bounds.require_adjacency = options.require_adjacency;

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
    std::uint64_t cycles = 0;
    std::vector<Occurrence> occurrences;
  };

  for (int round = 0; round < options.max_rounds; ++round) {
    std::map<Signature, Group> groups;
    for (std::size_t r = 0; r < regions.size(); ++r) {
      const auto open = [&](std::size_t node) { return covered[base[r] + node] == 0; };
      for_each_path(regions[r], bounds, open,
                    [&](const std::vector<std::size_t>& path, std::uint64_t weight) {
                      auto& group = groups[signature_of(regions[r], path)];
                      group.cycles += weight * path.size();
                      group.occurrences.push_back({weight, r, path});
                      return true;
                    });
    }
    if (groups.empty()) break;

    std::vector<std::pair<const Signature, Group>*> candidates;
    for (auto& entry : groups) candidates.push_back(&entry);
    std::stable_sort(candidates.begin(), candidates.end(),
                     [](const auto* a, const auto* b) {
                       return a->second.cycles > b->second.cycles;
                     });

    struct Realization {
      const Signature* signature = nullptr;
      std::vector<const Occurrence*> matches;
      std::uint64_t cycles = 0;
    };
    Realization best;
    for (std::size_t ci = 0; ci < candidates.size() && ci < 16; ++ci) {
      auto& [sig, group] = *candidates[ci];
      if (frequency(group.cycles) < options.floor_percent) break;
      if (group.cycles <= best.cycles) break;
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

}  // namespace reference

const std::pair<int, int> kLengths[] = {{1, 6}, {2, 2}, {2, 3}, {4, 4}};

std::vector<const wl::Workload*> programs() {
  std::vector<const wl::Workload*> out;
  for (const auto& w : wl::suite()) out.push_back(&w);
  const auto& corpus = wl::default_corpus();
  for (std::size_t i = 0; i < corpus.size() && i < 24; ++i) out.push_back(&corpus[i]);
  return out;
}

/// Every option combination of the grid on one module; stops at the first
/// mismatch, naming its options.
void expect_reference_bytes(const ir::Module& module, std::uint64_t total,
                            bool adjacency) {
  for (const auto& [min, max] : kLengths) {
    for (const double prune : {0.0, 2.0}) {
      for (const std::size_t max_occurrences :
           {std::size_t{5}, DetectorOptions{}.max_occurrences}) {
        DetectorOptions options;
        options.min_length = min;
        options.max_length = max;
        options.prune_percent = prune;
        options.max_occurrences = max_occurrences;
        options.require_adjacency = adjacency;
        ASSERT_EQ(cache::serialize(detect_sequences(module, options, total)),
                  cache::serialize(reference::detect_sequences(module, options, total)))
            << "detect min " << min << " max " << max << " prune " << prune
            << " maxocc " << max_occurrences;
      }
    }
    for (const double floor : {0.0, 1.0, 4.0}) {
      for (const int rounds : {1, 12, 30}) {
        CoverageOptions options;
        options.min_length = min;
        options.max_length = max;
        options.floor_percent = floor;
        options.max_rounds = rounds;
        options.require_adjacency = adjacency;
        ASSERT_EQ(cache::serialize(coverage_analysis(module, options, total)),
                  cache::serialize(reference::coverage_analysis(module, options, total)))
            << "coverage min " << min << " max " << max << " floor " << floor
            << " rounds " << rounds;
      }
    }
  }
}

class ChainDifferential : public ::testing::TestWithParam<const wl::Workload*> {};

TEST_P(ChainDifferential, MatchesReferenceBytes) {
  const wl::Workload& w = *GetParam();
  const pipeline::Session session(w.source, w.name, w.input);
  for (const auto level : {opt::OptLevel::O0, opt::OptLevel::O1, opt::OptLevel::O2}) {
    for (const bool adjacency : {false, true}) {
      SCOPED_TRACE(std::string(opt::to_string(level)) +
                   (adjacency ? " adjacent" : " any order"));
      expect_reference_bytes(session.optimized(level), session.total_cycles(),
                             adjacency);
      if (HasFatalFailure()) return;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(SuiteAndCorpus, ChainDifferential,
                         ::testing::ValuesIn(programs()),
                         [](const ::testing::TestParamInfo<const wl::Workload*>& info) {
                           std::string name = info.param->name;
                           for (char& c : name) {
                             if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
                           }
                           return name;
                         });

void expect_reference_traces(const ir::Module& module) {
  for (const auto& fn : module.functions) {
    ASSERT_EQ(analysis::form_traces(fn), reference::form_traces(fn))
        << "function " << fn.name;
  }
}

void expect_reference_traces(const std::vector<wl::Workload>& workloads) {
  for (const auto& w : workloads) {
    const pipeline::Session session(w.source, w.name, w.input);
    for (const auto level : {opt::OptLevel::O0, opt::OptLevel::O1, opt::OptLevel::O2}) {
      SCOPED_TRACE(w.name + " " + std::string(opt::to_string(level)));
      expect_reference_traces(session.optimized(level));
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST(TracesDifferential, SuiteMatchesReference) { expect_reference_traces(wl::suite()); }

TEST(TracesDifferential, DefaultCorpusMatchesReference) {
  expect_reference_traces(wl::default_corpus());
}

TEST(TracesDifferential, SeedTwoCorpusMatchesReference) {
  expect_reference_traces(wl::corpus(wl::CorpusSpec{.seed = 2}));
}

/// A random profiled CFG: counts drawn from a handful of values so ties
/// are common, branches that may target their own block, and CondBrs
/// whose two targets are often the same block.  The count of a block is
/// its terminator's; a few blocks stay empty (count 0, no successors).
ir::Function random_profiled_cfg(Rng& rng) {
  ir::Function fn;
  fn.name = "rand";
  const ir::Reg cond = fn.new_reg(ir::Type::I32);
  const auto nblocks = static_cast<ir::BlockId>(1 + rng.next_below(20));
  const auto block = [&] { return static_cast<ir::BlockId>(rng.next_below(nblocks)); };
  for (ir::BlockId b = 0; b < nblocks; ++b) {
    auto& bb = fn.blocks.emplace_back();
    bb.name = std::to_string(b);
    ir::Instr terminator;
    switch (rng.next_below(12)) {
      case 0:
        continue;  // Empty.
      case 1: case 2: case 3: case 4:
        terminator = ir::make::br(block());
        break;
      case 5:
        terminator = ir::make::br(b);  // Self loop.
        break;
      case 6: {
        const ir::BlockId target = block();
        terminator = ir::make::cond_br(cond, target, target);
        break;
      }
      case 7: case 8: case 9: case 10:
        terminator = ir::make::cond_br(cond, block(), block());
        break;
      default:
        terminator = ir::make::ret();
        break;
    }
    terminator.exec_count = rng.next_below(4);
    bb.instrs.push_back(terminator);
    fn.assign_id(bb.instrs.back());
  }
  return fn;
}

TEST(TracesDifferential, RandomProfiledCfgsMatchReference) {
  Rng rng(0x7ACE5EEDull);
  for (int trial = 0; trial < 20000; ++trial) {
    const ir::Function fn = random_profiled_cfg(rng);
    ASSERT_EQ(analysis::form_traces(fn), reference::form_traces(fn)) << "trial " << trial;
  }
}

}  // namespace
}  // namespace asipfb::chain
