// Per-region chain dependence graphs.
//
// A region is one profile-guided *trace* of the (possibly
// percolation-scheduled) program graph — see analysis/traces.hpp.  The
// trace's blocks are scanned as one linear instruction sequence; an edge
// p -> c exists when c reads the value p defines with no intervening
// redefinition — i.e. the pair could be implemented as a chained operation
// (result forwarded directly, paper section 4).  Edge discovery follows
// *all* operand positions, so address arithmetic chains into loads/stores
// (add-load) and value chains into store data (fmul-fsub-fstore), as the
// paper reports.  Occurrence weights use the minimum execution count along
// the path, which accounts for control leaving the trace between producer
// and consumer.  The latest definition of each register is kept in one
// dense table indexed by Reg::id, stamped with the trace that wrote it, so
// starting a trace clears nothing and a lookup is one index.
//
// for_each_path is the one walk over these graphs: sequence detection
// (detect.hpp) and coverage (coverage.hpp) both enumerate their paths with
// it.  SignatureIds names the class sequence of a walked path with a dense
// id, so aggregating by signature needs no Signature per path, and ranks
// the ids in Signature order (preorder_ranks), so ordering by signature
// needs none either.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "chain/signature.hpp"
#include "ir/function.hpp"

namespace asipfb::chain {

struct RegionNode {
  ir::InstrId instr_id = ir::kNoInstr;    ///< Stable identity for coverage.
  ir::ChainClass chain_class = ir::ChainClass::None;
  std::uint64_t exec_count = 0;           ///< Profile weight of this op.
  /// Node index of the chainable op textually immediately before this one
  /// (SIZE_MAX when the preceding instruction is non-chainable or absent).
  /// An edge p -> c with c.adjacent_pred == p is realizable WITHOUT a
  /// scheduler — the only kind of pair the paper's "no optimization"
  /// analysis can exploit.  Constant materialization breaks adjacency: in
  /// unscheduled 1995-style 3-address code constants are loaded into
  /// registers between the producer and consumer, and it takes the
  /// scheduler's code motion to move them out of the way.
  std::size_t adjacent_pred = SIZE_MAX;
};

struct RegionGraph {
  ir::FuncId func = ir::kNoFunc;
  std::vector<ir::BlockId> blocks;        ///< Trace blocks, in order.
  std::vector<RegionNode> nodes;
  std::vector<std::vector<std::size_t>> succs;  ///< Chain edges (node indices).
};

/// Builds the chain graph of every trace of every function.  Regions without
/// any chain edge are omitted.
[[nodiscard]] std::vector<RegionGraph> build_region_graphs(const ir::Module& module);

/// Which paths for_each_path visits.
struct PathBounds {
  int min_length = 2;
  int max_length = 5;
  /// Follow only edges into a textually adjacent consumer
  /// (RegionNode::adjacent_pred; see DetectorOptions::require_adjacency).
  bool require_adjacency = false;
  /// Branch-and-bound floor: a path is abandoned once even its best
  /// extension, weight * max_length cycles, falls below this.
  std::uint64_t prune_cycles = 0;
};

/// Depth-first walk over the paths of `region` whose length lies in
/// [min_length, max_length].  A path's weight is the minimum exec_count
/// along it; weights only shrink as a path grows, so abandoning a path of
/// weight 0 or below the prune_cycles bound loses nothing.  Calls
/// `fn(path, weight)` in pre-order (start nodes ascending, then successor
/// order); `fn` returns false to stop the walk.  There is no node filter:
/// coverage walks once and retires the paths through covered operations
/// itself.
template <typename Fn>
void for_each_path(const RegionGraph& region, const PathBounds& bounds,
                   const Fn& fn) {
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
        go = self(self, succ, weight);
      }
    }
    path.pop_back();
    return go;
  };
  for (std::size_t start = 0; start < region.nodes.size(); ++start) {
    if (!extend(extend, start, UINT64_MAX)) return;
  }
}

/// Dense ids for the signatures of walked paths: a trie over ChainClass
/// whose node index is the id of the class sequence spelled from its root.
/// Ids start at 1 (0 is the empty sequence) and stay below size(), so
/// per-signature tallies live in a vector indexed by id.
class SignatureIds {
 public:
  SignatureIds() : nodes_(1) {}

  /// Id of the chain classes along `path` (node indices of `region`).
  /// Follows one child slot per node and allocates only for a class
  /// sequence not seen before.
  [[nodiscard]] std::uint32_t id_of(const RegionGraph& region,
                                    const std::vector<std::size_t>& path);

  /// The class sequence `id` stands for.
  [[nodiscard]] Signature signature(std::uint32_t id) const;

  /// Each id's rank in a pre-order walk of the trie that visits children
  /// in ChainClass order, indexed by id.  A prefix ranks before its
  /// extensions and siblings rank by class, so ranks order ids exactly as
  /// Signature's operator< orders their signatures, with no Signature
  /// built.
  [[nodiscard]] std::vector<std::uint32_t> preorder_ranks() const;

  /// One past the largest id handed out.
  [[nodiscard]] std::size_t size() const { return nodes_.size(); }

 private:
  static constexpr std::size_t kClasses =
      static_cast<std::size_t>(ir::ChainClass::None) + 1;
  struct Node {
    std::array<std::uint32_t, kClasses> child{};  ///< 0 = no child yet.
    std::uint32_t parent = 0;
    ir::ChainClass chain_class = ir::ChainClass::None;
  };
  std::vector<Node> nodes_;
};

}  // namespace asipfb::chain
