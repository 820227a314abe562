#include "chain/region_graph.hpp"

#include <map>

#include "analysis/traces.hpp"

namespace asipfb::chain {

std::vector<RegionGraph> build_region_graphs(const ir::Module& module) {
  std::vector<RegionGraph> regions;

  for (std::size_t f = 0; f < module.functions.size(); ++f) {
    const auto& fn = module.functions[f];
    const auto traces = analysis::form_traces(fn);

    for (const auto& trace : traces) {
      RegionGraph region;
      region.func = static_cast<ir::FuncId>(f);
      region.blocks = trace;

      // Latest definition of each register so far; values are indices into
      // region.nodes, or -1 for a definition by a non-chainable op.
      std::map<std::uint32_t, int> latest_def;
      // Most recent chainable op with only constants after it (see
      // RegionNode::adjacent_pred).
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

            // Chain edges from the latest chainable producers of operands
            // (deduplicated: one edge even if both operands match).
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

          // Track textual adjacency: a chainable op becomes the candidate
          // for its textual successor; any other instruction (constant
          // materialization, copies, branches, ...) breaks the run — the
          // unscheduled 3-address stream executes strictly in order, so a
          // wedged instruction prevents single-instruction fusion.
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

Signature signature_of(const RegionGraph& region,
                       const std::vector<std::size_t>& path) {
  Signature sig;
  sig.classes.reserve(path.size());
  for (std::size_t node : path) {
    sig.classes.push_back(region.nodes[node].chain_class);
  }
  return sig;
}

}  // namespace asipfb::chain
