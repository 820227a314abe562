#include "chain/region_graph.hpp"

#include <utility>

#include "analysis/traces.hpp"

namespace asipfb::chain {

std::vector<RegionGraph> build_region_graphs(const ir::Module& module) {
  std::vector<RegionGraph> regions;

  // Latest definition of each register, indexed by Reg::id: an index into
  // the current region's nodes, or -1 for a definition by a non-chainable
  // op.  An entry counts only while its stamp is the current trace's
  // number, so the table is shared by every trace of every function and
  // never cleared.
  std::vector<int> latest_def;
  std::vector<std::size_t> def_trace;
  std::size_t trace_number = 0;

  for (std::size_t f = 0; f < module.functions.size(); ++f) {
    const auto& fn = module.functions[f];
    if (def_trace.size() < fn.reg_types.size()) {
      latest_def.resize(fn.reg_types.size());
      def_trace.resize(fn.reg_types.size(), 0);
    }
    for (auto& trace : analysis::form_traces(fn)) {
      ++trace_number;
      RegionGraph region;
      region.func = static_cast<ir::FuncId>(f);
      region.blocks = std::move(trace);

      // Most recent chainable op with only constants after it (see
      // RegionNode::adjacent_pred).
      std::size_t adjacent_candidate = SIZE_MAX;

      for (ir::BlockId b : region.blocks) {
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
              if (a.id >= def_trace.size() || def_trace[a.id] != trace_number) {
                continue;
              }
              const int producer = latest_def[a.id];
              if (producer < 0 || producer == last_producer) continue;
              region.succs[static_cast<std::size_t>(producer)].push_back(
                  static_cast<std::size_t>(this_node));
              last_producer = producer;
            }
          }
          if (instr.dst) {
            const std::uint32_t id = instr.dst->id;
            if (id >= def_trace.size()) {  // Unverified module: grow.
              latest_def.resize(id + std::size_t{1});
              def_trace.resize(id + std::size_t{1}, 0);
            }
            latest_def[id] = this_node;
            def_trace[id] = trace_number;
          }

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

std::uint32_t SignatureIds::id_of(const RegionGraph& region,
                                  const std::vector<std::size_t>& path) {
  std::uint32_t id = 0;
  for (std::size_t node : path) {
    const ir::ChainClass chain_class = region.nodes[node].chain_class;
    std::uint32_t child = nodes_[id].child[static_cast<std::size_t>(chain_class)];
    if (child == 0) {
      child = static_cast<std::uint32_t>(nodes_.size());
      nodes_[id].child[static_cast<std::size_t>(chain_class)] = child;
      nodes_.push_back(Node{{}, id, chain_class});
    }
    id = child;
  }
  return id;
}

Signature SignatureIds::signature(std::uint32_t id) const {
  Signature sig;
  for (; id != 0; id = nodes_[id].parent) {
    sig.classes.push_back(nodes_[id].chain_class);
  }
  std::reverse(sig.classes.begin(), sig.classes.end());
  return sig;
}

std::vector<std::uint32_t> SignatureIds::preorder_ranks() const {
  std::vector<std::uint32_t> rank(nodes_.size());
  std::vector<std::uint32_t> stack{0};
  std::uint32_t next = 0;
  while (!stack.empty()) {
    const std::uint32_t id = stack.back();
    stack.pop_back();
    rank[id] = next++;
    // Pushed last class first, so children pop in ChainClass order.
    for (std::size_t c = kClasses; c-- > 0;) {
      if (nodes_[id].child[c] != 0) stack.push_back(nodes_[id].child[c]);
    }
  }
  return rank;
}

}  // namespace asipfb::chain
