#include "opt/ilp.hpp"

#include <algorithm>
#include <map>
#include <vector>

namespace asipfb::opt {

namespace {

/// Schedule length of one block at the given width.
int schedule_block(const ir::BasicBlock& block, int width) {
  const std::size_t n = block.instrs.size();
  std::vector<int> cycle(n, 1);
  std::map<std::uint32_t, std::size_t> last_def;   // reg -> instr index
  std::map<std::uint32_t, std::size_t> last_use;
  std::vector<int> issued_in_cycle;  // 1-based; index 0 unused.
  issued_in_cycle.push_back(0);

  int barrier_cycle = 0;            // Cycle of the last store/call.
  int last_mem_cycle = 0;           // For barrier ordering vs earlier loads.
  int length = 0;

  for (std::size_t i = 0; i < n; ++i) {
    const auto& instr = block.instrs[i];
    int earliest = 1;

    for (ir::Reg a : instr.args) {
      const auto def = last_def.find(a.id);
      if (def != last_def.end()) earliest = std::max(earliest, cycle[def->second] + 1);
    }
    if (instr.dst) {
      const auto def = last_def.find(instr.dst->id);
      if (def != last_def.end()) earliest = std::max(earliest, cycle[def->second] + 1);
      const auto use = last_use.find(instr.dst->id);
      if (use != last_use.end()) earliest = std::max(earliest, cycle[use->second]);
    }
    const bool memory = ir::accesses_memory(instr.op);
    const bool barrier = ir::is_memory_barrier(instr.op);
    if (memory) {
      earliest = std::max(earliest, barrier_cycle + 1);
      if (barrier) earliest = std::max(earliest, last_mem_cycle + 1);
    }
    if (instr.is_terminator()) earliest = std::max(earliest, length);

    // First cycle at or after `earliest` with a free issue slot.
    int c = std::max(earliest, 1);
    for (;;) {
      while (static_cast<std::size_t>(c) >= issued_in_cycle.size()) {
        issued_in_cycle.push_back(0);
      }
      if (issued_in_cycle[static_cast<std::size_t>(c)] < width) break;
      ++c;
    }
    ++issued_in_cycle[static_cast<std::size_t>(c)];
    cycle[i] = c;
    length = std::max(length, c);

    for (ir::Reg a : instr.args) last_use[a.id] = i;
    if (instr.dst) last_def[instr.dst->id] = i;
    if (barrier) barrier_cycle = std::max(barrier_cycle, c);
    if (memory) last_mem_cycle = std::max(last_mem_cycle, c);
  }
  return std::max(length, 1);
}

}  // namespace

IlpResult measure_ilp(const ir::Module& module, int issue_width) {
  IlpResult result;
  for (const auto& fn : module.functions) {
    for (const auto& block : fn.blocks) {
      const std::uint64_t count = block.exec_count();
      for (const auto& instr : block.instrs) result.dynamic_ops += instr.exec_count;
      if (count == 0) continue;
      const int length = schedule_block(block, std::max(issue_width, 1));
      result.dynamic_cycles += static_cast<std::uint64_t>(length) * count;
    }
  }
  result.ops_per_cycle =
      result.dynamic_cycles == 0
          ? 0.0
          : static_cast<double>(result.dynamic_ops) /
                static_cast<double>(result.dynamic_cycles);
  return result;
}

}  // namespace asipfb::opt
