#include "opt/rename.hpp"

#include <algorithm>
#include <vector>

#include "analysis/liveness.hpp"

namespace asipfb::opt {

using ir::Instr;
using ir::Reg;

int rename_registers(ir::Function& fn) {
  const analysis::Liveness liveness(fn);
  int copies = 0;

  // Original register -> its latest name, valid where `stamp` holds the
  // current block's index plus one, so nothing is cleared per block.
  std::vector<Reg> latest(fn.reg_types.size());
  std::vector<std::uint32_t> stamp(fn.reg_types.size(), 0);
  std::vector<std::uint32_t> renamed;  // Originals defined in this block.

  for (std::size_t b = 0; b < fn.blocks.size(); ++b) {
    auto& block = fn.blocks[b];
    const auto block_stamp = static_cast<std::uint32_t>(b + 1);
    renamed.clear();

    for (auto& instr : block.instrs) {
      for (auto& arg : instr.args) {
        if (stamp[arg.id] == block_stamp) arg = latest[arg.id];
      }
      if (instr.dst && !instr.is_terminator()) {
        const Reg original = *instr.dst;
        const Reg fresh = fn.new_reg(fn.type_of(original));
        if (stamp[original.id] != block_stamp) {
          stamp[original.id] = block_stamp;
          renamed.push_back(original.id);
        }
        latest[original.id] = fresh;
        instr.dst = fresh;
      }
    }

    // Repair copies restore live-out originals before the terminator, in
    // ascending order of the original register.
    std::sort(renamed.begin(), renamed.end());
    const std::uint64_t block_count = block.exec_count();
    std::vector<Instr> repairs;
    for (const std::uint32_t orig_id : renamed) {
      const Reg original{orig_id};
      if (!liveness.live_out(static_cast<ir::BlockId>(b), original)) continue;
      Instr copy = ir::make::copy(original, latest[orig_id]);
      copy.exec_count = block_count;
      fn.assign_id(copy);
      repairs.push_back(std::move(copy));
      ++copies;
    }
    block.instrs.insert(block.instrs.end() - 1,
                        std::make_move_iterator(repairs.begin()),
                        std::make_move_iterator(repairs.end()));
  }
  return copies;
}

}  // namespace asipfb::opt
