#include "opt/unroll.hpp"

#include <algorithm>
#include <string>
#include <vector>

#include "analysis/loops.hpp"

namespace asipfb::opt {

using ir::BlockId;
using ir::Instr;

namespace {

constexpr std::uint32_t kOutside = 0xffffffffu;

/// Replicates one loop. `loop.blocks` is the natural-loop block set.
/// `position` maps a block to its index in `loop.blocks`, or kOutside; it
/// holds kOutside for every block on entry and on return.
void replicate_loop(ir::Function& fn, const analysis::NaturalLoop& loop, int factor,
                    std::vector<std::uint32_t>& position) {
  const BlockId header = loop.header;
  const std::size_t size = loop.blocks.size();

  // Split profile counts: each of the `factor` copies carries 1/factor of
  // the original count; the original keeps the remainder so totals match.
  // copy_counts[i] belongs to loop.blocks[i].
  std::vector<std::vector<std::uint64_t>> copy_counts(size);
  for (std::size_t i = 0; i < size; ++i) {
    auto& counts = copy_counts[i];
    for (auto& instr : fn.blocks[loop.blocks[i]].instrs) {
      const std::uint64_t share = instr.exec_count / static_cast<std::uint64_t>(factor);
      counts.push_back(share);
      instr.exec_count -= share * static_cast<std::uint64_t>(factor - 1);
    }
  }

  // Create block shells for each copy first so targets can be remapped.
  // Copy k of loop.blocks[i] is block first_copy + k * size + i.
  position.resize(fn.blocks.size(), kOutside);
  for (std::size_t i = 0; i < size; ++i) {
    position[loop.blocks[i]] = static_cast<std::uint32_t>(i);
  }
  const auto first_copy = static_cast<BlockId>(fn.blocks.size());
  const auto copy_of = [&](int k, BlockId b) {
    return static_cast<BlockId>(first_copy + static_cast<std::size_t>(k) * size +
                                position[b]);
  };
  for (int k = 0; k < factor - 1; ++k) {
    for (BlockId b : loop.blocks) {
      fn.add_block(fn.blocks[b].name + ".u" + std::to_string(k + 1));
    }
  }

  // Fill the copies.
  for (int k = 0; k < factor - 1; ++k) {
    for (std::size_t p = 0; p < size; ++p) {
      const BlockId b = loop.blocks[p];
      const auto& counts = copy_counts[p];
      auto& dst = fn.blocks[copy_of(k, b)];
      for (std::size_t i = 0; i < fn.blocks[b].instrs.size(); ++i) {
        Instr instr = fn.blocks[b].instrs[i];  // Copy (same registers).
        instr.exec_count = counts[i];
        const ir::InstrId origin = instr.origin;
        instr.id = ir::kNoInstr;
        fn.assign_id(instr);
        instr.origin = origin;
        // Remap in-loop targets; `header` is special: it is only reachable
        // from inside the loop via the back edge, which must thread to the
        // next copy (or back to the original for the last copy).
        ir::for_each_target(instr, [&](BlockId& target) {
          if (target == header) {
            target = k + 1 < factor - 1 ? copy_of(k + 1, header) : header;
          } else if (position[target] != kOutside) {
            target = copy_of(k, target);
          }
        });
        dst.instrs.push_back(std::move(instr));
      }
    }
  }

  // Redirect the original loop's back edges into the first copy.
  const BlockId first_copy_header = copy_of(0, header);
  for (BlockId b : loop.blocks) {
    ir::for_each_target(fn.blocks[b].terminator(), [&](BlockId& target) {
      if (target == header) target = first_copy_header;
    });
    position[b] = kOutside;
  }
}

}  // namespace

int unroll_loops(ir::Function& fn, const UnrollOptions& options) {
  if (options.factor < 2) return 0;
  const auto loops = analysis::find_loops(fn);
  std::vector<char> used(fn.blocks.size(), 0);  // Blocks of unrolled loops.
  std::vector<std::uint32_t> position;
  int unrolled = 0;
  // Only innermost loops get unrolled.  A loop sorts after the loops nested
  // in it and is larger, so when it fits the size limit its innermost loop
  // did too, and was unrolled or overlapped one that was: `used` skips it.
  for (const auto& loop : loops) {
    std::size_t size = 0;
    for (BlockId b : loop.blocks) size += fn.blocks[b].instrs.size();
    if (size > options.max_loop_instrs) continue;
    const bool overlaps = std::any_of(loop.blocks.begin(), loop.blocks.end(),
                                      [&](BlockId b) { return used[b] != 0; });
    if (overlaps) continue;
    for (BlockId b : loop.blocks) used[b] = 1;
    replicate_loop(fn, loop, options.factor, position);
    ++unrolled;
  }
  return unrolled;
}

}  // namespace asipfb::opt
