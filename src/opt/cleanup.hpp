// Canonicalization passes run on freshly lowered IR (all optimization
// levels see the same cleaned baseline, like gcc's local optimizations in
// the paper's step 1): local value numbering / CSE, dead code elimination,
// and CFG simplification.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "analysis/cfg.hpp"
#include "ir/function.hpp"

namespace asipfb::opt {

/// Local (per-block) value numbering: CSE of pure computations, copy
/// canonicalization.  Returns the number of instructions rewritten to copies.
int local_value_numbering(ir::Function& fn);

/// Removes pure instructions and loads whose results are never read in
/// the whole function, then whatever those removals leave unread, until
/// nothing more is.  Leaves every block's instruction vector without
/// spare capacity.  Returns instructions removed.
int dead_code_elimination(ir::Function& fn);

/// Removes unreachable blocks, forwards branches through trivial
/// (branch-only) blocks, and merges single-successor/single-predecessor
/// block chains, in one CfgSimplifier sweep.  Returns the number of blocks
/// eliminated.
int simplify_cfg(ir::Function& fn);

/// Keeps only blocks marked in `keep` (entry must be kept), remapping all
/// branch targets.  Exposed for use by other passes.
void compact_blocks(ir::Function& fn, const std::vector<bool>& keep);

/// simplify_cfg() for callers that edit the function between runs, as
/// percolation does.  The result is defined by rounds that forward every
/// branch through trivial blocks (at most 64 hops), merge the lowest
/// straight-line pair and drop unreachable blocks, until nothing changes.
/// run() reaches the same function — blocks, order and instruction ids,
/// one id per merge for the merged block's shell — without restarting:
/// it keeps the predecessor lists of the live (reachable) blocks current
/// across forwarding and merges and works from queues of the blocks whose
/// branches or predecessors changed.  Only where trivial blocks form a
/// cycle or a chain of 64 hops, and forwarding therefore depends on the
/// order of rounds, does it play the rounds out one by one.
///
/// A block that dies keeps its index, a merged block as a one-branch
/// shell, until compact() drops every dead block at once, so a caller's
/// per-block state stays valid across runs.
class CfgSimplifier {
public:
  explicit CfgSimplifier(ir::Function& fn) : fn_(fn) {}

  /// Simplifies to a fixpoint; returns the number of blocks that died.
  /// The first run also drops the blocks unreachable on entry.  Later runs
  /// start from the blocks passed to note_emptied() since.
  int run();

  /// The caller removed instructions from `block`; if only its branch is
  /// left, the next run() forwards its predecessors past it.
  void note_emptied(ir::BlockId block);

  /// Removes the dead blocks, renumbering the rest in order; later runs
  /// continue under the new numbering.
  void compact();

  /// Predecessors of each live block; empty for dead ones.
  [[nodiscard]] const analysis::Preds& preds() const { return preds_; }
  [[nodiscard]] bool dead(ir::BlockId block) const { return dead_[block] != 0; }
  /// Live blocks whose instructions or branch targets the last run()
  /// changed.  Their live-in is unchanged (see analysis/liveness.hpp).
  [[nodiscard]] const std::vector<ir::BlockId>& edited() const { return edited_; }
  /// Blocks the last run() edited or gave a new predecessor set.
  [[nodiscard]] const std::vector<ir::BlockId>& touched() const { return touched_; }

private:
  void start();
  /// One round of the restart-after-every-merge loop; true if it changed
  /// anything.
  bool restart_round();
  void rebuild_preds();
  /// True when some chain of trivial blocks is a cycle or needs 64 hops.
  bool long_trivial_chain();
  /// End of the chain of trivial blocks from `target` (at most 64 hops).
  [[nodiscard]] ir::BlockId forward(ir::BlockId target) const;
  /// Forwards the targets of `block`'s terminator; true if any moved.
  bool forward_targets(ir::BlockId block);
  /// Forwards `block` and updates the predecessor lists.
  void retarget(ir::BlockId block);
  void drain_forwarding();
  /// Removes `pred` from `block`'s predecessors; a block left without
  /// any dies, and its successors lose it in turn.
  void lose_pred(ir::BlockId block, ir::BlockId pred);
  [[nodiscard]] bool mergeable(ir::BlockId block) const;
  /// Merges `block`'s Br successor into it.
  void merge(ir::BlockId block);
  /// The first block of the straight-line chain that will absorb `block`.
  [[nodiscard]] ir::BlockId chain_head(ir::BlockId block) const;
  /// Appends the Br successor of `block` to it, leaving a shell.
  void splice(ir::BlockId block, ir::BlockId succ);
  void queue_forward(ir::BlockId block);
  void queue_merge(ir::BlockId block);
  static void mark(std::vector<ir::BlockId>& list, std::vector<char>& marks,
                   ir::BlockId block);

  ir::Function& fn_;
  bool started_ = false;
  bool emptied_ = false;  ///< note_emptied() found a trivial block.
  int died_ = 0;
  analysis::Preds preds_;
  std::vector<char> dead_;
  std::vector<ir::BlockId> forward_work_;  ///< Terminators to re-forward.
  std::vector<char> forward_queued_;
  std::vector<ir::BlockId> merge_work_;    ///< Merge candidates.
  std::vector<char> merge_queued_;
  std::vector<ir::BlockId> batch_;
  std::vector<std::uint32_t> counts_;
  std::vector<std::pair<ir::BlockId, ir::BlockId>> lost_;  ///< (block, pred)
  std::vector<ir::BlockId> edited_;
  std::vector<char> edited_marks_;
  std::vector<ir::BlockId> touched_;
  std::vector<char> touched_marks_;
};

/// Full canonicalization of a module: CFG simplification, LVN and DCE per
/// function, in rounds until a round reports no work (at most eight).  A
/// pass whose output nothing has changed since is not run again.
void canonicalize(ir::Module& module);

}  // namespace asipfb::opt
