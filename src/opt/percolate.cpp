#include "opt/percolate.hpp"

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <optional>
#include <vector>

#include "analysis/liveness.hpp"
#include "opt/cleanup.hpp"

namespace asipfb::opt {

using ir::BlockId;
using ir::Instr;
using ir::Opcode;
using ir::Reg;

namespace {

/// The movable set of a block: the closed set of its instructions that can
/// legally move together to the end of its unique predecessor (above that
/// block's conditional branch).  See percolate.hpp for the motion model.
///
/// An eligible op stays behind when an op that stays behind (a) defines
/// one of its arguments or its destination earlier in the block, (b) reads
/// its destination earlier in the block, or (c), when chains are
/// preserved, reads its destination later.  Staying only ever spreads, so
/// the set is the greatest one closed under those rules.  It is found in
/// time linear in the block: per register, the lowest position of a
/// staying def and read and the highest position of a staying read; per
/// register, the eligible ops that read it and that define it, in block
/// order; and a worklist of ops that turn out to stay.  Each threshold
/// only moves one way, so a cursor per list passes each entry once.
class MovableSet {
public:
  explicit MovableSet(std::size_t regs) : local_(regs), stamp_(regs, 0) {}

  /// Per instruction of `block`, 1 when it moves.
  const std::vector<char>& compute(const ir::BasicBlock& block,
                                   const ir::BasicBlock& pred,
                                   const std::vector<BlockId>& other_succs,
                                   const analysis::Liveness& liveness,
                                   const PercolationOptions& options) {
    const auto& instrs = block.instrs;
    const std::size_t n = instrs.size();
    movable_.assign(n, 0);
    bool any = false;

    // Initial per-op eligibility.
    bool barrier_before = false;
    for (std::size_t i = 0; i < n; ++i) {
      const Instr& instr = instrs[i];
      if (instr.is_terminator()) break;
      const bool load = ir::reads_memory(instr.op);
      const bool eligible = ir::speculable(instr.op) || (options.speculate_loads && load);
      bool ok = eligible && instr.dst.has_value();
      // Loads may not cross stores/calls that stay behind (stores never move).
      if (ok && load && barrier_before) ok = false;
      // The predecessor's branch must not read the destination's old value.
      if (ok) {
        for (Reg a : pred.terminator().args) {
          if (a.id == instr.dst->id) ok = false;
        }
      }
      // Speculation: the destination must be dead along the branch's other
      // edges (this is what blocks un-renamed accumulators, and what
      // register renaming unlocks).
      if (ok) {
        for (BlockId s : other_succs) {
          if (liveness.live_in(s, *instr.dst)) ok = false;
        }
      }
      movable_[i] = ok ? 1 : 0;
      any |= ok;
      if (ir::is_memory_barrier(instr.op)) barrier_before = true;
    }
    if (!any) return movable_;

    // Number the block's registers densely, then list the eligible
    // readers and definers of each, in block order.
    if (++epoch_ == 0) {
      std::fill(stamp_.begin(), stamp_.end(), 0);
      epoch_ = 1;
    }
    regs_.clear();
    const auto local = [&](Reg r) {
      if (stamp_[r.id] != epoch_) {
        stamp_[r.id] = epoch_;
        local_[r.id] = static_cast<std::uint32_t>(regs_.size());
        regs_.emplace_back(n);
      }
      return local_[r.id];
    };
    // Count into the tops, turn the counts into list offsets, then fill
    // the lists; each top ends one past its list.
    for (std::size_t i = 0; i < n; ++i) {
      const Instr& instr = instrs[i];
      for (Reg a : instr.args) {
        const std::uint32_t r = local(a);
        if (movable_[i]) ++regs_[r].reads_top;
      }
      if (instr.dst) {
        const std::uint32_t r = local(*instr.dst);
        if (movable_[i]) ++regs_[r].defs_top;
      }
    }
    std::uint32_t reads = 0;
    std::uint32_t defs = 0;
    for (RegState& st : regs_) {
      const std::uint32_t read_count = st.reads_top;
      const std::uint32_t def_count = st.defs_top;
      st.reads_begin = st.reads_top = reads;
      st.defs_begin = st.defs_top = st.defs_bottom = defs;
      reads += read_count;
      defs += def_count;
    }
    reads_.resize(reads);
    defs_.resize(defs);
    for (std::size_t i = 0; i < n; ++i) {
      if (!movable_[i]) continue;
      const Instr& instr = instrs[i];
      const auto pos = static_cast<std::uint32_t>(i);
      for (Reg a : instr.args) reads_[regs_[local_[a.id]].reads_top++] = pos;
      defs_[regs_[local_[instr.dst->id]].defs_top++] = pos;
    }

    // Spread "stays behind" from the ops that cannot move.
    work_.clear();
    for (std::size_t i = 0; i < n; ++i) {
      if (!movable_[i]) work_.push_back(static_cast<std::uint32_t>(i));
    }
    while (!work_.empty()) {
      const std::uint32_t j = work_.back();
      work_.pop_back();
      const Instr& instr = instrs[j];
      if (instr.dst) {
        RegState& st = regs_[local_[instr.dst->id]];
        if (j < st.min_def) {
          st.min_def = j;
          // True dependence: later readers of the register stay.
          while (st.reads_top > st.reads_begin && reads_[st.reads_top - 1] > j) {
            stay(reads_[--st.reads_top]);
          }
          // Output dependence: later definers stay.
          stay_defs_after(st, std::min(st.min_def, st.min_read));
        }
      }
      for (Reg a : instr.args) {
        RegState& st = regs_[local_[a.id]];
        if (j < st.min_read) {
          st.min_read = j;
          // Anti dependence: later definers stay.
          stay_defs_after(st, std::min(st.min_def, st.min_read));
        }
        if (options.chain_preserving && j > st.max_read) {
          st.max_read = j;
          // Chain preservation: earlier definers stay with their reader.
          while (st.defs_bottom < st.defs_top && defs_[st.defs_bottom] < j) {
            stay(defs_[st.defs_bottom++]);
          }
        }
      }
    }
    return movable_;
  }

private:
  /// Per-register state for the current block.  Positions are instruction
  /// indices; the lists of eligible readers and definers start at
  /// reads_begin / defs_begin in reads_ / defs_.
  struct RegState {
    explicit RegState(std::size_t n)
        : min_def(static_cast<std::uint32_t>(n)),
          min_read(static_cast<std::uint32_t>(n)) {}
    std::uint32_t min_def;          ///< Lowest staying def (n: none).
    std::uint32_t min_read;         ///< Lowest staying read (n: none).
    std::uint32_t max_read = 0;     ///< Highest staying read (0 bars nothing).
    std::uint32_t reads_begin = 0;
    std::uint32_t reads_top = 0;    ///< Readers from here up already stay.
    std::uint32_t defs_begin = 0;
    std::uint32_t defs_top = 0;     ///< Definers from here up already stay.
    std::uint32_t defs_bottom = 0;  ///< Definers below here already stay.
  };

  void stay(std::uint32_t i) {
    if (!movable_[i]) return;
    movable_[i] = 0;
    work_.push_back(i);
  }

  void stay_defs_after(RegState& st, std::uint32_t limit) {
    while (st.defs_top > st.defs_begin && defs_[st.defs_top - 1] > limit) {
      stay(defs_[--st.defs_top]);
    }
  }

  std::vector<char> movable_;
  std::vector<std::uint32_t> local_;  ///< Register -> index into regs_.
  std::vector<std::uint32_t> stamp_;  ///< local_ is valid when == epoch_.
  std::uint32_t epoch_ = 0;
  std::vector<RegState> regs_;
  std::vector<std::uint32_t> reads_;  ///< Eligible readers, per register.
  std::vector<std::uint32_t> defs_;   ///< Eligible definers, per register.
  std::vector<std::uint32_t> work_;   ///< Ops found to stay, not yet spread.
};

/// Speculative hoisting for a whole percolate() call.  run() hoists until
/// no block has a non-empty movable set; each move takes the lowest-index
/// block n whose movable set is non-empty and appends that set to n's
/// unique predecessor m, before m's branch.
///
/// Predecessors come from the CfgSimplifier and liveness is solved once,
/// at the first pass.  A hoist moves only non-terminators, so the CFG is
/// unchanged, and Liveness::refresh() of n and m is exact.  The moved
/// destinations were dead on m's other edges and the moved upward-exposed
/// uses were already live into m (or defined in it), so only live_in[n]
/// and live_out[m] change, never live_in[m].  The simplifier's edits keep
/// every live block's live-in as it is: a merge of n into m leaves
/// live_in[m] and kills n, and forwarding past a trivial block swaps a
/// successor for one with the same live-in.
///
/// The inputs of the movable set of a block are its own instructions, its
/// predecessor's terminator and the live-in of that predecessor's other
/// successors.  A hoist can only change them for n, m and the successors
/// of m; a simplifier run only for the blocks it touched and their
/// successors.  Every other block keeps its "known empty" mark, across
/// passes too, so the pass that confirms the fixpoint finds nothing queued.
class Hoister {
public:
  Hoister(ir::Function& fn, const CfgSimplifier& cfg,
          const PercolationOptions& options)
      : fn_(fn),
        options_(options),
        liveness_(fn, cfg.preds()),
        queued_(fn.blocks.size(), 1),
        movable_(fn.reg_types.size()) {}

  /// Takes in the edits of the simplifier's last run().
  void absorb(const CfgSimplifier& cfg) {
    refreshed_.clear();
    for (const BlockId b : cfg.edited()) {
      if (!cfg.dead(b)) refreshed_.push_back(b);
    }
    liveness_.refresh(fn_, cfg.preds(), refreshed_);
    for (const BlockId b : cfg.touched()) {
      if (cfg.dead(b)) continue;
      queued_[b] = 1;
      for (const BlockId s : fn_.blocks[b].successors()) queued_[s] = 1;
    }
  }

  /// Returns the ops moved; notes emptied blocks to `cfg`.
  int run(CfgSimplifier& cfg) {
    const auto& preds = cfg.preds();
    int total = 0;
    std::size_t nb = 0;
    while (nb < fn_.blocks.size()) {
      const BlockId n = static_cast<BlockId>(nb++);
      if (!queued_[n]) continue;
      queued_[n] = 0;
      if (n == 0 || cfg.dead(n) || preds[n].size() != 1) continue;
      const BlockId m = preds[n][0];
      if (m == n) continue;
      auto& block = fn_.blocks[n];
      auto& pred_block = fn_.blocks[m];
      if (pred_block.terminator().op != Opcode::CondBr) continue;

      other_succs_.clear();
      for (const BlockId s : pred_block.successors()) {
        if (s != n) other_succs_.push_back(s);
      }
      if (other_succs_.empty()) continue;

      const auto& movable =
          movable_.compute(block, pred_block, other_succs_, liveness_, options_);
      const auto moved = static_cast<int>(
          std::count(movable.begin(), movable.end(), char{1}));
      if (moved == 0) continue;

      hoisted_.clear();
      kept_.clear();
      for (std::size_t i = 0; i < block.instrs.size(); ++i) {
        (movable[i] ? hoisted_ : kept_).push_back(std::move(block.instrs[i]));
      }
      block.instrs.swap(kept_);
      pred_block.instrs.insert(pred_block.instrs.end() - 1,
                               std::make_move_iterator(hoisted_.begin()),
                               std::make_move_iterator(hoisted_.end()));
      total += moved;
      cfg.note_emptied(n);

      // Update liveness in place (n first: m's live-out reads it) and
      // rescan from the lowest block whose movable set may have changed.
      liveness_.refresh(fn_, preds, {n, m});
      queued_[n] = 1;
      queued_[m] = 1;
      nb = std::min<std::size_t>(n, m);
      for (const BlockId s : pred_block.successors()) {
        queued_[s] = 1;
        nb = std::min<std::size_t>(nb, s);
      }
    }
    return total;
  }

private:
  ir::Function& fn_;
  const PercolationOptions& options_;
  analysis::Liveness liveness_;
  std::vector<char> queued_;  ///< Not known to have an empty movable set.
  MovableSet movable_;
  std::vector<BlockId> other_succs_;
  std::vector<BlockId> refreshed_;
  std::vector<Instr> hoisted_;
  std::vector<Instr> kept_;
};

}  // namespace

PercolationStats percolate(ir::Function& fn, const PercolationOptions& options) {
  PercolationStats stats;
  CfgSimplifier cfg(fn);
  std::optional<Hoister> hoister;
  for (int pass = 0; pass < options.max_passes; ++pass) {
    ++stats.passes;
    int work = 0;

    // Straight-line merging (move-op across unconditional edges en masse).
    const int merged = cfg.run();
    stats.blocks_merged += merged;
    work += merged;

    // Speculative hoisting above conditional branches.  The analyses are
    // built once, after the first run's dead blocks are dropped; from then
    // on dead blocks keep their index until percolation ends.
    if (options.speculate) {
      if (hoister) {
        hoister->absorb(cfg);
      } else {
        cfg.compact();
        hoister.emplace(fn, cfg, options);
      }
      const int moved = hoister->run(cfg);
      stats.ops_hoisted += moved;
      work += moved;
    }

    if (work == 0) break;
  }
  cfg.compact();
  return stats;
}

}  // namespace asipfb::opt
