#include "analysis/liveness.hpp"

#include <algorithm>

namespace asipfb::analysis {

using ir::BlockId;

Liveness::Liveness(const ir::Function& fn) : Liveness(fn, predecessors(fn)) {}

Liveness::Liveness(const ir::Function& fn, const Preds& preds)
    : words_((fn.reg_types.size() + 63) / 64),
      bits_(fn.blocks.size() * 3 * words_, 0),
      succs_(fn.blocks.size()),
      queued_(fn.blocks.size(), 1) {
  const std::size_t nblocks = fn.blocks.size();
  work_.reserve(nblocks);
  for (std::size_t b = 0; b < nblocks; ++b) {
    const auto id = static_cast<BlockId>(b);
    succs_[b] = fn.blocks[b].successors();
    summarize(fn.blocks[b], id);
    // Pushed in index order so the stack pops in reverse index order, a
    // cheap approximation of post-order for this backward problem.
    work_.push_back(id);
  }
  solve(preds);
}

void Liveness::refresh(const ir::Function& fn, const Preds& preds,
                       std::span<const BlockId> touched) {
  for (const BlockId b : touched) {
    succs_[b] = fn.blocks[b].successors();
    summarize(fn.blocks[b], b);
  }
  for (auto it = touched.end(); it != touched.begin();) {
    const BlockId b = *--it;
    if (!queued_[b]) {
      queued_[b] = 1;
      work_.push_back(b);
    }
  }
  solve(preds);
}

void Liveness::summarize(const ir::BasicBlock& bb, BlockId block) {
  std::uint64_t* use = row(block, kUse);
  std::uint64_t* def = row(block, kDef);
  std::fill(use, use + words_, 0);
  std::fill(def, def + words_, 0);
  for (const auto& instr : bb.instrs) {
    for (const ir::Reg a : instr.args) {
      // Read before any write in this block: upward exposed.
      if (!test(def, a)) add(use, a);
    }
    if (instr.dst) add(def, *instr.dst);
  }
}

void Liveness::solve(const Preds& preds) {
  while (!work_.empty()) {
    const BlockId b = work_.back();
    work_.pop_back();
    queued_[b] = 0;

    std::uint64_t* in = row(b, kIn);
    const std::uint64_t* use = row(b, kUse);
    const std::uint64_t* def = row(b, kDef);
    bool changed = false;
    for (std::size_t w = 0; w < words_; ++w) {
      std::uint64_t out = 0;
      for (const BlockId s : succs_[b]) out |= row(s, kIn)[w];
      const std::uint64_t next = use[w] | (out & ~def[w]);
      changed |= next != in[w];
      in[w] = next;
    }
    if (!changed) continue;
    for (const BlockId p : preds[b]) {
      if (!queued_[p]) {
        queued_[p] = 1;
        work_.push_back(p);
      }
    }
  }
}

}  // namespace asipfb::analysis
