// IR interpreter and profiler (the paper's step-2 simulator).
//
// Executes a module's `main` over a flat word-addressed memory, optionally
// annotating every instruction with its dynamic execution count.  Loads use
// speculative semantics (out-of-bounds reads return 0 and are counted)
// because percolation scheduling may legally hoist loads above their guard
// branches; stores are always checked and fault on out-of-bounds addresses.
//
// Construction decodes the module once into a dense sim::Program
// (sim/program.hpp).  run() interprets that flat bytecode with an
// explicit call-stack of frames, so call depth is bounded by
// SimOptions::max_call_depth alone, never by the C++ stack.  The decoded
// program is reused across runs: the decode-once/run-many pattern backs
// pipeline::prepare_multi(), which calls reset_memory() and rebinds
// inputs between data sets instead of rebuilding a Machine.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "ir/function.hpp"
#include "sim/program.hpp"

namespace asipfb::sim {

/// Thrown on machine faults (OOB store, division by zero, step overrun...)
/// and on decode-time structural defects (sim/decode.hpp).
class SimError : public std::runtime_error {
public:
  using std::runtime_error::runtime_error;
};

/// Words of memory above the globals reserved for call frames.  Frame
/// allocation and the out-of-bounds checks of loads and stores are
/// relative to this fixed region size.
inline constexpr std::uint32_t kFrameRegionWords = 1u << 20;

struct SimOptions {
  std::uint64_t max_steps = 2'000'000'000;  ///< Fault when exceeded.
  int max_call_depth = 256;                 ///< Fault when exceeded.
  bool profile = false;                     ///< Bump Instr::exec_count.
};

struct SimResult {
  std::int32_t exit_code = 0;        ///< Return value of main.
  std::uint64_t steps = 0;           ///< Dynamic operation count.
  std::uint64_t cycles = 0;          ///< Steps minus fused followers — what a
                                     ///< chained-instruction ASIP would take.
  std::uint64_t oob_loads = 0;       ///< Speculative loads that missed memory.
};

/// One simulation instance bound to a module.  Write input globals, run,
/// then read output globals.
class Machine {
public:
  /// Decodes the module.  `module` must outlive the machine and must not
  /// be structurally modified while it is in use; with SimOptions::profile
  /// a run mutates the module's exec_count annotations.
  explicit Machine(ir::Module& module);

  /// Copies values into a named global (must exist, sizes must fit).
  void write_global(std::string_view name, std::span<const std::int32_t> values);
  void write_global(std::string_view name, std::span<const float> values);

  /// Reads a global's current contents.
  [[nodiscard]] std::vector<std::int32_t> read_global_i32(std::string_view name) const;
  [[nodiscard]] std::vector<float> read_global_f32(std::string_view name) const;

  /// Resets memory to the module's initial image (globals re-initialized,
  /// frames cleared).  Call between runs to rebind fresh inputs.
  void reset_memory();

  /// Runs the entry function (default "main", no arguments).  Every run
  /// starts from a zeroed frame region; globals keep their current
  /// contents (inputs written via write_global persist, and a prior run's
  /// global stores remain visible), so repeated runs are deterministic —
  /// use reset_memory() for a fully fresh image.
  SimResult run(const SimOptions& options = {}, std::string_view entry = "main");

  /// The decoded form this machine executes.
  [[nodiscard]] const Program& program() const { return program_; }

  /// tripbench-only (see sim::fuse_default() in pipeline/session.hpp):
  /// the benchmark times a "sim.jit_compile" span around this call from
  /// when the simulator had a JIT.  There is none, so it is always false.
  [[nodiscard]] bool jit_ready() { return false; }

private:
  struct Frame {
    std::uint32_t func = 0;        ///< Decoded function index.
    std::uint32_t resume_ip = 0;   ///< Caller continues here after Ret.
    std::uint32_t reg_base = 0;    ///< This frame's window into regs_.
    std::uint32_t frame_base = 0;  ///< This frame's local memory base.
    std::uint32_t ret_slot = kNoSlot;  ///< Absolute caller slot for the result.
  };

  [[nodiscard]] const ir::GlobalArray& global_by_name(std::string_view name) const;

  /// The interpreter's dispatch loop over program_.code.
  template <bool Profile>
  SimResult exec(const SimOptions& options, ir::FuncId entry);

  /// Expands block_counts_ into the per-instruction profile_ table.
  void expand_profile();

  /// After a fault: every active frame's current block was counted as one
  /// full entry but executed only up to its stop instruction (the faulting
  /// instruction in the innermost frame, the pending Call in each caller);
  /// take the never-executed tails back out of profile_.
  void fixup_profile(std::uint32_t stop_ip);

  ir::Module& module_;
  Program program_;
  std::vector<std::uint32_t> memory_;
  std::uint32_t globals_end_ = 0;
  /// One past the highest frame-region word any run has stored to since the
  /// region was last cleared.  Frame memory is only ever dirtied by stores
  /// (frame allocation writes nothing), so clearing [globals_end_,
  /// frame_dirty_end_) restores the all-zero frame image at a cost
  /// proportional to memory actually touched, not the region size.
  std::uint32_t frame_dirty_end_ = 0;
  std::vector<std::uint32_t> regs_;       ///< Frame-windowed register stack.
  std::vector<Frame> frames_;
  std::vector<std::uint64_t> profile_;       ///< Per-flat-instruction counters.
  std::vector<std::uint64_t> block_counts_;  ///< Per-counting-block counters.
  std::uint32_t fault_ip_ = 0;  ///< Set at every in-loop throw site, for
                                ///< the faulted-run profile fixup.
};

/// Zeroes all exec_count annotations in the module.
void clear_profile(ir::Module& module);

/// Compiles nothing — convenience: runs a profiled simulation and returns
/// both the result and the module's total dynamic op count.
SimResult profile_run(ir::Module& module);

}  // namespace asipfb::sim
