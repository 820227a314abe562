// Functions and basic blocks of the 3-address IR.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "ir/instr.hpp"
#include "ir/type.hpp"

namespace asipfb::ir {

/// The distinct branch targets of a terminator in target order: at most
/// two, held by value.  Keep a range in a local to call begin() and end()
/// separately; a range-for may take a temporary.
class Successors {
public:
  Successors() = default;
  explicit Successors(const Instr& term) {
    for_each_target(term, [&](BlockId b) {
      if (size_ == 0 || ids_[0] != b) ids_[size_++] = b;
    });
  }

  [[nodiscard]] const BlockId* begin() const { return ids_.data(); }
  [[nodiscard]] const BlockId* end() const { return ids_.data() + size_; }

private:
  std::array<BlockId, 2> ids_{};
  std::uint8_t size_ = 0;
};

/// A straight-line run of instructions ending in a terminator.
struct BasicBlock {
  std::string name;           ///< Label for printing ("entry", "L3", ...).
  std::vector<Instr> instrs;  ///< Last instruction is the terminator.

  /// Control-flow successors read from the terminator (none for Ret or an
  /// empty block).
  [[nodiscard]] Successors successors() const {
    return instrs.empty() ? Successors{} : Successors(instrs.back());
  }

  [[nodiscard]] const Instr& terminator() const { return instrs.back(); }
  [[nodiscard]] Instr& terminator() { return instrs.back(); }

  /// Dynamic execution count of the block (count of its terminator; all
  /// instructions of an unoptimized block share one count).
  [[nodiscard]] std::uint64_t exec_count() const {
    return instrs.empty() ? 0 : instrs.back().exec_count;
  }
};

/// A function: parameters, register type table, and a CFG of basic blocks.
/// Block 0 is the entry block.
struct Function {
  std::string name;
  Type return_type = Type::Void;
  std::vector<Reg> params;          ///< Parameter registers, in order.
  std::vector<Type> reg_types;      ///< Indexed by Reg::id.
  std::vector<BasicBlock> blocks;   ///< blocks[0] is the entry.
  std::uint32_t frame_words = 0;    ///< Local array storage, in 32-bit words.
  InstrId next_instr_id = 0;        ///< Id allocator for new instructions.

  /// Allocates a fresh virtual register of the given type.
  Reg new_reg(Type t) {
    reg_types.push_back(t);
    return Reg{static_cast<std::uint32_t>(reg_types.size() - 1)};
  }

  [[nodiscard]] Type type_of(Reg r) const { return reg_types.at(r.id); }

  /// Appends a new empty block and returns its id.
  BlockId add_block(std::string label) {
    blocks.push_back(BasicBlock{std::move(label), {}});
    return static_cast<BlockId>(blocks.size() - 1);
  }

  /// Assigns a fresh unique id (and matching origin) to an instruction.
  void assign_id(Instr& instr) {
    instr.id = next_instr_id++;
    if (instr.origin == kNoInstr) instr.origin = instr.id;
  }

  /// Total dynamic operation count across all blocks (profile must be set).
  [[nodiscard]] std::uint64_t total_dynamic_ops() const;

  /// Number of static instructions.
  [[nodiscard]] std::size_t instr_count() const;
};

/// Words of memory above the globals reserved for call frames.  Frame
/// allocation and the simulator's out-of-bounds checks of loads and stores
/// are relative to this fixed region size (sim::kFrameRegionWords).
inline constexpr std::uint32_t kFrameRegionWords = 1u << 20;

/// Most words of globals a module may lay out: the globals and the frame
/// region together must stay addressable by a 32-bit word address.
inline constexpr std::uint64_t kMaxGlobalWords = UINT32_MAX - kFrameRegionWords;

/// Most words of local arrays one function may declare: every frame offset
/// must fit the int32 immediate of AddrLocal.
inline constexpr std::uint64_t kMaxFrameWords = INT32_MAX;

/// A named global array in the flat data memory.
struct GlobalArray {
  std::string name;
  Type elem_type = Type::I32;
  std::uint32_t size = 0;          ///< Element count (one word each).
  std::uint32_t base_address = 0;  ///< Assigned at module layout time.
  std::vector<std::uint32_t> init; ///< Raw 32-bit initial words (may be empty).
};

/// A whole program: globals plus functions.  Function 0 by convention is not
/// special; lookup by name finds the entry ("main").
struct Module {
  std::string name;
  std::vector<GlobalArray> globals;
  std::vector<Function> functions;

  /// Index of the named function, or kNoFunc.
  [[nodiscard]] FuncId find_function(std::string_view fn_name) const;

  /// Index of the named global, or -1.
  [[nodiscard]] int find_global(std::string_view global_name) const;

  /// Lays out globals in memory starting at address 0 and returns the total
  /// number of words used (start of the local-frame region).  The total is
  /// summed in 64 bits; a layout above kMaxGlobalWords does not fit the
  /// simulator's memory (its base addresses wrap), and sim::decode rejects
  /// it.
  std::uint64_t layout_globals();

  /// Sum of total_dynamic_ops over all functions.
  [[nodiscard]] std::uint64_t total_dynamic_ops() const;

  /// Sum of static instruction counts over all functions.
  [[nodiscard]] std::size_t instr_count() const;
};

}  // namespace asipfb::ir
