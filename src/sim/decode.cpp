#include "sim/decode.hpp"

#include <limits>
#include <string>

#include "sim/machine.hpp"

namespace asipfb::sim {

namespace {

[[noreturn]] void fail(const ir::Function& fn, const std::string& what) {
  throw SimError("decode error in " + fn.name + ": " + what);
}

/// Register-operand slot with bounds checking against the function's
/// register table — the last place ids are validated; the interpreter
/// indexes frames unchecked.
std::uint32_t slot(const ir::Function& fn, const ir::Instr& in, std::size_t i) {
  if (i >= in.args.size()) fail(fn, "missing operand of " + std::string(ir::to_string(in.op)));
  const std::uint32_t id = in.args[i].id;
  if (id >= fn.reg_types.size()) fail(fn, "operand register out of range");
  return id;
}

}  // namespace

Program decode(ir::Module& module) {
  Program p;
  // AddrGlobal resolves to absolute addresses, so layout comes first.
  const std::uint64_t global_words = module.layout_globals();
  if (global_words > ir::kMaxGlobalWords) {
    throw SimError("globals do not fit in simulator memory: " +
                   std::to_string(global_words) + " words, at most " +
                   std::to_string(ir::kMaxGlobalWords));
  }
  p.globals_end = static_cast<std::uint32_t>(global_words);
  p.functions.reserve(module.functions.size());

  // Pass 1: flat entry points and parameter slots for every function, so
  // calls can be resolved regardless of definition order.
  std::uint32_t flat = 0;
  for (const auto& fn : module.functions) {
    DecodedFunction df;
    df.name = fn.name;
    df.entry = flat;
    df.num_regs = static_cast<std::uint32_t>(fn.reg_types.size());
    df.frame_words = fn.frame_words;
    df.params_offset = static_cast<std::uint32_t>(p.param_slots.size());
    df.num_params = static_cast<std::uint32_t>(fn.params.size());
    for (const ir::Reg param : fn.params) {
      if (param.id >= fn.reg_types.size()) fail(fn, "parameter register out of range");
      p.param_slots.push_back(param.id);
    }
    if (fn.blocks.empty()) fail(fn, "function has no blocks");
    for (const auto& block : fn.blocks) {
      if (block.instrs.empty()) fail(fn, "empty block '" + block.name + "'");
      if (!block.instrs.back().is_terminator()) {
        fail(fn, "block '" + block.name + "' does not end in a terminator");
      }
      flat += static_cast<std::uint32_t>(block.instrs.size());
    }
    p.functions.push_back(std::move(df));
  }
  p.code.reserve(flat);
  p.source.reserve(flat);

  // Pass 2: encode, with block targets resolved to flat indices.
  for (std::size_t f = 0; f < module.functions.size(); ++f) {
    ir::Function& fn = module.functions[f];
    std::vector<std::uint32_t> block_at(fn.blocks.size());
    std::uint32_t offset = p.functions[f].entry;
    for (std::size_t b = 0; b < fn.blocks.size(); ++b) {
      block_at[b] = offset;
      offset += static_cast<std::uint32_t>(fn.blocks[b].instrs.size());
    }
    auto target = [&](ir::BlockId id) -> std::uint32_t {
      if (id >= fn.blocks.size()) fail(fn, "branch target out of range");
      return block_at[id];
    };

    for (auto& block : fn.blocks) {
      for (ir::Instr& in : block.instrs) {
        DecodedInstr d;
        d.op = in.op;
        d.intrinsic = in.intrinsic;
        d.cycle_cost = in.fused_follower ? 0 : 1;
        d.imm_i = in.imm_i;
        d.imm_f = in.imm_f;
        if (in.dst.has_value()) {
          if (in.dst->id >= fn.reg_types.size()) fail(fn, "dst register out of range");
          d.dst = in.dst->id;
        }

        // Register operands: the opcode's fixed count, or, for Intrin, Ret
        // and Call, what the instruction carries.
        const ir::OpcodeInfo& row = ir::info(in.op);
        if (row.num_args >= 1) d.a = slot(fn, in, 0);
        if (row.num_args >= 2) d.b = slot(fn, in, 1);
        // Branch targets as flat indices: the first in aux0, the second in aux1.
        int k = 0;
        ir::for_each_target(in, [&](ir::BlockId t) { (k++ == 0 ? d.aux0 : d.aux1) = target(t); });

        using enum ir::Opcode;
        switch (in.op) {
          case AddrGlobal: {
            const auto index = static_cast<std::size_t>(in.imm_i);
            if (in.imm_i < 0 || index >= module.globals.size()) {
              fail(fn, "global index out of range");
            }
            d.aux0 = module.globals[index].base_address;
            break;
          }
          case Intrin:
            d.a = slot(fn, in, 0);
            break;
          case Ret:
            if (!in.args.empty()) {
              d.num_args = 1;
              d.a = slot(fn, in, 0);
            }
            break;
          case Call: {
            if (in.callee >= module.functions.size()) fail(fn, "callee out of range");
            const auto& callee = module.functions[in.callee];
            if (in.args.size() != callee.params.size()) {
              fail(fn, "argument count mismatch calling " + callee.name);
            }
            if (in.args.size() > std::numeric_limits<std::uint8_t>::max()) {
              fail(fn, "too many call arguments");
            }
            d.aux0 = in.callee;
            d.aux1 = static_cast<std::uint32_t>(p.call_arg_slots.size());
            d.num_args = static_cast<std::uint8_t>(in.args.size());
            for (std::size_t i = 0; i < in.args.size(); ++i) {
              p.call_arg_slots.push_back(slot(fn, in, i));
            }
            break;
          }
          default:
            break;
        }
        // The interpreter writes result slots unchecked; a value op with no
        // dst would scribble past the frame window (a Call's dst is optional).
        if (in.op != Call && row.has_result() && d.dst == kNoSlot) {
          fail(fn, "missing dst on " + std::string(ir::to_string(in.op)));
        }
        p.code.push_back(d);
        p.source.push_back(&in);
      }
    }
  }

  // Counting blocks for block-level profiling: a block starts at each
  // function entry and after each terminator.  Branch targets are always
  // IR block starts, and every IR block ends in a terminator, so targets
  // need no extra leader marking.
  p.block_of.resize(p.code.size());
  for (std::size_t f = 0; f < p.functions.size(); ++f) {
    DecodedFunction& df = p.functions[f];
    const std::uint32_t end = f + 1 < p.functions.size()
                                  ? p.functions[f + 1].entry
                                  : static_cast<std::uint32_t>(p.code.size());
    bool leader = true;
    for (std::uint32_t ip = df.entry; ip < end; ++ip) {
      if (leader) p.block_start.push_back(ip);
      p.block_of[ip] = static_cast<std::uint32_t>(p.block_start.size() - 1);
      leader = ir::info(p.code[ip].op).is_terminator;
    }
    df.entry_block = df.entry < end ? p.block_of[df.entry] : 0;
  }
  p.block_start.push_back(static_cast<std::uint32_t>(p.code.size()));
  return p;
}

}  // namespace asipfb::sim
