#include "ir/verifier.hpp"

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string_view>
#include <vector>

#include "analysis/cfg.hpp"
#include "ir/printer.hpp"

namespace asipfb::ir {

namespace {

class FunctionVerifier {
public:
  FunctionVerifier(const Module& module, const Function& fn,
                   std::vector<std::string>& errors)
      : module_(module), fn_(fn), errors_(errors) {}

  void run() {
    check_params();
    check_structure();
    if (!errors_.empty()) return;  // Structure errors make later checks noisy.
    check_instructions();
    check_definite_assignment();
  }

private:
  void error(std::string message) {
    errors_.push_back("function '" + fn_.name + "': " + std::move(message));
  }

  void error_at(const Instr& instr, std::string message) {
    error(std::move(message) + " in '" + to_string(instr, &module_) + "'");
  }

  [[nodiscard]] bool reg_ok(Reg r) const { return r.id < fn_.reg_types.size(); }

  void check_params() {
    for (Reg p : fn_.params) {
      if (!reg_ok(p)) error("parameter register out of range");
    }
  }

  void check_structure() {
    if (fn_.blocks.empty()) {
      error("no blocks");
      return;
    }
    // Ids come from the function's next_instr_id counter, so a bitmap
    // sized by the largest id finds repeats without a node per id.
    InstrId max_id = 0;
    for (const auto& block : fn_.blocks) {
      for (const Instr& instr : block.instrs) {
        if (instr.id != kNoInstr) max_id = std::max(max_id, instr.id);
      }
    }
    std::vector<bool> seen_ids(std::size_t{max_id} + 1, false);
    for (std::size_t b = 0; b < fn_.blocks.size(); ++b) {
      const auto& block = fn_.blocks[b];
      if (block.instrs.empty()) {
        error("block " + std::to_string(b) + " is empty");
        continue;
      }
      for (std::size_t i = 0; i < block.instrs.size(); ++i) {
        const Instr& instr = block.instrs[i];
        const bool last = i + 1 == block.instrs.size();
        if (instr.is_terminator() != last) {
          error("block " + std::to_string(b) +
                (last ? " does not end with a terminator"
                      : " has a terminator mid-block"));
        }
        if (instr.id == kNoInstr || seen_ids[instr.id]) {
          error("duplicate or unassigned instruction id in block " +
                std::to_string(b));
        } else {
          seen_ids[instr.id] = true;
        }
      }
      // An unset target (kNoBlock) is out of range too.
      for (const BlockId s : block.successors()) {
        if (s >= fn_.blocks.size()) {
          error("block " + std::to_string(b) + " branches out of range");
        }
      }
    }
  }

  void expect_type(const Instr& instr, Reg r, Type t, std::string_view role) {
    if (!reg_ok(r)) {
      error_at(instr, std::string(role) + " register out of range");
      return;
    }
    if (fn_.type_of(r) != t) {
      error_at(instr, std::string(role) + " expected " +
                          std::string(to_string(t)) + ", got " +
                          std::string(to_string(fn_.type_of(r))));
    }
  }

  void expect_args(const Instr& instr, std::size_t n) {
    if (instr.args.size() != n) {
      error_at(instr, "expected " + std::to_string(n) + " operands, got " +
                          std::to_string(instr.args.size()));
    }
  }

  void expect_dst(const Instr& instr, Type t) {
    if (!instr.dst) {
      error_at(instr, "missing destination");
      return;
    }
    expect_type(instr, *instr.dst, t, "destination");
  }

  void check_instructions() {
    for (const auto& block : fn_.blocks) {
      for (const auto& instr : block.instrs) check_instr(instr);
    }
  }

  static constexpr std::string_view kOperandRoles[] = {"operand 0", "operand 1"};

  /// The type a table rule fixes; Void when the rule fixes none.
  [[nodiscard]] static Type fixed_type(TypeRule rule) {
    switch (rule) {
      case TypeRule::I32: return Type::I32;
      case TypeRule::F32: return Type::F32;
      default: return Type::Void;
    }
  }

  void check_instr(const Instr& instr) {
    // What the opcode's table row fixes: the operand count and types, and
    // the destination.
    const OpcodeInfo& row = info(instr.op);
    if (row.num_args >= 0) {
      const auto n = static_cast<std::size_t>(row.num_args);
      expect_args(instr, n);
      for (std::size_t i = 0; i < n && instr.args.size() == n; ++i) {
        const Type t = fixed_type(row.arg_types[i]);
        if (t != Type::Void) expect_type(instr, instr.args[i], t, kOperandRoles[i]);
      }
    }
    if (row.result == TypeRule::None) {
      if (instr.dst) error_at(instr, "unexpected destination");
    } else if (const Type t = fixed_type(row.result); t != Type::Void) {
      expect_dst(instr, t);
    }

    // What the instruction itself decides.
    using enum Opcode;
    switch (instr.op) {
      case Copy:
        // The destination takes the operand's type.
        if (instr.args.size() == 1 && !reg_ok(instr.args[0])) {
          error_at(instr, "src register out of range");
        } else if (instr.args.size() == 1) {
          expect_dst(instr, fn_.type_of(instr.args[0]));
        }
        break;
      case AddrGlobal:
        if (instr.imm_i < 0 ||
            static_cast<std::size_t>(instr.imm_i) >= module_.globals.size()) {
          error_at(instr, "global index out of range");
        }
        break;
      case AddrLocal:
        if (instr.imm_i < 0 ||
            static_cast<std::uint32_t>(instr.imm_i) >= std::max(1u, fn_.frame_words)) {
          error_at(instr, "frame offset out of range");
        }
        break;
      case Intrin: {
        expect_args(instr, 1);
        if (instr.intrinsic == IntrinsicKind::None) {
          error_at(instr, "intrinsic kind not set");
          break;
        }
        const Type t = intrinsic_type(instr.intrinsic);
        if (!instr.args.empty()) expect_type(instr, instr.args[0], t, "arg");
        expect_dst(instr, t);
        break;
      }
      case Ret:
        if (fn_.return_type == Type::Void) {
          expect_args(instr, 0);
        } else {
          expect_args(instr, 1);
          if (!instr.args.empty()) {
            expect_type(instr, instr.args[0], fn_.return_type, "return value");
          }
        }
        break;
      case Call: {
        if (instr.callee >= module_.functions.size()) {
          error_at(instr, "callee out of range");
          break;
        }
        const Function& callee = module_.functions[instr.callee];
        if (instr.args.size() != callee.params.size()) {
          error_at(instr, "call argument count mismatch");
          break;
        }
        for (std::size_t i = 0; i < instr.args.size(); ++i) {
          expect_type(instr, instr.args[i], callee.type_of(callee.params[i]),
                      "call argument");
        }
        if (instr.dst) {
          if (callee.return_type == Type::Void) {
            error_at(instr, "capturing result of void call");
          } else {
            expect_type(instr, *instr.dst, callee.return_type, "call result");
          }
        }
        break;
      }
      default:
        break;
    }
  }

  // Forward dataflow: the set of registers definitely assigned on entry to
  // each block is the intersection over predecessors of (entry + defs).
  // Any use outside the definitely-assigned set is reported.  Each set is
  // `words` 64-bit words of one flat per-block array.
  void check_definite_assignment() {
    using Word = std::uint64_t;
    const std::size_t nblocks = fn_.blocks.size();
    const std::size_t words = (fn_.reg_types.size() + 63) / 64;
    const auto bit = [](Reg r) { return Word{1} << (r.id % 64); };

    std::vector<Word> entry_in(words, 0);
    for (Reg p : fn_.params) {
      if (reg_ok(p)) entry_in[p.id / 64] |= bit(p);
    }
    std::vector<Word> in(nblocks * words, ~Word{0});
    std::copy(entry_in.begin(), entry_in.end(), in.begin());

    std::vector<Word> defs(nblocks * words, 0);
    for (std::size_t b = 0; b < nblocks; ++b) {
      for (const auto& instr : fn_.blocks[b].instrs) {
        if (instr.dst && reg_ok(*instr.dst)) {
          defs[b * words + instr.dst->id / 64] |= bit(*instr.dst);
        }
      }
    }
    const auto preds = analysis::predecessors(fn_);

    std::vector<Word> new_in(words);
    bool changed = true;
    while (changed) {
      changed = false;
      for (std::size_t b = 0; b < nblocks; ++b) {
        if (b == 0 || preds[b].empty()) {
          // First execution enters with only parameters defined, regardless
          // of any back edges into the entry block.  An unreachable block
          // is guaranteed nothing; use entry facts so we do not emit
          // spurious errors for dead code.
          new_in = entry_in;
        } else {
          std::fill(new_in.begin(), new_in.end(), ~Word{0});
          for (BlockId p : preds[b]) {
            for (std::size_t w = 0; w < words; ++w) {
              new_in[w] &= in[p * words + w] | defs[p * words + w];
            }
          }
        }
        const auto block_in = in.begin() + static_cast<std::ptrdiff_t>(b * words);
        if (!std::equal(new_in.begin(), new_in.end(), block_in)) {
          std::copy(new_in.begin(), new_in.end(), block_in);
          changed = true;
        }
      }
    }

    std::vector<Word> defined(words);
    for (std::size_t b = 0; b < nblocks; ++b) {
      std::copy_n(in.begin() + static_cast<std::ptrdiff_t>(b * words), words,
                  defined.begin());
      for (const auto& instr : fn_.blocks[b].instrs) {
        for (Reg a : instr.args) {
          if (reg_ok(a) && !(defined[a.id / 64] & bit(a))) {
            error_at(instr, "use of possibly-undefined register r" +
                                std::to_string(a.id));
            defined[a.id / 64] |= bit(a);  // Report each register once per block.
          }
        }
        if (instr.dst && reg_ok(*instr.dst)) {
          defined[instr.dst->id / 64] |= bit(*instr.dst);
        }
      }
    }
  }

  const Module& module_;
  const Function& fn_;
  std::vector<std::string>& errors_;
};

}  // namespace

std::vector<std::string> verify(const Module& module) {
  std::vector<std::string> errors;
  for (const auto& fn : module.functions) {
    FunctionVerifier(module, fn, errors).run();
  }
  return errors;
}

void verify_or_throw(const Module& module) {
  const auto errors = verify(module);
  if (errors.empty()) return;
  std::string message = "IR verification failed for module '" + module.name + "':";
  for (const auto& e : errors) {
    message += "\n  " + e;
  }
  throw std::logic_error(message);
}

}  // namespace asipfb::ir
