// Convenience builder for emitting IR into a function under construction.
//
// The builder tracks a current insertion block, allocates registers and
// instruction ids, and offers typed emit helpers that return the result
// register.  The BenchC lowering and all test fixtures build IR through it.
#pragma once

#include <cassert>
#include <string>

#include "ir/function.hpp"

namespace asipfb::ir {

class Builder {
public:
  /// Builds into an existing function; the function must outlive the builder.
  explicit Builder(Function& fn) : fn_(fn) {}

  [[nodiscard]] Function& function() { return fn_; }

  /// Creates a block and returns its id (does not change insertion point).
  BlockId create_block(std::string label) { return fn_.add_block(std::move(label)); }

  /// Moves the insertion point to the end of `block`.
  void set_insert_point(BlockId block) { current_ = block; }

  /// True once the current block has a terminator (no more emission allowed).
  [[nodiscard]] bool block_terminated() const {
    const auto& instrs = fn_.blocks[current_].instrs;
    return !instrs.empty() && instrs.back().is_terminator();
  }

  /// Appends an instruction to the current block, assigning its id.
  Instr& emit(Instr instr) {
    assert(!block_terminated() && "emitting into a terminated block");
    fn_.assign_id(instr);
    auto& instrs = fn_.blocks[current_].instrs;
    instrs.push_back(std::move(instr));
    return instrs.back();
  }

  // --- Typed helpers (allocate and return the destination register). ---

  Reg emit_binary(Opcode op, Type result, Reg lhs, Reg rhs) {
    Reg dst = fn_.new_reg(result);
    emit(make::binary(op, dst, lhs, rhs));
    return dst;
  }

  Reg emit_unary(Opcode op, Type result, Reg src) {
    Reg dst = fn_.new_reg(result);
    emit(make::unary(op, dst, src));
    return dst;
  }

  Reg emit_movi(std::int32_t value) {
    Reg dst = fn_.new_reg(Type::I32);
    emit(make::movi(dst, value));
    return dst;
  }

  Reg emit_movf(float value) {
    Reg dst = fn_.new_reg(Type::F32);
    emit(make::movf(dst, value));
    return dst;
  }

  Reg emit_copy(Reg src) {
    Reg dst = fn_.new_reg(fn_.type_of(src));
    emit(make::copy(dst, src));
    return dst;
  }

  Reg emit_addr_global(std::int32_t global_index) {
    Reg dst = fn_.new_reg(Type::I32);
    emit(make::addr_global(dst, global_index));
    return dst;
  }

  Reg emit_addr_local(std::int32_t frame_offset) {
    Reg dst = fn_.new_reg(Type::I32);
    emit(make::addr_local(dst, frame_offset));
    return dst;
  }

  Reg emit_load(Type elem, Reg addr) {
    const Opcode op = elem == Type::F32 ? Opcode::FLoad : Opcode::Load;
    Reg dst = fn_.new_reg(elem);
    emit(make::load(op, dst, addr));
    return dst;
  }

  void emit_store(Type elem, Reg addr, Reg value) {
    const Opcode op = elem == Type::F32 ? Opcode::FStore : Opcode::Store;
    emit(make::store(op, addr, value));
  }

  Reg emit_intrin(IntrinsicKind kind, Type result, std::vector<Reg> args) {
    Reg dst = fn_.new_reg(result);
    emit(make::intrin(kind, dst, std::move(args)));
    return dst;
  }

  void emit_br(BlockId target) { emit(make::br(target)); }
  void emit_cond_br(Reg cond, BlockId if_true, BlockId if_false) {
    emit(make::cond_br(cond, if_true, if_false));
  }
  void emit_ret() { emit(make::ret()); }
  void emit_ret_value(Reg value) { emit(make::ret_value(value)); }

  Reg emit_call(FuncId callee, Type result, std::vector<Reg> args) {
    Reg dst = fn_.new_reg(result);
    emit(make::call(dst, callee, std::move(args)));
    return dst;
  }

  void emit_call_void(FuncId callee, std::vector<Reg> args) {
    emit(make::call(std::nullopt, callee, std::move(args)));
  }

private:
  Function& fn_;
  BlockId current_ = 0;
};

}  // namespace asipfb::ir
