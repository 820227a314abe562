#include "frontend/lower.hpp"

#include <bit>
#include <cassert>
#include <optional>
#include <stdexcept>

#include "ir/builder.hpp"

namespace asipfb::fe {

namespace {

using ir::BlockId;
using ir::Builder;
using ir::Opcode;
using ir::Reg;
using ir::Type;

class Lowerer {
public:
  Lowerer(TranslationUnit& unit, const SemaResult& sema, std::string module_name)
      : unit_(unit), sema_(sema) {
    module_.name = std::move(module_name);
  }

  ir::Module run() {
    lower_globals();
    declare_functions();
    for (std::size_t i = 0; i < unit_.functions.size(); ++i) {
      lower_function(unit_.functions[i], module_.functions[i]);
    }
    module_.layout_globals();
    return std::move(module_);
  }

private:
  void lower_globals() {
    for (auto& g : unit_.globals) {
      ir::GlobalArray out;
      out.name = g.name;
      out.elem_type = g.type;
      out.size = static_cast<std::uint32_t>(g.is_array ? g.array_size : 1);
      for (const auto& init : g.init) {
        const auto value = const_eval(*init);
        assert(value && "sema guarantees constant initializers");
        if (g.type == Type::F32) {
          out.init.push_back(std::bit_cast<std::uint32_t>(value->as_f32()));
        } else {
          out.init.push_back(static_cast<std::uint32_t>(value->as_i32()));
        }
      }
      g.sym->global_index = static_cast<std::int32_t>(module_.globals.size());
      module_.globals.push_back(std::move(out));
    }
  }

  /// Creates all function shells first so calls can reference any function.
  void declare_functions() {
    for (const auto& sig : sema_.functions) {
      ir::Function fn;
      fn.name = sig.name;
      fn.return_type = sig.return_type;
      module_.functions.push_back(std::move(fn));
    }
  }

  void lower_function(FunctionDecl& decl, ir::Function& fn) {
    fn_ = &fn;
    Builder builder(fn);
    b_ = &builder;
    const BlockId entry = builder.create_block("entry");
    builder.set_insert_point(entry);

    for (std::size_t p = 0; p < decl.param_syms.size(); ++p) {
      VarSym* sym = decl.param_syms[p];
      const Reg reg = fn.new_reg(sym->type);
      fn.params.push_back(reg);
      sym->reg_id = reg.id;
      sym->reg_assigned = true;
    }

    lower_stmt(*decl.body);

    // Terminate every dangling block with a default return.
    for (auto& block : fn.blocks) {
      if (!block.instrs.empty() && block.instrs.back().is_terminator()) continue;
      b_->set_insert_point(static_cast<BlockId>(&block - fn.blocks.data()));
      emit_default_return();
    }
    b_ = nullptr;
    fn_ = nullptr;
  }

  void emit_default_return() {
    switch (fn_->return_type) {
      case Type::Void:
        b_->emit_ret();
        break;
      case Type::I32:
        b_->emit_ret_value(b_->emit_movi(0));
        break;
      case Type::F32:
        b_->emit_ret_value(b_->emit_movf(0.0f));
        break;
    }
  }

  // --- Statements ----------------------------------------------------------

  void lower_stmt(Stmt& stmt) {
    // Statements after a terminator (e.g. code after `return`) go into an
    // unreachable continuation block so emission stays structurally valid.
    if (b_->block_terminated()) {
      const BlockId dead = b_->create_block("dead");
      b_->set_insert_point(dead);
    }
    switch (stmt.kind) {
      case StmtKind::Block:
        for (auto& s : stmt.body) lower_stmt(*s);
        break;
      case StmtKind::Decl:
        lower_decl(stmt);
        break;
      case StmtKind::ExprStmt:
        lower_expr_stmt(*stmt.expr);
        break;
      case StmtKind::If:
        lower_if(stmt);
        break;
      case StmtKind::While:
        lower_while(stmt);
        break;
      case StmtKind::For:
        lower_for(stmt);
        break;
      case StmtKind::Return:
        if (stmt.expr) {
          b_->emit_ret_value(eval(*stmt.expr));
        } else {
          b_->emit_ret();
        }
        break;
      case StmtKind::Break:
        assert(!break_targets_.empty());
        b_->emit_br(break_targets_.back());
        break;
      case StmtKind::Continue:
        assert(!continue_targets_.empty());
        b_->emit_br(continue_targets_.back());
        break;
    }
  }

  void lower_decl(Stmt& stmt) {
    VarSym* sym = stmt.sym;
    if (sym->is_array) {
      sym->frame_offset = static_cast<std::int32_t>(fn_->frame_words);
      fn_->frame_words += static_cast<std::uint32_t>(sym->array_size);
      return;
    }
    const Reg reg = fn_->new_reg(sym->type);
    sym->reg_id = reg.id;
    sym->reg_assigned = true;
    if (stmt.decl_init) {
      eval(*stmt.decl_init, reg);
    }
  }

  void lower_expr_stmt(Expr& expr) {
    // Void calls at statement level take the no-result form directly.
    if (expr.kind == ExprKind::Call && expr.builtin < 0 && expr.callee_index >= 0 &&
        sema_.functions[static_cast<std::size_t>(expr.callee_index)].return_type ==
            Type::Void) {
      std::vector<Reg> args;
      args.reserve(expr.children.size());
      for (auto& arg : expr.children) args.push_back(eval(*arg));
      b_->emit_call_void(static_cast<ir::FuncId>(expr.callee_index), std::move(args));
      return;
    }
    (void)eval(expr);
  }

  void lower_if(Stmt& stmt) {
    const Reg cond = eval_condition(*stmt.expr);
    const BlockId then_block = b_->create_block("if.then");
    const bool has_else = stmt.body.size() > 1;
    const BlockId else_block = has_else ? b_->create_block("if.else") : ir::kNoBlock;
    const BlockId merge = b_->create_block("if.end");
    b_->emit_cond_br(cond, then_block, has_else ? else_block : merge);

    b_->set_insert_point(then_block);
    lower_stmt(*stmt.body[0]);
    if (!b_->block_terminated()) b_->emit_br(merge);

    if (has_else) {
      b_->set_insert_point(else_block);
      lower_stmt(*stmt.body[1]);
      if (!b_->block_terminated()) b_->emit_br(merge);
    }
    b_->set_insert_point(merge);
  }

  void lower_while(Stmt& stmt) {
    const BlockId header = b_->create_block("while.cond");
    const BlockId body = b_->create_block("while.body");
    const BlockId exit = b_->create_block("while.end");
    b_->emit_br(header);

    b_->set_insert_point(header);
    const Reg cond = eval_condition(*stmt.expr);
    b_->emit_cond_br(cond, body, exit);

    break_targets_.push_back(exit);
    continue_targets_.push_back(header);
    b_->set_insert_point(body);
    lower_stmt(*stmt.body[0]);
    if (!b_->block_terminated()) b_->emit_br(header);
    break_targets_.pop_back();
    continue_targets_.pop_back();

    b_->set_insert_point(exit);
  }

  void lower_for(Stmt& stmt) {
    if (stmt.init_stmt) lower_stmt(*stmt.init_stmt);
    const BlockId header = b_->create_block("for.cond");
    const BlockId body = b_->create_block("for.body");
    const BlockId latch = b_->create_block("for.step");
    const BlockId exit = b_->create_block("for.end");
    b_->emit_br(header);

    b_->set_insert_point(header);
    if (stmt.expr) {
      const Reg cond = eval_condition(*stmt.expr);
      b_->emit_cond_br(cond, body, exit);
    } else {
      b_->emit_br(body);
    }

    break_targets_.push_back(exit);
    continue_targets_.push_back(latch);
    b_->set_insert_point(body);
    lower_stmt(*stmt.body[0]);
    if (!b_->block_terminated()) b_->emit_br(latch);
    break_targets_.pop_back();
    continue_targets_.pop_back();

    b_->set_insert_point(latch);
    if (stmt.expr2) (void)eval(*stmt.expr2);
    b_->emit_br(header);

    b_->set_insert_point(exit);
  }

  // --- Expressions ---------------------------------------------------------

  /// Evaluates a branch condition to an i32 register (non-zero = taken).
  Reg eval_condition(Expr& expr) {
    const Reg value = eval(expr);
    if (fn_->type_of(value) == Type::F32) {
      const Reg zero = b_->emit_movf(0.0f);
      return b_->emit_binary(Opcode::FCmpNe, Type::I32, value, zero);
    }
    return value;
  }

  /// Evaluates `expr`; when `dst` is given the result is produced in `dst`
  /// (so scalar assignments avoid copy instructions, like gcc's 3AC).
  Reg eval(Expr& expr, std::optional<Reg> dst = std::nullopt) {
    switch (expr.kind) {
      case ExprKind::IntLit: {
        const auto value = static_cast<std::int32_t>(expr.int_val);
        if (dst) {
          b_->emit(ir::make::movi(*dst, value));
          return *dst;
        }
        return b_->emit_movi(value);
      }
      case ExprKind::FloatLit: {
        const auto value = static_cast<float>(expr.float_val);
        if (dst) {
          b_->emit(ir::make::movf(*dst, value));
          return *dst;
        }
        return b_->emit_movf(value);
      }
      case ExprKind::Var:
        return eval_var(expr, dst);
      case ExprKind::Index: {
        const Reg addr = element_address(expr);
        return emit_load(expr.sym->type, addr, dst);
      }
      case ExprKind::Call:
        return eval_call(expr, dst);
      case ExprKind::Unary:
        return eval_unary(expr, dst);
      case ExprKind::Binary:
        return eval_binary(expr, dst);
      case ExprKind::Assign:
        return eval_assign(expr, dst);
      case ExprKind::IncDec:
        return eval_incdec(expr, dst);
      case ExprKind::Cast: {
        Expr& inner = *expr.children[0];
        const Reg src = eval(inner);
        if (inner.type == expr.cast_type) {
          return into_dst(src, dst);
        }
        const Opcode op =
            expr.cast_type == Type::F32 ? Opcode::IntToFp : Opcode::FpToInt;
        if (dst) {
          b_->emit(ir::make::unary(op, *dst, src));
          return *dst;
        }
        return b_->emit_unary(op, expr.cast_type, src);
      }
    }
    throw std::logic_error("unhandled expression kind");
  }

  /// Moves `value` into `dst` when a destination was requested.
  Reg into_dst(Reg value, std::optional<Reg> dst) {
    if (!dst || dst->id == value.id) return value;
    b_->emit(ir::make::copy(*dst, value));
    return *dst;
  }

  Reg eval_var(Expr& expr, std::optional<Reg> dst) {
    VarSym* sym = expr.sym;
    if (sym->storage == Storage::Global) {
      const Reg addr = b_->emit_addr_global(sym->global_index);
      return emit_load(sym->type, addr, dst);
    }
    assert(sym->reg_assigned && "scalar local lowered before use");
    return into_dst(Reg{sym->reg_id}, dst);
  }

  Reg emit_load(Type elem, Reg addr, std::optional<Reg> dst) {
    const Opcode op = elem == Type::F32 ? Opcode::FLoad : Opcode::Load;
    if (dst) {
      b_->emit(ir::make::load(op, *dst, addr));
      return *dst;
    }
    return b_->emit_load(elem, addr);
  }

  /// Address of `name[index]` (or of a scalar global when expr is Var).
  Reg element_address(Expr& expr) {
    VarSym* sym = expr.sym;
    Reg base;
    if (sym->storage == Storage::Global) {
      base = b_->emit_addr_global(sym->global_index);
    } else {
      base = b_->emit_addr_local(sym->frame_offset);
    }
    if (expr.kind == ExprKind::Var) return base;
    const Reg index = eval(*expr.children[0]);
    return b_->emit_binary(Opcode::Add, Type::I32, base, index);
  }

  Reg eval_call(Expr& expr, std::optional<Reg> dst) {
    if (expr.builtin >= 0) {
      const auto kind = static_cast<ir::IntrinsicKind>(expr.builtin);
      const Reg arg = eval(*expr.children[0]);
      if (dst) {
        b_->emit(ir::make::intrin(kind, *dst, {arg}));
        return *dst;
      }
      return b_->emit_intrin(kind, ir::intrinsic_type(kind), {arg});
    }
    const auto callee = static_cast<ir::FuncId>(expr.callee_index);
    const auto& sig = sema_.functions[static_cast<std::size_t>(expr.callee_index)];
    std::vector<Reg> args;
    args.reserve(expr.children.size());
    for (auto& arg : expr.children) args.push_back(eval(*arg));
    if (sig.return_type == Type::Void) {
      // Void call in a value position: emit the call, yield a dummy zero.
      b_->emit_call_void(callee, std::move(args));
      return dst ? eval_zero(Type::I32, dst) : b_->emit_movi(0);
    }
    if (dst) {
      b_->emit(ir::make::call(*dst, callee, std::move(args)));
      return *dst;
    }
    return b_->emit_call(callee, sig.return_type, std::move(args));
  }

  Reg eval_zero(Type type, std::optional<Reg> dst) {
    if (type == Type::F32) {
      if (dst) {
        b_->emit(ir::make::movf(*dst, 0.0f));
        return *dst;
      }
      return b_->emit_movf(0.0f);
    }
    if (dst) {
      b_->emit(ir::make::movi(*dst, 0));
      return *dst;
    }
    return b_->emit_movi(0);
  }

  Reg eval_unary(Expr& expr, std::optional<Reg> dst) {
    const Reg src = eval(*expr.children[0]);
    Opcode op = Opcode::Neg;
    Type result = expr.type;
    switch (expr.op) {
      case Tok::Minus:
        op = expr.type == Type::F32 ? Opcode::FNeg : Opcode::Neg;
        break;
      case Tok::Tilde:
        op = Opcode::Not;
        break;
      case Tok::Bang: {
        const Reg zero = b_->emit_movi(0);
        if (dst) {
          b_->emit(ir::make::binary(Opcode::CmpEq, *dst, src, zero));
          return *dst;
        }
        return b_->emit_binary(Opcode::CmpEq, Type::I32, src, zero);
      }
      default:
        throw std::logic_error("unhandled unary operator");
    }
    if (dst) {
      b_->emit(ir::make::unary(op, *dst, src));
      return *dst;
    }
    return b_->emit_unary(op, result, src);
  }

  [[nodiscard]] static Opcode binary_opcode(Tok op, Type operand_type) {
    const bool fp = operand_type == Type::F32;
    switch (op) {
      case Tok::Plus: return fp ? Opcode::FAdd : Opcode::Add;
      case Tok::Minus: return fp ? Opcode::FSub : Opcode::Sub;
      case Tok::Star: return fp ? Opcode::FMul : Opcode::Mul;
      case Tok::Slash: return fp ? Opcode::FDiv : Opcode::Div;
      case Tok::Percent: return Opcode::Rem;
      case Tok::Shl: return Opcode::Shl;
      case Tok::Shr: return Opcode::Shr;
      case Tok::Amp: return Opcode::And;
      case Tok::Pipe: return Opcode::Or;
      case Tok::Caret: return Opcode::Xor;
      case Tok::Eq: return fp ? Opcode::FCmpEq : Opcode::CmpEq;
      case Tok::Ne: return fp ? Opcode::FCmpNe : Opcode::CmpNe;
      case Tok::Lt: return fp ? Opcode::FCmpLt : Opcode::CmpLt;
      case Tok::Le: return fp ? Opcode::FCmpLe : Opcode::CmpLe;
      case Tok::Gt: return fp ? Opcode::FCmpGt : Opcode::CmpGt;
      case Tok::Ge: return fp ? Opcode::FCmpGe : Opcode::CmpGe;
      default: throw std::logic_error("unhandled binary operator");
    }
  }

  Reg eval_binary(Expr& expr, std::optional<Reg> dst) {
    if (expr.op == Tok::AmpAmp || expr.op == Tok::PipePipe) {
      return eval_short_circuit(expr, dst);
    }
    // Strength-reduce constant integer multiplies (see header comment).
    if (expr.op == Tok::Star && expr.type == Type::I32) {
      if (Reg out; strength_reduce_mul(expr, dst, out)) return out;
    }
    Expr& lhs_expr = *expr.children[0];
    Expr& rhs_expr = *expr.children[1];
    const Reg lhs = eval(lhs_expr);
    const Reg rhs = eval(rhs_expr);
    const Type operand_type = lhs_expr.type;
    const Opcode op = binary_opcode(expr.op, operand_type);
    if (dst) {
      b_->emit(ir::make::binary(op, *dst, lhs, rhs));
      return *dst;
    }
    return b_->emit_binary(op, expr.type, lhs, rhs);
  }

  /// x * c for power-of-two (one shift) or two-bit constants >= 6
  /// (shift+shift+add — the classic gcc scaling pattern that yields the
  /// paper's add-shift-add address chains).  Returns false when not applied.
  bool strength_reduce_mul(Expr& expr, std::optional<Reg> dst, Reg& out) {
    Expr* const_side = nullptr;
    Expr* value_side = nullptr;
    std::int32_t c = 0;
    for (int side = 0; side < 2; ++side) {
      const auto value = const_eval(*expr.children[side]);
      if (value && value->type == Type::I32) {
        const_side = expr.children[side].get();
        value_side = expr.children[1 - side].get();
        c = value->as_i32();
        break;
      }
    }
    if (const_side == nullptr || c < 0) return false;
    if (c == 0) {
      out = eval_zero(Type::I32, dst);
      return true;
    }
    if (c == 1) {
      out = eval(*value_side, dst);
      return true;
    }
    const auto uc = static_cast<std::uint32_t>(c);
    if (std::has_single_bit(uc)) {
      const Reg x = eval(*value_side);
      const Reg amount = b_->emit_movi(std::countr_zero(uc));
      if (dst) {
        b_->emit(ir::make::binary(Opcode::Shl, *dst, x, amount));
        out = *dst;
      } else {
        out = b_->emit_binary(Opcode::Shl, Type::I32, x, amount);
      }
      return true;
    }
    if (std::popcount(uc) == 2 && c >= 6) {
      const int high = 31 - std::countl_zero(uc);
      const int low = std::countr_zero(uc);
      const Reg x = eval(*value_side);
      const Reg amount_high = b_->emit_movi(high);
      const Reg part_high = b_->emit_binary(Opcode::Shl, Type::I32, x, amount_high);
      Reg part_low;
      if (low == 0) {
        part_low = x;
      } else {
        const Reg amount_low = b_->emit_movi(low);
        part_low = b_->emit_binary(Opcode::Shl, Type::I32, x, amount_low);
      }
      if (dst) {
        b_->emit(ir::make::binary(Opcode::Add, *dst, part_high, part_low));
        out = *dst;
      } else {
        out = b_->emit_binary(Opcode::Add, Type::I32, part_high, part_low);
      }
      return true;
    }
    return false;
  }

  /// Short-circuit && / || via control flow, producing 0/1.
  Reg eval_short_circuit(Expr& expr, std::optional<Reg> dst) {
    const Reg result = dst ? *dst : fn_->new_reg(Type::I32);
    const bool is_and = expr.op == Tok::AmpAmp;
    const BlockId rhs_block = b_->create_block(is_and ? "and.rhs" : "or.rhs");
    const BlockId short_block = b_->create_block(is_and ? "and.false" : "or.true");
    const BlockId merge = b_->create_block(is_and ? "and.end" : "or.end");

    const Reg lhs = to_bool(eval(*expr.children[0]), expr.children[0]->type);
    if (is_and) {
      b_->emit_cond_br(lhs, rhs_block, short_block);
    } else {
      b_->emit_cond_br(lhs, short_block, rhs_block);
    }

    b_->set_insert_point(rhs_block);
    const Reg rhs = to_bool(eval(*expr.children[1]), expr.children[1]->type);
    b_->emit(ir::make::copy(result, rhs));
    b_->emit_br(merge);

    b_->set_insert_point(short_block);
    b_->emit(ir::make::movi(result, is_and ? 0 : 1));
    b_->emit_br(merge);

    b_->set_insert_point(merge);
    return result;
  }

  /// Normalizes a value to 0/1.
  Reg to_bool(Reg value, Type type) {
    if (type == Type::F32) {
      const Reg zero = b_->emit_movf(0.0f);
      return b_->emit_binary(Opcode::FCmpNe, Type::I32, value, zero);
    }
    const Reg zero = b_->emit_movi(0);
    return b_->emit_binary(Opcode::CmpNe, Type::I32, value, zero);
  }

  [[nodiscard]] static Tok compound_base_op(Tok op) {
    switch (op) {
      case Tok::PlusAssign: return Tok::Plus;
      case Tok::MinusAssign: return Tok::Minus;
      case Tok::StarAssign: return Tok::Star;
      case Tok::SlashAssign: return Tok::Slash;
      case Tok::PercentAssign: return Tok::Percent;
      case Tok::ShlAssign: return Tok::Shl;
      case Tok::ShrAssign: return Tok::Shr;
      case Tok::AndAssign: return Tok::Amp;
      case Tok::OrAssign: return Tok::Pipe;
      case Tok::XorAssign: return Tok::Caret;
      default: return Tok::End;
    }
  }

  Reg eval_assign(Expr& expr, std::optional<Reg> dst) {
    Expr& lhs = *expr.children[0];
    Expr& rhs = *expr.children[1];
    const Tok base_op = compound_base_op(expr.op);
    VarSym* sym = lhs.sym;

    // Scalar register variable.
    if (lhs.kind == ExprKind::Var && sym->storage != Storage::Global) {
      const Reg var{sym->reg_id};
      if (base_op == Tok::End) {
        eval(rhs, var);
      } else {
        const Reg rhs_val = eval(rhs);
        const Opcode op = binary_opcode(base_op, sym->type);
        b_->emit(ir::make::binary(op, var, var, rhs_val));
      }
      return into_dst(var, dst);
    }

    // Memory variable (global scalar or array element).
    const Reg addr = element_address(lhs);
    Reg value;
    if (base_op == Tok::End) {
      value = eval(rhs);
    } else {
      const Reg old = b_->emit_load(sym->type, addr);
      const Reg rhs_val = eval(rhs);
      const Opcode op = binary_opcode(base_op, sym->type);
      value = b_->emit_binary(op, sym->type, old, rhs_val);
    }
    b_->emit_store(sym->type, addr, value);
    return into_dst(value, dst);
  }

  Reg eval_incdec(Expr& expr, std::optional<Reg> dst) {
    Expr& target = *expr.children[0];
    VarSym* sym = target.sym;
    const Type type = target.type;
    const bool increment = expr.op == Tok::PlusPlus;
    const Opcode op = type == Type::F32 ? (increment ? Opcode::FAdd : Opcode::FSub)
                                        : (increment ? Opcode::Add : Opcode::Sub);

    auto one = [&]() {
      return type == Type::F32 ? b_->emit_movf(1.0f) : b_->emit_movi(1);
    };

    if (target.kind == ExprKind::Var && sym->storage != Storage::Global) {
      const Reg var{sym->reg_id};
      if (expr.is_prefix) {
        b_->emit(ir::make::binary(op, var, var, one()));
        return into_dst(var, dst);
      }
      const Reg old = b_->emit_copy(var);
      b_->emit(ir::make::binary(op, var, var, one()));
      return into_dst(old, dst);
    }

    const Reg addr = element_address(target);
    const Reg old = b_->emit_load(type, addr);
    const Reg updated = b_->emit_binary(op, type, old, one());
    b_->emit_store(type, addr, updated);
    return into_dst(expr.is_prefix ? updated : old, dst);
  }

  TranslationUnit& unit_;
  const SemaResult& sema_;
  ir::Module module_;
  ir::Function* fn_ = nullptr;
  Builder* b_ = nullptr;
  std::vector<BlockId> break_targets_;
  std::vector<BlockId> continue_targets_;
};

}  // namespace

ir::Module lower(TranslationUnit& unit, const SemaResult& sema,
                 std::string module_name) {
  return Lowerer(unit, sema, std::move(module_name)).run();
}

}  // namespace asipfb::fe
