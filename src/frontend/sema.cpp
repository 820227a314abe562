#include "frontend/sema.hpp"

#include <cmath>
#include <map>
#include <memory>

#include "ir/function.hpp"

namespace asipfb::fe {

namespace {

using ir::Type;

/// Lexically scoped symbol table.
class Scopes {
public:
  void push() { scopes_.emplace_back(); }
  void pop() { scopes_.pop_back(); }

  /// Declares in the innermost scope; returns false if already present there.
  bool declare(const std::string& name, VarSym* sym) {
    return scopes_.back().emplace(name, sym).second;
  }

  [[nodiscard]] VarSym* lookup(const std::string& name) const {
    for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
      const auto found = it->find(name);
      if (found != it->end()) return found->second;
    }
    return nullptr;
  }

private:
  std::vector<std::map<std::string, VarSym*>> scopes_;
};

class SemaPass {
public:
  SemaPass(TranslationUnit& unit, DiagnosticEngine& diags)
      : unit_(unit), diags_(diags) {}

  SemaResult run() {
    collect_signatures();
    scopes_.push();  // Global scope.
    check_globals();
    for (std::size_t i = 0; i < unit_.functions.size(); ++i) {
      check_function(unit_.functions[i], result_.functions[i]);
    }
    scopes_.pop();
    return std::move(result_);
  }

private:
  void error(SourceLoc loc, std::string message) {
    diags_.error(loc, std::move(message));
  }

  void collect_signatures() {
    std::map<std::string, int> seen;
    for (const auto& fn : unit_.functions) {
      FunctionSig sig;
      sig.name = fn.name;
      sig.return_type = fn.return_type;
      for (const auto& [pname, ptype] : fn.params) {
        (void)pname;
        sig.param_types.push_back(ptype);
      }
      if (!seen.emplace(fn.name, 1).second) {
        error(fn.loc, "duplicate function '" + fn.name + "'");
      }
      result_.functions.push_back(std::move(sig));
    }
  }

  void check_globals() {
    // Summed as lowering lays them out; the sum stops at the first global
    // that overflows, so it is reported once.
    std::uint64_t global_words = 0;
    for (auto& g : unit_.globals) {
      VarSym* sym = unit_.make_symbol();
      sym->name = g.name;
      sym->type = g.type;
      sym->is_array = g.is_array;
      sym->array_size = g.is_array ? g.array_size : 1;
      sym->storage = Storage::Global;
      g.sym = sym;
      if (!scopes_.declare(g.name, sym)) {
        error(g.loc, "duplicate global '" + g.name + "'");
      }
      if (g.is_array && g.array_size <= 0) {
        error(g.loc, "array size must be positive");
      } else if (global_words <= ir::kMaxGlobalWords) {
        global_words += static_cast<std::uint64_t>(sym->array_size);
        if (global_words > ir::kMaxGlobalWords) {
          error(g.loc, "global '" + g.name + "' does not fit in simulator memory: " +
                           std::to_string(global_words) + " words of globals, at most " +
                           std::to_string(ir::kMaxGlobalWords));
        }
      }
      if (!g.is_array && g.init.size() > 1) {
        error(g.loc, "scalar initializer list");
      }
      if (g.is_array &&
          g.init.size() > static_cast<std::size_t>(g.array_size)) {
        error(g.loc, "too many initializers for '" + g.name + "'");
      }
      for (const auto& init : g.init) {
        check_expr(*init);
        if (!const_eval(*init)) {
          error(init->loc, "global initializer must be a constant expression");
        }
      }
    }
  }

  void check_function(FunctionDecl& fn, const FunctionSig& sig) {
    current_return_ = sig.return_type;
    loop_depth_ = 0;
    frame_words_ = 0;
    scopes_.push();
    for (const auto& [pname, ptype] : fn.params) {
      VarSym* sym = unit_.make_symbol();
      sym->name = pname;
      sym->type = ptype;
      sym->storage = Storage::Param;
      fn.param_syms.push_back(sym);
      if (!scopes_.declare(pname, sym)) {
        error(fn.loc, "duplicate parameter '" + pname + "' in '" + fn.name + "'");
      }
    }
    check_stmt(*fn.body);
    scopes_.pop();
  }

  void check_stmt(Stmt& stmt) {
    switch (stmt.kind) {
      case StmtKind::Block:
        scopes_.push();
        for (auto& s : stmt.body) check_stmt(*s);
        scopes_.pop();
        break;
      case StmtKind::Decl: {
        VarSym* sym = unit_.make_symbol();
        sym->name = stmt.decl_name;
        sym->type = stmt.decl_type;
        sym->is_array = stmt.decl_is_array;
        sym->array_size = stmt.decl_is_array ? stmt.decl_array_size : 1;
        sym->storage = Storage::Local;
        stmt.sym = sym;
        if (!scopes_.declare(stmt.decl_name, sym)) {
          error(stmt.loc, "duplicate variable '" + stmt.decl_name + "'");
        }
        if (stmt.decl_is_array && stmt.decl_array_size <= 0) {
          error(stmt.loc, "array size must be positive");
        } else if (stmt.decl_is_array && frame_words_ <= ir::kMaxFrameWords) {
          // Lowering gives every local array of a function its own frame
          // offset, so the frame is the sum over all of them.
          frame_words_ += static_cast<std::uint64_t>(stmt.decl_array_size);
          if (frame_words_ > ir::kMaxFrameWords) {
            error(stmt.loc, "local array '" + stmt.decl_name +
                                "' does not fit in a frame: " + std::to_string(frame_words_) +
                                " words of local arrays, at most " +
                                std::to_string(ir::kMaxFrameWords));
          }
        }
        if (stmt.decl_init) {
          if (stmt.decl_is_array) {
            error(stmt.loc, "local array initializers are not supported");
          } else {
            check_expr(*stmt.decl_init);
            coerce(stmt.decl_init, sym->type);
          }
        }
        break;
      }
      case StmtKind::ExprStmt:
        check_expr(*stmt.expr);
        break;
      case StmtKind::If:
        check_condition(stmt.expr);
        check_stmt(*stmt.body[0]);
        if (stmt.body.size() > 1) check_stmt(*stmt.body[1]);
        break;
      case StmtKind::While:
        check_condition(stmt.expr);
        ++loop_depth_;
        check_stmt(*stmt.body[0]);
        --loop_depth_;
        break;
      case StmtKind::For:
        scopes_.push();  // For-init declarations scope over the loop.
        if (stmt.init_stmt) check_stmt(*stmt.init_stmt);
        if (stmt.expr) check_condition(stmt.expr);
        if (stmt.expr2) check_expr(*stmt.expr2);
        ++loop_depth_;
        check_stmt(*stmt.body[0]);
        --loop_depth_;
        scopes_.pop();
        break;
      case StmtKind::Return:
        if (stmt.expr) {
          check_expr(*stmt.expr);
          if (current_return_ == Type::Void) {
            error(stmt.loc, "returning a value from a void function");
          } else {
            coerce(stmt.expr, current_return_);
          }
        } else if (current_return_ != Type::Void) {
          error(stmt.loc, "missing return value");
        }
        break;
      case StmtKind::Break:
        if (loop_depth_ == 0) error(stmt.loc, "'break' outside a loop");
        break;
      case StmtKind::Continue:
        if (loop_depth_ == 0) error(stmt.loc, "'continue' outside a loop");
        break;
    }
  }

  /// Conditions must be scalar; float conditions are allowed (compared
  /// against zero during lowering).
  void check_condition(ExprPtr& expr) { check_expr(*expr); }

  /// Wraps `expr` in a cast when its type differs from `target`.
  void coerce(ExprPtr& expr, Type target) {
    if (expr->type == target) return;
    auto cast = std::make_unique<Expr>();
    cast->kind = ExprKind::Cast;
    cast->loc = expr->loc;
    cast->cast_type = target;
    cast->type = target;
    cast->children.push_back(std::move(expr));
    expr = std::move(cast);
  }

  void check_expr(Expr& expr) {
    switch (expr.kind) {
      case ExprKind::IntLit:
        expr.type = Type::I32;
        break;
      case ExprKind::FloatLit:
        expr.type = Type::F32;
        break;
      case ExprKind::Var: {
        VarSym* sym = scopes_.lookup(expr.name);
        if (sym == nullptr) {
          error(expr.loc, "unknown variable '" + expr.name + "'");
          expr.type = Type::I32;
          break;
        }
        if (sym->is_array) {
          error(expr.loc, "array '" + expr.name + "' used without an index");
        }
        expr.sym = sym;
        expr.type = sym->type;
        break;
      }
      case ExprKind::Index: {
        VarSym* sym = scopes_.lookup(expr.name);
        if (sym == nullptr) {
          error(expr.loc, "unknown array '" + expr.name + "'");
          expr.type = Type::I32;
        } else if (!sym->is_array) {
          error(expr.loc, "'" + expr.name + "' is not an array");
          expr.type = sym->type;
        } else {
          expr.sym = sym;
          expr.type = sym->type;
        }
        check_expr(*expr.children[0]);
        if (expr.children[0]->type != Type::I32) {
          error(expr.children[0]->loc, "array index must be an integer");
        }
        break;
      }
      case ExprKind::Call:
        check_call(expr);
        break;
      case ExprKind::Unary:
        check_expr(*expr.children[0]);
        if (expr.op == Tok::Minus) {
          expr.type = expr.children[0]->type;
        } else {  // ! and ~ are integer-only.
          if (expr.children[0]->type != Type::I32) {
            error(expr.loc, "operator requires an integer operand");
          }
          expr.type = Type::I32;
        }
        break;
      case ExprKind::Binary:
        check_binary(expr);
        break;
      case ExprKind::Assign:
        check_assign(expr);
        break;
      case ExprKind::IncDec: {
        Expr& target = *expr.children[0];
        check_expr(target);
        if (target.kind != ExprKind::Var && target.kind != ExprKind::Index) {
          error(expr.loc, "'++'/'--' requires a variable or array element");
        }
        expr.type = target.type;
        break;
      }
      case ExprKind::Cast:
        check_expr(*expr.children[0]);
        expr.type = expr.cast_type;
        break;
    }
  }

  void check_call(Expr& expr) {
    for (auto& arg : expr.children) check_expr(*arg);

    const ir::IntrinsicKind intrin = builtin_intrinsic(expr.name);
    if (intrin != ir::IntrinsicKind::None) {
      expr.builtin = static_cast<std::int32_t>(intrin);
      if (expr.children.size() != 1) {
        error(expr.loc, "builtin '" + expr.name + "' takes one argument");
        expr.type = Type::F32;
        return;
      }
      expr.type = ir::intrinsic_type(intrin);
      coerce(expr.children[0], expr.type);
      return;
    }

    for (std::size_t i = 0; i < result_.functions.size(); ++i) {
      const auto& sig = result_.functions[i];
      if (sig.name != expr.name) continue;
      expr.callee_index = static_cast<std::int32_t>(i);
      if (expr.children.size() != sig.param_types.size()) {
        error(expr.loc, "call to '" + expr.name + "' with wrong argument count");
        expr.type = sig.return_type == Type::Void ? Type::I32 : sig.return_type;
        return;
      }
      for (std::size_t a = 0; a < expr.children.size(); ++a) {
        coerce(expr.children[a], sig.param_types[a]);
      }
      expr.type = sig.return_type == Type::Void ? Type::I32 : sig.return_type;
      if (sig.return_type == Type::Void) expr.type = Type::I32;
      return;
    }
    error(expr.loc, "unknown function '" + expr.name + "'");
    expr.type = Type::I32;
  }

  [[nodiscard]] static bool int_only_op(Tok op) {
    switch (op) {
      case Tok::Percent: case Tok::Shl: case Tok::Shr:
      case Tok::Amp: case Tok::Pipe: case Tok::Caret:
      case Tok::AmpAmp: case Tok::PipePipe:
        return true;
      default:
        return false;
    }
  }

  void check_binary(Expr& expr) {
    check_expr(*expr.children[0]);
    check_expr(*expr.children[1]);
    const Type lt = expr.children[0]->type;
    const Type rt = expr.children[1]->type;

    if (int_only_op(expr.op)) {
      if (lt != Type::I32 || rt != Type::I32) {
        error(expr.loc, "operator requires integer operands");
      }
      expr.type = Type::I32;
      return;
    }

    // Usual arithmetic conversion: float wins.
    const Type common = (lt == Type::F32 || rt == Type::F32) ? Type::F32 : Type::I32;
    coerce(expr.children[0], common);
    coerce(expr.children[1], common);

    switch (expr.op) {
      case Tok::Eq: case Tok::Ne: case Tok::Lt: case Tok::Le:
      case Tok::Gt: case Tok::Ge:
        expr.type = Type::I32;  // Comparisons yield 0/1.
        break;
      default:
        expr.type = common;
        break;
    }
  }

  void check_assign(Expr& expr) {
    Expr& lhs = *expr.children[0];
    check_expr(lhs);
    check_expr(*expr.children[1]);
    if (lhs.kind != ExprKind::Var && lhs.kind != ExprKind::Index) {
      error(expr.loc, "assignment target is not assignable");
      expr.type = Type::I32;
      return;
    }
    // Compound assignments with int-only operators need an integer LHS.
    const Tok op = expr.op;
    const bool compound_int_only =
        op == Tok::PercentAssign || op == Tok::ShlAssign || op == Tok::ShrAssign ||
        op == Tok::AndAssign || op == Tok::OrAssign || op == Tok::XorAssign;
    if (compound_int_only &&
        (lhs.type != Type::I32 || expr.children[1]->type != Type::I32)) {
      error(expr.loc, "compound operator requires integer operands");
    }
    // RHS converts to the variable's type. For compound float ops the
    // arithmetic is done in the LHS type during lowering.
    coerce(expr.children[1], lhs.type);
    expr.type = lhs.type;
  }

  TranslationUnit& unit_;
  DiagnosticEngine& diags_;
  SemaResult result_;
  Scopes scopes_;
  Type current_return_ = Type::Void;
  int loop_depth_ = 0;
  std::uint64_t frame_words_ = 0;  ///< Local-array words of the current function.
};

}  // namespace

SemaResult analyze(TranslationUnit& unit, DiagnosticEngine& diags) {
  return SemaPass(unit, diags).run();
}

std::optional<ConstValue> const_eval(const Expr& expr) {
  switch (expr.kind) {
    case ExprKind::IntLit:
      return ConstValue{Type::I32, static_cast<double>(expr.int_val)};
    case ExprKind::FloatLit:
      return ConstValue{Type::F32, expr.float_val};
    case ExprKind::Unary: {
      const auto inner = const_eval(*expr.children[0]);
      if (!inner) return std::nullopt;
      if (expr.op == Tok::Minus) return ConstValue{inner->type, -inner->value};
      return std::nullopt;
    }
    case ExprKind::Cast: {
      const auto inner = const_eval(*expr.children[0]);
      if (!inner) return std::nullopt;
      if (expr.cast_type == Type::I32) {
        return ConstValue{Type::I32, static_cast<double>(inner->as_i32())};
      }
      return ConstValue{Type::F32, static_cast<double>(inner->as_f32())};
    }
    case ExprKind::Binary: {
      const auto lhs = const_eval(*expr.children[0]);
      const auto rhs = const_eval(*expr.children[1]);
      if (!lhs || !rhs) return std::nullopt;
      const Type type =
          (lhs->type == Type::F32 || rhs->type == Type::F32) ? Type::F32 : Type::I32;
      double value = 0.0;
      switch (expr.op) {
        case Tok::Plus: value = lhs->value + rhs->value; break;
        case Tok::Minus: value = lhs->value - rhs->value; break;
        case Tok::Star: value = lhs->value * rhs->value; break;
        case Tok::Slash:
          if (rhs->value == 0.0) return std::nullopt;
          value = type == Type::I32
                      ? static_cast<double>(lhs->as_i32() / rhs->as_i32())
                      : lhs->value / rhs->value;
          break;
        default:
          return std::nullopt;
      }
      if (type == Type::I32) value = static_cast<double>(static_cast<std::int32_t>(value));
      return ConstValue{type, value};
    }
    default:
      return std::nullopt;
  }
}

ir::IntrinsicKind builtin_intrinsic(const std::string& name) {
  using ir::IntrinsicKind;
  if (name == "sqrtf" || name == "sqrt") return IntrinsicKind::Sqrt;
  if (name == "sinf" || name == "sin") return IntrinsicKind::Sin;
  if (name == "cosf" || name == "cos") return IntrinsicKind::Cos;
  if (name == "fabsf" || name == "fabs") return IntrinsicKind::FAbs;
  if (name == "abs") return IntrinsicKind::IAbs;
  if (name == "expf" || name == "exp") return IntrinsicKind::Exp;
  if (name == "logf" || name == "log") return IntrinsicKind::Log;
  if (name == "floorf" || name == "floor") return IntrinsicKind::Floor;
  return IntrinsicKind::None;
}

}  // namespace asipfb::fe
