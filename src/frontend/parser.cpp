#include "frontend/parser.hpp"

#include <algorithm>
#include <utility>

#include "frontend/lexer.hpp"

namespace asipfb::fe {

namespace {

class Parser {
public:
  Parser(std::vector<Token> tokens, DiagnosticEngine& diags)
      : tokens_(std::move(tokens)), diags_(diags) {}

  TranslationUnit run() {
    TranslationUnit unit;
    while (!at(Tok::End) && !fatal_) {
      try {
        parse_top_level(unit);
      } catch (const TooDeep& e) {
        diags_.error(e.loc, "nesting too deep (more than " +
                                std::to_string(kMaxNestingDepth) + " levels)");
        fatal_ = true;
      }
    }
    return unit;
  }

private:
  /// Unwinds the whole declaration once the tree would grow past
  /// kMaxNestingDepth.
  struct TooDeep {
    SourceLoc loc;
  };

  // Tree depth bookkeeping.  depth_ is the level of the node being parsed;
  // peak_ is the deepest level the current left-fold chain (or, outside
  // any chain, the parse so far) has reached.  A fold moves the chain
  // built so far one level down, so it raises peak_ by one.
  void reach(int level) {
    peak_ = std::max(peak_, level);
    if (peak_ > kMaxNestingDepth) throw TooDeep{peek().loc};
  }

  /// One tree level for the lifetime of the guard.
  class Nest {
  public:
    explicit Nest(Parser& p) : p_(p) { p_.reach(++p_.depth_); }
    ~Nest() { --p_.depth_; }
    Nest(const Nest&) = delete;
    Nest& operator=(const Nest&) = delete;

  private:
    Parser& p_;
  };

  /// A left-associative chain rooted at the current level: its peak starts
  /// there, and the enclosing peak absorbs it when the chain is done.
  class Chain {
  public:
    explicit Chain(Parser& p) : p_(p), outer_peak_(std::exchange(p.peak_, p.depth_)) {}
    ~Chain() { p_.peak_ = std::max(p_.peak_, outer_peak_); }
    void fold() { p_.reach(p_.peak_ + 1); }
    Chain(const Chain&) = delete;
    Chain& operator=(const Chain&) = delete;

  private:
    Parser& p_;
    int outer_peak_;
  };

  [[nodiscard]] const Token& peek(std::size_t ahead = 0) const {
    const std::size_t i = pos_ + ahead;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  [[nodiscard]] bool at(Tok kind) const { return peek().kind == kind; }

  const Token& advance() { return tokens_[pos_ < tokens_.size() - 1 ? pos_++ : pos_]; }

  bool accept(Tok kind) {
    if (!at(kind)) return false;
    advance();
    return true;
  }

  const Token& expect(Tok kind, const char* context) {
    if (at(kind)) return advance();
    diags_.error(peek().loc, std::string("expected ") + std::string(to_string(kind)) +
                                 " " + context + ", got " +
                                 std::string(to_string(peek().kind)));
    fatal_ = true;
    return peek();
  }

  [[nodiscard]] bool at_type() const {
    return at(Tok::KwInt) || at(Tok::KwFloat);
  }

  ir::Type parse_type() {
    if (accept(Tok::KwInt)) return ir::Type::I32;
    if (accept(Tok::KwFloat)) return ir::Type::F32;
    expect(Tok::KwInt, "in type");
    return ir::Type::I32;
  }

  void parse_top_level(TranslationUnit& unit) {
    const SourceLoc loc = peek().loc;
    ir::Type type = ir::Type::Void;
    if (accept(Tok::KwVoid)) {
      type = ir::Type::Void;
    } else if (at_type()) {
      type = parse_type();
    } else {
      diags_.error(loc, "expected declaration");
      fatal_ = true;
      return;
    }
    const Token& name = expect(Tok::Ident, "in top-level declaration");
    if (at(Tok::LParen)) {
      unit.functions.push_back(parse_function(type, name, loc));
    } else {
      if (type == ir::Type::Void) {
        diags_.error(loc, "variables cannot have void type");
        fatal_ = true;
        return;
      }
      unit.globals.push_back(parse_global(type, name, loc));
    }
  }

  GlobalDecl parse_global(ir::Type type, const Token& name, SourceLoc loc) {
    GlobalDecl g;
    g.loc = loc;
    g.type = type;
    g.name = name.text;
    if (accept(Tok::LBracket)) {
      g.is_array = true;
      const Token& size = expect(Tok::IntLit, "as array size");
      g.array_size = static_cast<std::int32_t>(size.int_val);
      expect(Tok::RBracket, "after array size");
    }
    if (accept(Tok::Assign)) {
      if (accept(Tok::LBrace)) {
        do {
          g.init.push_back(parse_expr());
        } while (accept(Tok::Comma) && !at(Tok::RBrace));
        expect(Tok::RBrace, "after initializer list");
      } else {
        g.init.push_back(parse_expr());
      }
    }
    expect(Tok::Semicolon, "after global declaration");
    return g;
  }

  FunctionDecl parse_function(ir::Type return_type, const Token& name, SourceLoc loc) {
    FunctionDecl fn;
    fn.loc = loc;
    fn.return_type = return_type;
    fn.name = name.text;
    expect(Tok::LParen, "after function name");
    if (!at(Tok::RParen)) {
      if (accept(Tok::KwVoid)) {
        // `f(void)` — empty parameter list.
      } else {
        do {
          ir::Type pt = parse_type();
          const Token& pn = expect(Tok::Ident, "as parameter name");
          fn.params.emplace_back(pn.text, pt);
        } while (accept(Tok::Comma));
      }
    }
    expect(Tok::RParen, "after parameters");
    fn.body = parse_block();
    return fn;
  }

  StmtPtr parse_block() {
    auto stmt = std::make_unique<Stmt>();
    stmt->kind = StmtKind::Block;
    stmt->loc = peek().loc;
    expect(Tok::LBrace, "to open block");
    while (!at(Tok::RBrace) && !at(Tok::End) && !fatal_) {
      stmt->body.push_back(parse_stmt());
    }
    expect(Tok::RBrace, "to close block");
    return stmt;
  }

  StmtPtr parse_stmt() {
    const Nest nest(*this);
    const SourceLoc loc = peek().loc;
    if (at(Tok::LBrace)) return parse_block();
    if (at_type()) return parse_decl();
    if (accept(Tok::KwIf)) return parse_if(loc);
    if (accept(Tok::KwWhile)) return parse_while(loc);
    if (accept(Tok::KwFor)) return parse_for(loc);
    if (accept(Tok::KwReturn)) {
      auto stmt = std::make_unique<Stmt>();
      stmt->kind = StmtKind::Return;
      stmt->loc = loc;
      if (!at(Tok::Semicolon)) stmt->expr = parse_expr();
      expect(Tok::Semicolon, "after return");
      return stmt;
    }
    if (accept(Tok::KwBreak)) {
      auto stmt = std::make_unique<Stmt>();
      stmt->kind = StmtKind::Break;
      stmt->loc = loc;
      expect(Tok::Semicolon, "after break");
      return stmt;
    }
    if (accept(Tok::KwContinue)) {
      auto stmt = std::make_unique<Stmt>();
      stmt->kind = StmtKind::Continue;
      stmt->loc = loc;
      expect(Tok::Semicolon, "after continue");
      return stmt;
    }
    if (accept(Tok::Semicolon)) {
      auto stmt = std::make_unique<Stmt>();
      stmt->kind = StmtKind::Block;  // Empty statement = empty block.
      stmt->loc = loc;
      return stmt;
    }
    auto stmt = std::make_unique<Stmt>();
    stmt->kind = StmtKind::ExprStmt;
    stmt->loc = loc;
    stmt->expr = parse_expr();
    expect(Tok::Semicolon, "after expression");
    return stmt;
  }

  StmtPtr parse_decl() {
    auto stmt = std::make_unique<Stmt>();
    stmt->kind = StmtKind::Decl;
    stmt->loc = peek().loc;
    stmt->decl_type = parse_type();
    const Token& name = expect(Tok::Ident, "in declaration");
    stmt->decl_name = name.text;
    if (accept(Tok::LBracket)) {
      stmt->decl_is_array = true;
      const Token& size = expect(Tok::IntLit, "as array size");
      stmt->decl_array_size = static_cast<std::int32_t>(size.int_val);
      expect(Tok::RBracket, "after array size");
    }
    if (accept(Tok::Assign)) {
      stmt->decl_init = parse_expr();
    }
    expect(Tok::Semicolon, "after declaration");
    return stmt;
  }

  StmtPtr parse_if(SourceLoc loc) {
    auto stmt = std::make_unique<Stmt>();
    stmt->kind = StmtKind::If;
    stmt->loc = loc;
    expect(Tok::LParen, "after 'if'");
    stmt->expr = parse_expr();
    expect(Tok::RParen, "after condition");
    stmt->body.push_back(parse_stmt());
    if (accept(Tok::KwElse)) {
      stmt->body.push_back(parse_stmt());
    }
    return stmt;
  }

  StmtPtr parse_while(SourceLoc loc) {
    auto stmt = std::make_unique<Stmt>();
    stmt->kind = StmtKind::While;
    stmt->loc = loc;
    expect(Tok::LParen, "after 'while'");
    stmt->expr = parse_expr();
    expect(Tok::RParen, "after condition");
    stmt->body.push_back(parse_stmt());
    return stmt;
  }

  StmtPtr parse_for(SourceLoc loc) {
    auto stmt = std::make_unique<Stmt>();
    stmt->kind = StmtKind::For;
    stmt->loc = loc;
    expect(Tok::LParen, "after 'for'");
    if (at(Tok::Semicolon)) {
      advance();
    } else if (at_type()) {
      stmt->init_stmt = parse_decl();
    } else {
      auto init = std::make_unique<Stmt>();
      init->kind = StmtKind::ExprStmt;
      init->loc = peek().loc;
      init->expr = parse_expr();
      expect(Tok::Semicolon, "after for-init");
      stmt->init_stmt = std::move(init);
    }
    if (!at(Tok::Semicolon)) stmt->expr = parse_expr();
    expect(Tok::Semicolon, "after for-condition");
    if (!at(Tok::RParen)) stmt->expr2 = parse_expr();
    expect(Tok::RParen, "after for-step");
    stmt->body.push_back(parse_stmt());
    return stmt;
  }

  // --- Expressions ---------------------------------------------------------

  ExprPtr parse_expr() { return parse_assignment(); }

  [[nodiscard]] static bool is_assign_op(Tok kind) {
    switch (kind) {
      case Tok::Assign: case Tok::PlusAssign: case Tok::MinusAssign:
      case Tok::StarAssign: case Tok::SlashAssign: case Tok::PercentAssign:
      case Tok::ShlAssign: case Tok::ShrAssign: case Tok::AndAssign:
      case Tok::OrAssign: case Tok::XorAssign:
        return true;
      default:
        return false;
    }
  }

  ExprPtr parse_assignment() {
    const Nest nest(*this);
    ExprPtr lhs = parse_binary(0);
    if (is_assign_op(peek().kind)) {
      const Token& op = advance();
      if (lhs->kind != ExprKind::Var && lhs->kind != ExprKind::Index) {
        diags_.error(op.loc, "left side of assignment is not assignable");
        fatal_ = true;
      }
      auto node = std::make_unique<Expr>();
      node->kind = ExprKind::Assign;
      node->loc = op.loc;
      node->op = op.kind;
      node->children.push_back(std::move(lhs));
      node->children.push_back(parse_assignment());
      return node;
    }
    return lhs;
  }

  /// Binary-operator precedence; higher binds tighter. Returns -1 for
  /// non-binary tokens.
  [[nodiscard]] static int precedence(Tok kind) {
    switch (kind) {
      case Tok::PipePipe: return 1;
      case Tok::AmpAmp: return 2;
      case Tok::Pipe: return 3;
      case Tok::Caret: return 4;
      case Tok::Amp: return 5;
      case Tok::Eq: case Tok::Ne: return 6;
      case Tok::Lt: case Tok::Le: case Tok::Gt: case Tok::Ge: return 7;
      case Tok::Shl: case Tok::Shr: return 8;
      case Tok::Plus: case Tok::Minus: return 9;
      case Tok::Star: case Tok::Slash: case Tok::Percent: return 10;
      default: return -1;
    }
  }

  ExprPtr parse_binary(int min_prec) {
    Chain chain(*this);
    ExprPtr lhs = parse_unary();
    for (;;) {
      const int prec = precedence(peek().kind);
      if (prec < 0 || prec < min_prec) return lhs;
      const Token& op = advance();
      chain.fold();
      ExprPtr rhs;
      {
        const Nest nest(*this);
        rhs = parse_binary(prec + 1);
      }
      auto node = std::make_unique<Expr>();
      node->kind = ExprKind::Binary;
      node->loc = op.loc;
      node->op = op.kind;
      node->children.push_back(std::move(lhs));
      node->children.push_back(std::move(rhs));
      lhs = std::move(node);
    }
  }

  ExprPtr parse_unary() {
    const Nest nest(*this);
    const SourceLoc loc = peek().loc;
    if (at(Tok::Minus) || at(Tok::Bang) || at(Tok::Tilde)) {
      const Token& op = advance();
      auto node = std::make_unique<Expr>();
      node->kind = ExprKind::Unary;
      node->loc = loc;
      node->op = op.kind;
      node->children.push_back(parse_unary());
      return node;
    }
    if (accept(Tok::Plus)) {
      return parse_unary();  // Unary plus is a no-op.
    }
    if (at(Tok::PlusPlus) || at(Tok::MinusMinus)) {
      const Token& op = advance();
      auto node = std::make_unique<Expr>();
      node->kind = ExprKind::IncDec;
      node->loc = loc;
      node->op = op.kind;
      node->is_prefix = true;
      node->children.push_back(parse_unary());
      return node;
    }
    // Cast: '(' type ')' unary.
    if (at(Tok::LParen) && (peek(1).kind == Tok::KwInt || peek(1).kind == Tok::KwFloat)) {
      advance();
      auto node = std::make_unique<Expr>();
      node->kind = ExprKind::Cast;
      node->loc = loc;
      node->cast_type = parse_type();
      expect(Tok::RParen, "after cast type");
      node->children.push_back(parse_unary());
      return node;
    }
    return parse_postfix();
  }

  ExprPtr parse_postfix() {
    Chain chain(*this);
    ExprPtr expr = parse_primary();
    for (;;) {
      if (accept(Tok::LBracket)) {
        auto node = std::make_unique<Expr>();
        node->kind = ExprKind::Index;
        node->loc = expr->loc;
        node->name = expr->name;
        if (expr->kind != ExprKind::Var) {
          diags_.error(expr->loc, "only named arrays can be indexed");
          fatal_ = true;
        }
        node->children.push_back(parse_expr());
        expect(Tok::RBracket, "after index");
        expr = std::move(node);
        continue;
      }
      if (at(Tok::PlusPlus) || at(Tok::MinusMinus)) {
        const Token& op = advance();
        chain.fold();
        auto node = std::make_unique<Expr>();
        node->kind = ExprKind::IncDec;
        node->loc = op.loc;
        node->op = op.kind;
        node->is_prefix = false;
        node->children.push_back(std::move(expr));
        expr = std::move(node);
        continue;
      }
      return expr;
    }
  }

  ExprPtr parse_primary() {
    const SourceLoc loc = peek().loc;
    if (at(Tok::IntLit)) {
      const Token& tok = advance();
      auto node = std::make_unique<Expr>();
      node->kind = ExprKind::IntLit;
      node->loc = loc;
      node->int_val = tok.int_val;
      return node;
    }
    if (at(Tok::FloatLit)) {
      const Token& tok = advance();
      auto node = std::make_unique<Expr>();
      node->kind = ExprKind::FloatLit;
      node->loc = loc;
      node->float_val = tok.float_val;
      return node;
    }
    if (at(Tok::Ident)) {
      const Token& tok = advance();
      if (at(Tok::LParen)) {
        advance();
        auto node = std::make_unique<Expr>();
        node->kind = ExprKind::Call;
        node->loc = loc;
        node->name = tok.text;
        if (!at(Tok::RParen)) {
          do {
            node->children.push_back(parse_expr());
          } while (accept(Tok::Comma));
        }
        expect(Tok::RParen, "after call arguments");
        return node;
      }
      auto node = std::make_unique<Expr>();
      node->kind = ExprKind::Var;
      node->loc = loc;
      node->name = tok.text;
      return node;
    }
    if (accept(Tok::LParen)) {
      ExprPtr inner = parse_expr();
      expect(Tok::RParen, "after parenthesized expression");
      return inner;
    }
    diags_.error(loc, "expected expression, got " + std::string(to_string(peek().kind)));
    fatal_ = true;
    auto node = std::make_unique<Expr>();
    node->kind = ExprKind::IntLit;
    node->loc = loc;
    return node;
  }

  std::vector<Token> tokens_;
  DiagnosticEngine& diags_;
  std::size_t pos_ = 0;
  bool fatal_ = false;
  int depth_ = 0;
  int peak_ = 0;
};

}  // namespace

TranslationUnit parse(std::string_view source, DiagnosticEngine& diags) {
  auto tokens = lex(source, diags);
  if (diags.has_errors()) return {};
  return Parser(std::move(tokens), diags).run();
}

}  // namespace asipfb::fe
