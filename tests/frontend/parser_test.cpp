#include "frontend/parser.hpp"

#include <gtest/gtest.h>

#include <string>

namespace asipfb::fe {
namespace {

TranslationUnit parse_ok(std::string_view src) {
  DiagnosticEngine diags;
  auto unit = parse(src, diags);
  EXPECT_FALSE(diags.has_errors())
      << (diags.has_errors() ? diags.diagnostics()[0].to_string() : "");
  return unit;
}

bool parse_fails(std::string_view src) {
  DiagnosticEngine diags;
  (void)parse(src, diags);
  return diags.has_errors();
}

TEST(Parser, GlobalScalarAndArray) {
  const auto unit = parse_ok("int a; float b[10];");
  ASSERT_EQ(unit.globals.size(), 2u);
  EXPECT_EQ(unit.globals[0].name, "a");
  EXPECT_FALSE(unit.globals[0].is_array);
  EXPECT_EQ(unit.globals[1].name, "b");
  EXPECT_TRUE(unit.globals[1].is_array);
  EXPECT_EQ(unit.globals[1].array_size, 10);
  EXPECT_EQ(unit.globals[1].type, ir::Type::F32);
}

TEST(Parser, GlobalInitializerList) {
  const auto unit = parse_ok("float h[3] = { 0.1, -0.5, 2.0 };");
  ASSERT_EQ(unit.globals.size(), 1u);
  EXPECT_EQ(unit.globals[0].init.size(), 3u);
  EXPECT_EQ(unit.globals[0].init[1]->kind, ExprKind::Unary);
}

TEST(Parser, FunctionWithParams) {
  const auto unit = parse_ok("int f(int a, float b) { return a; }");
  ASSERT_EQ(unit.functions.size(), 1u);
  const auto& fn = unit.functions[0];
  EXPECT_EQ(fn.name, "f");
  EXPECT_EQ(fn.return_type, ir::Type::I32);
  ASSERT_EQ(fn.params.size(), 2u);
  EXPECT_EQ(fn.params[0].first, "a");
  EXPECT_EQ(fn.params[1].second, ir::Type::F32);
}

TEST(Parser, VoidFunctionAndEmptyParamList) {
  const auto unit = parse_ok("void f() {} void g(void) {}");
  ASSERT_EQ(unit.functions.size(), 2u);
  EXPECT_EQ(unit.functions[0].return_type, ir::Type::Void);
  EXPECT_TRUE(unit.functions[1].params.empty());
}

TEST(Parser, PrecedenceMulBeforeAdd) {
  const auto unit = parse_ok("int f() { return 1 + 2 * 3; }");
  const Stmt& ret = *unit.functions[0].body->body[0];
  ASSERT_EQ(ret.kind, StmtKind::Return);
  const Expr& top = *ret.expr;
  ASSERT_EQ(top.kind, ExprKind::Binary);
  EXPECT_EQ(top.op, Tok::Plus);
  EXPECT_EQ(top.children[1]->op, Tok::Star);
}

TEST(Parser, PrecedenceShiftVsCompare) {
  // a << b < c parses as (a << b) < c.
  const auto unit = parse_ok("int f(int a, int b, int c) { return a << b < c; }");
  const Expr& top = *unit.functions[0].body->body[0]->expr;
  EXPECT_EQ(top.op, Tok::Lt);
  EXPECT_EQ(top.children[0]->op, Tok::Shl);
}

TEST(Parser, ParenthesesOverridePrecedence) {
  const auto unit = parse_ok("int f() { return (1 + 2) * 3; }");
  const Expr& top = *unit.functions[0].body->body[0]->expr;
  EXPECT_EQ(top.op, Tok::Star);
  EXPECT_EQ(top.children[0]->op, Tok::Plus);
}

TEST(Parser, AssignmentRightAssociative) {
  const auto unit = parse_ok("int f(int a, int b) { a = b = 1; return a; }");
  const Expr& top = *unit.functions[0].body->body[0]->expr;
  ASSERT_EQ(top.kind, ExprKind::Assign);
  EXPECT_EQ(top.children[1]->kind, ExprKind::Assign);
}

TEST(Parser, ElseBindsToNearestIf) {
  const auto unit =
      parse_ok("int f(int a) { if (a) if (a) return 1; else return 2; return 3; }");
  const Stmt& outer = *unit.functions[0].body->body[0];
  ASSERT_EQ(outer.kind, StmtKind::If);
  EXPECT_EQ(outer.body.size(), 1u) << "outer if has no else";
  const Stmt& inner = *outer.body[0];
  ASSERT_EQ(inner.kind, StmtKind::If);
  EXPECT_EQ(inner.body.size(), 2u) << "inner if owns the else";
}

TEST(Parser, ForWithDeclInit) {
  const auto unit = parse_ok("int f() { for (int i = 0; i < 3; i++) {} return 0; }");
  const Stmt& loop = *unit.functions[0].body->body[0];
  ASSERT_EQ(loop.kind, StmtKind::For);
  ASSERT_NE(loop.init_stmt, nullptr);
  EXPECT_EQ(loop.init_stmt->kind, StmtKind::Decl);
  EXPECT_NE(loop.expr, nullptr);
  EXPECT_NE(loop.expr2, nullptr);
}

TEST(Parser, ForAllPartsOptional) {
  const auto unit = parse_ok("int f() { for (;;) { break; } return 0; }");
  const Stmt& loop = *unit.functions[0].body->body[0];
  EXPECT_EQ(loop.init_stmt, nullptr);
  EXPECT_EQ(loop.expr, nullptr);
  EXPECT_EQ(loop.expr2, nullptr);
}

TEST(Parser, CastExpression) {
  const auto unit = parse_ok("float f(int a) { return (float)a; }");
  const Expr& top = *unit.functions[0].body->body[0]->expr;
  ASSERT_EQ(top.kind, ExprKind::Cast);
  EXPECT_EQ(top.cast_type, ir::Type::F32);
}

TEST(Parser, IndexAndCallPostfix) {
  const auto unit = parse_ok("int a[5]; int f() { return a[f() + 1]; }");
  const Expr& top = *unit.functions[0].body->body[0]->expr;
  ASSERT_EQ(top.kind, ExprKind::Index);
  EXPECT_EQ(top.name, "a");
  EXPECT_EQ(top.children[0]->kind, ExprKind::Binary);
}

TEST(Parser, PrefixAndPostfixIncDec) {
  const auto unit = parse_ok("int f(int a) { ++a; a--; return a; }");
  const Expr& pre = *unit.functions[0].body->body[0]->expr;
  EXPECT_TRUE(pre.is_prefix);
  const Expr& post = *unit.functions[0].body->body[1]->expr;
  EXPECT_FALSE(post.is_prefix);
  EXPECT_EQ(post.op, Tok::MinusMinus);
}

TEST(Parser, UnaryOperators) {
  const auto unit = parse_ok("int f(int a) { return -a + !a + ~a; }");
  EXPECT_EQ(unit.functions.size(), 1u);
}

TEST(Parser, ErrorMissingSemicolon) {
  EXPECT_TRUE(parse_fails("int f() { return 1 }"));
}

TEST(Parser, ErrorAssignToRvalue) {
  EXPECT_TRUE(parse_fails("int f() { 1 = 2; return 0; }"));
}

TEST(Parser, ErrorVoidGlobal) {
  EXPECT_TRUE(parse_fails("void x;"));
}

TEST(Parser, ErrorUnbalancedParens) {
  EXPECT_TRUE(parse_fails("int f() { return (1 + 2; }"));
}

// Inputs far under any size cap whose trees would be deep enough to
// overflow the stack of the recursive passes: each must be an ordinary
// diagnostic, not a crash.
std::string nesting_error(const std::string& src) {
  DiagnosticEngine diags;
  (void)parse(src, diags);
  return diags.has_errors() ? diags.diagnostics()[0].message : "";
}

TEST(Parser, DeepParenthesesAreAnError) {
  const std::string src = "int main() { return " + std::string(20000, '(') + "1" +
                          std::string(20000, ')') + "; }";
  EXPECT_NE(nesting_error(src).find("nesting too deep"), std::string::npos);
}

TEST(Parser, LongAdditionChainIsAnError) {
  // The parser folds the chain in a loop, but the tree it builds is
  // 50,000 levels deep on its left spine.
  std::string src = "int main() { return 1";
  for (int i = 0; i < 50000; ++i) src += "+1";
  src += "; }";
  EXPECT_NE(nesting_error(src).find("nesting too deep"), std::string::npos);
}

TEST(Parser, DeepUnaryMinusRunIsAnError) {
  std::string src = "int main() { return ";
  for (int i = 0; i < 20000; ++i) src += "- ";
  src += "1; }";
  EXPECT_NE(nesting_error(src).find("nesting too deep"), std::string::npos);
}

TEST(Parser, LongElseIfChainIsAnError) {
  std::string src = "int main() { int x = 1; if (x == 0) x = 0;";
  for (int i = 1; i < 20000; ++i) src += " else if (x == 1) x = 2;";
  src += " return x; }";
  EXPECT_NE(nesting_error(src).find("nesting too deep"), std::string::npos);
}

TEST(Parser, NestingWithinTheLimitParses) {
  // Deep for real code, yet within the bound: parentheses count two
  // levels each (expression and operand), chain operands one each.
  parse_ok("int main() { return " + std::string(100, '(') + "1" +
           std::string(100, ')') + "; }");
  std::string src = "int main() { return 1";
  for (int i = 0; i < 200; ++i) src += "+1";
  parse_ok(src + "; }");
}

TEST(Parser, EmptyStatementAllowed) {
  EXPECT_FALSE(parse_fails("int f() { ;;; return 0; }"));
}

}  // namespace
}  // namespace asipfb::fe
