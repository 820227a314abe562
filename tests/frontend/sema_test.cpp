#include "frontend/sema.hpp"

#include <gtest/gtest.h>

#include <string>
#include <string_view>

#include "frontend/parser.hpp"

namespace asipfb::fe {
namespace {

/// Parses + analyzes; returns true when sema reports an error.
bool sema_fails(std::string_view src) {
  DiagnosticEngine diags;
  TranslationUnit unit = parse(src, diags);
  if (diags.has_errors()) return true;  // Count parse failures too.
  analyze(unit, diags);
  return diags.has_errors();
}

struct Analyzed {
  TranslationUnit unit;
  SemaResult sema;
};

Analyzed analyze_ok(std::string_view src) {
  DiagnosticEngine diags;
  Analyzed out;
  out.unit = parse(src, diags);
  EXPECT_FALSE(diags.has_errors());
  out.sema = analyze(out.unit, diags);
  EXPECT_FALSE(diags.has_errors())
      << (diags.has_errors() ? diags.diagnostics()[0].to_string() : "");
  return out;
}

TEST(Sema, AcceptsWellTypedProgram) {
  EXPECT_FALSE(sema_fails(R"(
    float x[10];
    int main() {
      int i;
      float s = 0.0;
      for (i = 0; i < 10; i++) s += x[i];
      return (int)s;
    })"));
}

TEST(Sema, UnknownVariable) {
  EXPECT_TRUE(sema_fails("int main() { return nope; }"));
}

TEST(Sema, UnknownFunction) {
  EXPECT_TRUE(sema_fails("int main() { return missing(1); }"));
}

TEST(Sema, DuplicateGlobal) {
  EXPECT_TRUE(sema_fails("int a; float a; int main() { return 0; }"));
}

TEST(Sema, DuplicateLocalInSameScope) {
  EXPECT_TRUE(sema_fails("int main() { int x; int x; return 0; }"));
}

TEST(Sema, ShadowingInNestedScopeAllowed) {
  EXPECT_FALSE(sema_fails("int main() { int x = 1; { int x = 2; } return x; }"));
}

TEST(Sema, DuplicateFunction) {
  EXPECT_TRUE(sema_fails("int f() { return 0; } int f() { return 1; } int main() { return 0; }"));
}

TEST(Sema, ArrayUsedWithoutIndex) {
  EXPECT_TRUE(sema_fails("int a[4]; int main() { return a; }"));
}

TEST(Sema, ScalarIndexed) {
  EXPECT_TRUE(sema_fails("int a; int main() { return a[0]; }"));
}

TEST(Sema, FloatArrayIndexRejected) {
  EXPECT_TRUE(sema_fails("int a[4]; int main() { return a[1.5]; }"));
}

TEST(Sema, IntOnlyOperatorsRejectFloat) {
  EXPECT_TRUE(sema_fails("int main() { return 1.5 % 2; }"));
  EXPECT_TRUE(sema_fails("int main() { return 1.5 << 1; }"));
  EXPECT_TRUE(sema_fails("float f; int main() { f &= 1; return 0; }"));
}

TEST(Sema, BreakOutsideLoop) {
  EXPECT_TRUE(sema_fails("int main() { break; return 0; }"));
}

TEST(Sema, ContinueOutsideLoop) {
  EXPECT_TRUE(sema_fails("int main() { continue; return 0; }"));
}

TEST(Sema, ReturnValueFromVoid) {
  EXPECT_TRUE(sema_fails("void f() { return 1; } int main() { return 0; }"));
}

TEST(Sema, MissingReturnValue) {
  EXPECT_TRUE(sema_fails("int f() { return; } int main() { return 0; }"));
}

TEST(Sema, WrongArgumentCount) {
  EXPECT_TRUE(sema_fails(
      "int f(int a) { return a; } int main() { return f(1, 2); }"));
}

TEST(Sema, ForwardCallsResolve) {
  EXPECT_FALSE(sema_fails(
      "int main() { return helper(2); } int helper(int a) { return a * 2; }"));
}

TEST(Sema, BuiltinArityChecked) {
  EXPECT_TRUE(sema_fails("int main() { return (int)sqrtf(1.0, 2.0); }"));
}

TEST(Sema, LocalArrayInitializerRejected) {
  EXPECT_TRUE(sema_fails("int main() { int a[3] = 1; return 0; }"));
}

TEST(Sema, NonConstantGlobalInitializerRejected) {
  EXPECT_TRUE(sema_fails("int a = b; int b; int main() { return 0; }"));
}

TEST(Sema, TooManyInitializers) {
  EXPECT_TRUE(sema_fails("int a[2] = {1, 2, 3}; int main() { return 0; }"));
}

/// Every diagnostic sema reports for `src`, one per line.
std::string sema_errors(std::string_view src) {
  DiagnosticEngine diags;
  TranslationUnit unit = parse(src, diags);
  analyze(unit, diags);
  std::string out;
  for (const auto& d : diags.diagnostics()) out += d.to_string() + "\n";
  return out;
}

TEST(Sema, GlobalsMustFitBesideTheFrameRegion) {
  // Globals plus the 2^20-word frame region must stay within 2^32 - 1
  // words.  The sum is taken in 64 bits, so a layout that would wrap is
  // reported at the global that overflows it, once.
  EXPECT_EQ(sema_errors("int a[2147483647];\nint b[2146435072];\nint main() { return 0; }"),
            "");
  EXPECT_EQ(sema_errors("int a[2147483647];\nint b[2146435073];\nint main() { return 0; }"),
            "2:1: global 'b' does not fit in simulator memory: 4293918720 words of "
            "globals, at most 4293918719\n");
  EXPECT_EQ(sema_errors("int a[2000000000];\nint b[2000000000];\n"
                        "int c[300000000] = {7};\nint d;\nint main() { return c[0]; }"),
            "3:1: global 'c' does not fit in simulator memory: 4300000000 words of "
            "globals, at most 4293918719\n");
}

TEST(Sema, LocalArraysMustFitOneFrame) {
  // Every local array of a function gets its own frame offset, an int32.
  EXPECT_EQ(sema_errors("int main() { int a[2147483647]; return 0; }"), "");
  EXPECT_EQ(sema_errors("int f() { int a[2147483647]; { int b[1]; } return 0; }\n"
                        "int main() { int c[2147483647]; return 0; }"),
            "1:32: local array 'b' does not fit in a frame: 2147483648 words of "
            "local arrays, at most 2147483647\n");
}

TEST(Sema, ImplicitIntToFloatInArithmetic) {
  const auto analyzed = analyze_ok("float f(int a) { return a + 1.5; }");
  const Expr& add = *analyzed.unit.functions[0].body->body[0]->expr;
  ASSERT_EQ(add.kind, ExprKind::Binary);
  EXPECT_EQ(add.type, ir::Type::F32);
  EXPECT_EQ(add.children[0]->kind, ExprKind::Cast) << "int side promoted";
}

TEST(Sema, ComparisonYieldsInt) {
  const auto analyzed = analyze_ok("int f(float a, float b) { return a < b; }");
  const Expr& cmp = *analyzed.unit.functions[0].body->body[0]->expr;
  EXPECT_EQ(cmp.type, ir::Type::I32);
}

TEST(Sema, AssignmentConvertsRhs) {
  const auto analyzed = analyze_ok("int f(float a) { int x; x = a; return x; }");
  const Expr& assign = *analyzed.unit.functions[0].body->body[1]->expr;
  EXPECT_EQ(assign.children[1]->kind, ExprKind::Cast);
  EXPECT_EQ(assign.type, ir::Type::I32);
}

TEST(Sema, BuiltinsBindToIntrinsics) {
  EXPECT_EQ(builtin_intrinsic("sqrtf"), ir::IntrinsicKind::Sqrt);
  EXPECT_EQ(builtin_intrinsic("sqrt"), ir::IntrinsicKind::Sqrt);
  EXPECT_EQ(builtin_intrinsic("abs"), ir::IntrinsicKind::IAbs);
  EXPECT_EQ(builtin_intrinsic("cosf"), ir::IntrinsicKind::Cos);
  EXPECT_EQ(builtin_intrinsic("not_a_builtin"), ir::IntrinsicKind::None);
}

TEST(ConstEval, Literals) {
  Expr e;
  e.kind = ExprKind::IntLit;
  e.int_val = 42;
  const auto v = const_eval(e);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->as_i32(), 42);
  EXPECT_EQ(v->type, ir::Type::I32);
}

TEST(ConstEval, ArithmeticOnConstants) {
  DiagnosticEngine diags;
  auto unit = parse("float h[2] = { 1.0 / 4.0, 2 * 3 + 1 };", diags);
  ASSERT_FALSE(diags.has_errors());
  analyze(unit, diags);
  ASSERT_FALSE(diags.has_errors());
  const auto v0 = const_eval(*unit.globals[0].init[0]);
  ASSERT_TRUE(v0.has_value());
  EXPECT_FLOAT_EQ(v0->as_f32(), 0.25f);
  const auto v1 = const_eval(*unit.globals[0].init[1]);
  ASSERT_TRUE(v1.has_value());
  EXPECT_EQ(v1->as_i32(), 7);
}

TEST(ConstEval, UnaryMinus) {
  DiagnosticEngine diags;
  auto unit = parse("float h[1] = { -2.5 };", diags);
  analyze(unit, diags);
  const auto v = const_eval(*unit.globals[0].init[0]);
  ASSERT_TRUE(v.has_value());
  EXPECT_FLOAT_EQ(v->as_f32(), -2.5f);
}

TEST(ConstEval, DivisionByZeroNotConstant) {
  DiagnosticEngine diags;
  auto unit = parse("int g() { return 0; } int main() { return 1 / 0 + g(); }", diags);
  ASSERT_FALSE(diags.has_errors());
  // 1/0 must not fold; it is simply "not a constant".
  const Expr& add = *unit.functions[1].body->body[0]->expr;
  EXPECT_FALSE(const_eval(*add.children[0]).has_value());
}

}  // namespace
}  // namespace asipfb::fe
