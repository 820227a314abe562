// Recursive-descent parser for BenchC.
#pragma once

#include <string_view>

#include "frontend/ast.hpp"

namespace asipfb::fe {

/// Deepest syntax tree the parser builds.  Sema, lowering, the mutator and
/// the tree's own destructor all recurse over it, so a deeper program is
/// rejected with an ordinary diagnostic instead of overflowing the stack.
/// The count is conservative: statement nesting, each expression level
/// (parentheses included), each prefix operator, and each step of a
/// left-associative chain all add one level.
inline constexpr int kMaxNestingDepth = 256;

/// Parses a full translation unit.  Errors are reported to `diags`; the
/// returned tree is usable only when `diags` has no errors.
[[nodiscard]] TranslationUnit parse(std::string_view source, DiagnosticEngine& diags);

}  // namespace asipfb::fe
