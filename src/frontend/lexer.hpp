// Hand-written lexer for BenchC.
#pragma once

#include <string_view>
#include <vector>

#include "frontend/token.hpp"
#include "support/diagnostics.hpp"

namespace asipfb::fe {

/// Tokenizes the whole buffer (appending an End token).  Lexical errors are
/// reported to `diags`; the caller decides whether to continue.  Identifier
/// tokens view `source`, which must outlive them.
[[nodiscard]] std::vector<Token> lex(std::string_view source, DiagnosticEngine& diags);

}  // namespace asipfb::fe
