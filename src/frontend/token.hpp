// Tokens of BenchC, the C subset in which the benchmark suite is written.
#pragma once

#include <cstdint>
#include <string_view>

#include "support/diagnostics.hpp"

namespace asipfb::fe {

enum class Tok : std::uint8_t {
  End,
  // Literals and identifiers.
  IntLit, FloatLit, Ident,
  // Keywords.
  KwInt, KwFloat, KwVoid, KwIf, KwElse, KwWhile, KwFor, KwReturn,
  KwBreak, KwContinue,
  // Punctuation.
  LParen, RParen, LBrace, RBrace, LBracket, RBracket,
  Comma, Semicolon,
  // Operators.
  Assign,                                  // =
  PlusAssign, MinusAssign, StarAssign,     // += -= *=
  SlashAssign, PercentAssign,              // /= %=
  ShlAssign, ShrAssign,                    // <<= >>=
  AndAssign, OrAssign, XorAssign,          // &= |= ^=
  PlusPlus, MinusMinus,                    // ++ --
  Plus, Minus, Star, Slash, Percent,       // + - * / %
  Shl, Shr,                                // << >>
  Amp, Pipe, Caret, Tilde,                 // & | ^ ~
  AmpAmp, PipePipe, Bang,                  // && || !
  Eq, Ne, Lt, Le, Gt, Ge,                  // == != < <= > >=
};

[[nodiscard]] std::string_view to_string(Tok kind);

struct Token {
  Tok kind = Tok::End;
  std::string_view text;  ///< Identifier spelling (identifiers only), a view
                          ///< into the lexed source.
  std::int64_t int_val = 0;
  double float_val = 0.0;
  SourceLoc loc;
};

}  // namespace asipfb::fe
