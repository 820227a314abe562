#include "frontend/lexer.hpp"

#include <algorithm>
#include <array>
#include <cstdlib>
#include <string>
#include <utility>

namespace asipfb::fe {

namespace {

/// Keywords, sorted by spelling.
constexpr std::array<std::pair<std::string_view, Tok>, 10> kKeywords = {{
    {"break", Tok::KwBreak},   {"continue", Tok::KwContinue},
    {"else", Tok::KwElse},     {"float", Tok::KwFloat},
    {"for", Tok::KwFor},       {"if", Tok::KwIf},
    {"int", Tok::KwInt},       {"return", Tok::KwReturn},
    {"void", Tok::KwVoid},     {"while", Tok::KwWhile},
}};

// Character classes of the "C" locale, which BenchC is written in.
[[nodiscard]] constexpr bool is_space(char c) {
  return c == ' ' || (c >= '\t' && c <= '\r');
}
[[nodiscard]] constexpr bool is_digit(char c) { return c >= '0' && c <= '9'; }
[[nodiscard]] constexpr bool is_alpha(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z');
}
[[nodiscard]] constexpr bool is_word(char c) { return is_alpha(c) || is_digit(c) || c == '_'; }

/// The keyword spelled `text`, or Tok::Ident.
Tok keyword_or_ident(std::string_view text) {
  const auto it = std::lower_bound(
      kKeywords.begin(), kKeywords.end(), text,
      [](const std::pair<std::string_view, Tok>& kw, std::string_view t) { return kw.first < t; });
  return it != kKeywords.end() && it->first == text ? it->second : Tok::Ident;
}

class Lexer {
public:
  Lexer(std::string_view source, DiagnosticEngine& diags)
      : src_(source), diags_(diags) {}

  std::vector<Token> run() {
    std::vector<Token> out;
    // BenchC runs one token to about three bytes: at most 0.39 tokens per
    // byte over the suite and the generated corpora.
    out.reserve(src_.size() / 2 + 1);
    for (;;) {
      skip_whitespace_and_comments();
      Token tok = next_token();
      const bool end = tok.kind == Tok::End;
      out.push_back(std::move(tok));
      if (end) break;
    }
    return out;
  }

private:
  [[nodiscard]] bool at_end() const { return pos_ >= src_.size(); }
  [[nodiscard]] char peek(std::size_t ahead = 0) const {
    return pos_ + ahead < src_.size() ? src_[pos_ + ahead] : '\0';
  }

  char advance() {
    const char c = src_[pos_++];
    if (c == '\n') {
      ++line_;
      column_ = 1;
    } else {
      ++column_;
    }
    return c;
  }

  [[nodiscard]] SourceLoc loc() const { return {line_, column_}; }

  void skip_whitespace_and_comments() {
    for (;;) {
      while (!at_end() && is_space(peek())) {
        advance();
      }
      if (peek() == '/' && peek(1) == '/') {
        while (!at_end() && peek() != '\n') advance();
        continue;
      }
      if (peek() == '/' && peek(1) == '*') {
        const SourceLoc start = loc();
        advance();
        advance();
        while (!at_end() && !(peek() == '*' && peek(1) == '/')) advance();
        if (at_end()) {
          diags_.error(start, "unterminated block comment");
        } else {
          advance();
          advance();
        }
        continue;
      }
      return;
    }
  }

  Token next_token() {
    Token tok;
    tok.loc = loc();
    if (at_end()) {
      tok.kind = Tok::End;
      return tok;
    }
    const char c = peek();
    if (is_alpha(c) || c == '_') return identifier();
    if (is_digit(c) || (c == '.' && is_digit(peek(1)))) return number();
    return punctuation();
  }

  Token identifier() {
    Token tok;
    tok.loc = loc();
    const std::size_t start = pos_;
    while (!at_end() && is_word(peek())) advance();
    const std::string_view text = src_.substr(start, pos_ - start);
    tok.kind = keyword_or_ident(text);
    if (tok.kind == Tok::Ident) tok.text = text;
    return tok;
  }

  Token number() {
    Token tok;
    tok.loc = loc();
    const std::size_t start = pos_;
    bool is_float = false;
    while (!at_end() && is_digit(peek())) advance();
    if (peek() == '.') {
      is_float = true;
      advance();
      while (!at_end() && is_digit(peek())) advance();
    }
    if (peek() == 'e' || peek() == 'E') {
      is_float = true;
      advance();
      if (peek() == '+' || peek() == '-') advance();
      while (!at_end() && is_digit(peek())) advance();
    }
    // strtod/strtoll need a terminated copy; the suffix is not part of it.
    const std::string text(src_.substr(start, pos_ - start));
    if (peek() == 'f' || peek() == 'F') {
      is_float = true;
      advance();  // Suffix is not part of the value.
    }
    if (is_float) {
      tok.kind = Tok::FloatLit;
      tok.float_val = std::strtod(text.c_str(), nullptr);
    } else {
      tok.kind = Tok::IntLit;
      tok.int_val = std::strtoll(text.c_str(), nullptr, 10);
    }
    return tok;
  }

  Token punctuation() {
    Token tok;
    tok.loc = loc();
    const char c = advance();
    auto two = [&](char second, Tok with, Tok without) {
      if (peek() == second) {
        advance();
        tok.kind = with;
      } else {
        tok.kind = without;
      }
    };
    switch (c) {
      case '(': tok.kind = Tok::LParen; break;
      case ')': tok.kind = Tok::RParen; break;
      case '{': tok.kind = Tok::LBrace; break;
      case '}': tok.kind = Tok::RBrace; break;
      case '[': tok.kind = Tok::LBracket; break;
      case ']': tok.kind = Tok::RBracket; break;
      case ',': tok.kind = Tok::Comma; break;
      case ';': tok.kind = Tok::Semicolon; break;
      case '~': tok.kind = Tok::Tilde; break;
      case '+':
        if (peek() == '+') { advance(); tok.kind = Tok::PlusPlus; }
        else two('=', Tok::PlusAssign, Tok::Plus);
        break;
      case '-':
        if (peek() == '-') { advance(); tok.kind = Tok::MinusMinus; }
        else two('=', Tok::MinusAssign, Tok::Minus);
        break;
      case '*': two('=', Tok::StarAssign, Tok::Star); break;
      case '/': two('=', Tok::SlashAssign, Tok::Slash); break;
      case '%': two('=', Tok::PercentAssign, Tok::Percent); break;
      case '^': two('=', Tok::XorAssign, Tok::Caret); break;
      case '=': two('=', Tok::Eq, Tok::Assign); break;
      case '!': two('=', Tok::Ne, Tok::Bang); break;
      case '&':
        if (peek() == '&') { advance(); tok.kind = Tok::AmpAmp; }
        else two('=', Tok::AndAssign, Tok::Amp);
        break;
      case '|':
        if (peek() == '|') { advance(); tok.kind = Tok::PipePipe; }
        else two('=', Tok::OrAssign, Tok::Pipe);
        break;
      case '<':
        if (peek() == '<') {
          advance();
          two('=', Tok::ShlAssign, Tok::Shl);
        } else {
          two('=', Tok::Le, Tok::Lt);
        }
        break;
      case '>':
        if (peek() == '>') {
          advance();
          two('=', Tok::ShrAssign, Tok::Shr);
        } else {
          two('=', Tok::Ge, Tok::Gt);
        }
        break;
      default:
        diags_.error(tok.loc, std::string("unexpected character '") + c + "'");
        tok.kind = Tok::End;
        break;
    }
    return tok;
  }

  std::string_view src_;
  DiagnosticEngine& diags_;
  std::size_t pos_ = 0;
  int line_ = 1;
  int column_ = 1;
};

}  // namespace

std::vector<Token> lex(std::string_view source, DiagnosticEngine& diags) {
  return Lexer(source, diags).run();
}

std::string_view to_string(Tok kind) {
  switch (kind) {
    case Tok::End: return "<end>";
    case Tok::IntLit: return "integer literal";
    case Tok::FloatLit: return "float literal";
    case Tok::Ident: return "identifier";
    case Tok::KwInt: return "'int'";
    case Tok::KwFloat: return "'float'";
    case Tok::KwVoid: return "'void'";
    case Tok::KwIf: return "'if'";
    case Tok::KwElse: return "'else'";
    case Tok::KwWhile: return "'while'";
    case Tok::KwFor: return "'for'";
    case Tok::KwReturn: return "'return'";
    case Tok::KwBreak: return "'break'";
    case Tok::KwContinue: return "'continue'";
    case Tok::LParen: return "'('";
    case Tok::RParen: return "')'";
    case Tok::LBrace: return "'{'";
    case Tok::RBrace: return "'}'";
    case Tok::LBracket: return "'['";
    case Tok::RBracket: return "']'";
    case Tok::Comma: return "','";
    case Tok::Semicolon: return "';'";
    case Tok::Assign: return "'='";
    case Tok::PlusAssign: return "'+='";
    case Tok::MinusAssign: return "'-='";
    case Tok::StarAssign: return "'*='";
    case Tok::SlashAssign: return "'/='";
    case Tok::PercentAssign: return "'%='";
    case Tok::ShlAssign: return "'<<='";
    case Tok::ShrAssign: return "'>>='";
    case Tok::AndAssign: return "'&='";
    case Tok::OrAssign: return "'|='";
    case Tok::XorAssign: return "'^='";
    case Tok::PlusPlus: return "'++'";
    case Tok::MinusMinus: return "'--'";
    case Tok::Plus: return "'+'";
    case Tok::Minus: return "'-'";
    case Tok::Star: return "'*'";
    case Tok::Slash: return "'/'";
    case Tok::Percent: return "'%'";
    case Tok::Shl: return "'<<'";
    case Tok::Shr: return "'>>'";
    case Tok::Amp: return "'&'";
    case Tok::Pipe: return "'|'";
    case Tok::Caret: return "'^'";
    case Tok::Tilde: return "'~'";
    case Tok::AmpAmp: return "'&&'";
    case Tok::PipePipe: return "'||'";
    case Tok::Bang: return "'!'";
    case Tok::Eq: return "'=='";
    case Tok::Ne: return "'!='";
    case Tok::Lt: return "'<'";
    case Tok::Le: return "'<='";
    case Tok::Gt: return "'>'";
    case Tok::Ge: return "'>='";
  }
  return "<?>";
}

}  // namespace asipfb::fe
