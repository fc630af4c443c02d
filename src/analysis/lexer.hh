/**
 * @file
 * The C++ token lexer under the sadapt-check source lint.
 *
 * The token lint (analysis/lint) consumes this stream, so its
 * behaviour is pinned by committed adversarial fixtures
 * (tests/data/analysis/lexer/): raw string
 * literals with encoding prefixes, digit separators, user-defined
 * literals, and backslash-newline line splices.
 *
 * It is deliberately not a full phase-3 lexer — comments and string,
 * character and raw-string literals are *discarded* (they can never
 * trip a source rule), and preprocessor directives are lexed as
 * ordinary tokens — but what it does emit follows the standard:
 *
 *  - Phase-2 line splices (backslash-newline) are removed before
 *    tokenization, so an identifier split across lines is one token,
 *    a spliced // comment swallows its continuation line, and every
 *    token still reports its original source line.
 *  - pp-numbers include digit separators (1'000'000), exponent signs
 *    (1e-9, 0x1.8p3) and user-defined-literal suffixes (12.5_km), as
 *    one Number token.
 *  - Encoding prefixes (u8, u, U, L, and the raw forms R, u8R, uR,
 *    UR, LR) are part of the literal that follows them, not a stray
 *    identifier token; a literal's UDL suffix ("abc"_sv) is skipped
 *    with it.
 */

#ifndef SADAPT_ANALYSIS_LEXER_HH
#define SADAPT_ANALYSIS_LEXER_HH

#include <cstdint>
#include <string>
#include <vector>

namespace sadapt::analysis {

/** One lexed C++ token with its original (pre-splice) source line. */
struct Token
{
    enum class Kind
    {
        Ident,  //!< identifier or keyword
        Number, //!< pp-number (verbatim text, incl. UDL suffix)
        Punct,  //!< operator/punctuator, longest-match on pairs
    };

    Kind kind;
    std::string text;
    std::uint64_t line;
    /**
     * Line number after splice removal. Tokens of one (possibly
     * spliced) preprocessor directive share a logicalLine even when
     * their `line` values differ, so a consumer can tell a
     * directive's tokens from code.
     */
    std::uint64_t logicalLine;
};

/**
 * Lex C++ source into a token stream with line numbers, discarding
 * comments and string/character literals. Never fails: unterminated
 * literals and comments extend to end-of-input.
 */
std::vector<Token> lex(const std::string &src);

/** True for pp-number text of floating-point type (UDL-suffix aware). */
bool isFloatLiteral(const std::string &text);

} // namespace sadapt::analysis

#endif // SADAPT_ANALYSIS_LEXER_HH
