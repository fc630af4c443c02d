#include "analysis/lexer.hh"

#include <cctype>
#include <unordered_set>

namespace sadapt::analysis {

namespace {

/** Multi-char punctuators the checks care about; rest lex per-char. */
bool
isPunctPair(char a, char b)
{
    static const std::unordered_set<std::string> pairs = {
        "==", "!=", "<=", ">=", "->", "::", "&&", "||", "<<", ">>",
        "+=", "-=", "*=", "/=", "++", "--",
    };
    return pairs.contains(std::string{a, b});
}

/** Encoding prefixes that glue to a following string/char literal. */
bool
isEncodingPrefix(const std::string &ident)
{
    return ident == "u8" || ident == "u" || ident == "U" ||
        ident == "L";
}

/** Raw-string prefixes: R plus every encoding-prefixed form. */
bool
isRawPrefix(const std::string &ident)
{
    return ident == "R" || ident == "u8R" || ident == "uR" ||
        ident == "UR" || ident == "LR";
}

bool
isIdentChar(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

} // namespace

std::vector<Token>
lex(const std::string &src)
{
    // Phase 2 first: delete backslash-newline splices while keeping a
    // per-character map back to the original source line, so spliced
    // identifiers lex as one token yet findings still point at real
    // lines.
    std::string cooked;
    std::vector<std::uint64_t> lineOf;
    cooked.reserve(src.size());
    lineOf.reserve(src.size());
    {
        std::uint64_t line = 1;
        std::size_t i = 0;
        while (i < src.size()) {
            if (src[i] == '\\' && i + 1 < src.size() &&
                src[i + 1] == '\n') {
                i += 2;
                ++line;
                continue;
            }
            if (src[i] == '\\' && i + 2 < src.size() &&
                src[i + 1] == '\r' && src[i + 2] == '\n') {
                i += 3;
                ++line;
                continue;
            }
            cooked.push_back(src[i]);
            lineOf.push_back(line);
            if (src[i] == '\n')
                ++line;
            ++i;
        }
    }

    std::vector<Token> out;
    std::size_t i = 0;
    const std::size_t n = cooked.size();

    // Skip a (non-raw) quoted literal starting at the opening quote.
    auto skipQuoted = [&](char quote) {
        ++i; // opening quote
        while (i < n && cooked[i] != quote) {
            if (cooked[i] == '\\' && i + 1 < n)
                ++i;
            ++i;
        }
        if (i < n)
            ++i; // closing quote
        // A UDL suffix ("abc"_sv, 'c'_u) is part of the literal.
        if (i < n &&
            (cooked[i] == '_' ||
             std::isalpha(static_cast<unsigned char>(cooked[i]))))
            while (i < n && isIdentChar(cooked[i]))
                ++i;
    };

    // Skip a raw string literal starting at the '"' after the prefix.
    auto skipRaw = [&]() {
        std::size_t j = i + 1; // past '"'
        std::string delim;
        while (j < n && cooked[j] != '(')
            delim += cooked[j++];
        const std::string close = ")" + delim + "\"";
        std::size_t end = cooked.find(close, j);
        end = end == std::string::npos ? n : end + close.size();
        i = end;
        if (i < n &&
            (cooked[i] == '_' ||
             std::isalpha(static_cast<unsigned char>(cooked[i]))))
            while (i < n && isIdentChar(cooked[i]))
                ++i;
    };

    while (i < n) {
        const char c = cooked[i];
        if (std::isspace(static_cast<unsigned char>(c))) {
            ++i;
            continue;
        }
        if (c == '/' && i + 1 < n && cooked[i + 1] == '/') {
            // Splices are already deleted, so a spliced // comment
            // correctly swallows its continuation line here.
            while (i < n && cooked[i] != '\n')
                ++i;
            continue;
        }
        if (c == '/' && i + 1 < n && cooked[i + 1] == '*') {
            i += 2;
            while (i + 1 < n &&
                   !(cooked[i] == '*' && cooked[i + 1] == '/'))
                ++i;
            i = std::min(n, i + 2);
            continue;
        }
        if (c == '"' || c == '\'') {
            skipQuoted(c);
            continue;
        }
        if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
            std::size_t j = i;
            while (j < n && isIdentChar(cooked[j]))
                ++j;
            const std::string text = cooked.substr(i, j - i);
            const std::uint64_t line = lineOf[i];
            // An encoding or raw prefix glued to a quote is part of
            // the literal, not an identifier token.
            if (j < n && cooked[j] == '"' && isRawPrefix(text)) {
                i = j;
                skipRaw();
                continue;
            }
            if (j < n && (cooked[j] == '"' || cooked[j] == '\'') &&
                isEncodingPrefix(text)) {
                i = j;
                skipQuoted(cooked[j]);
                continue;
            }
            out.push_back({Token::Kind::Ident, text, line});
            i = j;
            continue;
        }
        if (std::isdigit(static_cast<unsigned char>(c)) ||
            (c == '.' && i + 1 < n &&
             std::isdigit(static_cast<unsigned char>(cooked[i + 1])))) {
            // pp-number: digits, identifier chars (hex digits, type
            // and UDL suffixes), '.', digit separators, and signs
            // directly after an e/E/p/P exponent.
            std::size_t j = i;
            while (j < n &&
                   (isIdentChar(cooked[j]) || cooked[j] == '.' ||
                    cooked[j] == '\'' ||
                    ((cooked[j] == '+' || cooked[j] == '-') && j > i &&
                     (cooked[j - 1] == 'e' || cooked[j - 1] == 'E' ||
                      cooked[j - 1] == 'p' || cooked[j - 1] == 'P'))))
                ++j;
            out.push_back({Token::Kind::Number, cooked.substr(i, j - i),
                           lineOf[i]});
            i = j;
            continue;
        }
        if (i + 1 < n && isPunctPair(c, cooked[i + 1])) {
            out.push_back(
                {Token::Kind::Punct, cooked.substr(i, 2), lineOf[i]});
            i += 2;
            continue;
        }
        out.push_back(
            {Token::Kind::Punct, std::string(1, c), lineOf[i]});
        ++i;
    }
    return out;
}

bool
isFloatLiteral(const std::string &raw)
{
    // Strip a UDL suffix (12.5_km) before classifying; '_' cannot
    // otherwise appear in a pp-number.
    std::string text = raw.substr(0, raw.find('_'));
    if (text.empty())
        return false;
    if (text.size() > 1 && (text[1] == 'x' || text[1] == 'X')) {
        // Hex: floating only with a p-exponent (0x1.8p3).
        return text.find('p') != std::string::npos ||
            text.find('P') != std::string::npos;
    }
    if (text.back() == 'f' || text.back() == 'F' ||
        text.find('.') != std::string::npos)
        return true;
    return text.find('e') != std::string::npos ||
        text.find('E') != std::string::npos;
}

} // namespace sadapt::analysis
