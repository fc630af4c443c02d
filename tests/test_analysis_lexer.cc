/**
 * @file
 * Token-stream pins for the shared analysis lexer. The committed
 * adversarial fixtures (tests/data/analysis/lexer/) exercise the
 * C++ lexical corners the checks must not trip on: raw strings,
 * digit separators, phase-2 line splices and user-defined literals.
 * These tests pin the exact token text so a lexer regression shows
 * up as a diff, not as a silent lint false positive/negative.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "analysis/lexer.hh"

using namespace sadapt::analysis;

namespace {

std::string
readFixture(const std::string &name)
{
    const std::string path =
        std::string(SADAPT_TEST_DATA_DIR) + "/analysis/lexer/" + name;
    std::ifstream in(path);
    EXPECT_TRUE(in) << path;
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

std::vector<std::string>
texts(const std::vector<Token> &toks)
{
    std::vector<std::string> out;
    out.reserve(toks.size());
    for (const Token &t : toks)
        out.push_back(t.text);
    return out;
}

} // namespace

TEST(Lexer, RawStringsFixtureTokenStream)
{
    const auto toks = lex(readFixture("raw_strings.cc"));
    // Raw literals (all four prefix forms) are discarded whole, so
    // nothing spelled inside them -- rand(, time(, srand(, fork( --
    // appears as a token.
    EXPECT_EQ(texts(toks),
              (std::vector<std::string>{
                  "const", "char", "*", "a", "=", ";",
                  "const", "char", "*", "b", "=", ";",
                  "const", "char8_t", "*", "c", "=", ";",
                  "const", "wchar_t", "*", "d", "=", ";",
                  "int", "after", "=", "1", ";"}));
}

TEST(Lexer, DigitSeparatorsFixtureTokenStream)
{
    const auto toks = lex(readFixture("digit_separators.cc"));
    EXPECT_EQ(texts(toks),
              (std::vector<std::string>{
                  "int", "big", "=", "1'000'000", ";",
                  "unsigned", "hex", "=", "0xFF'FF'FFu", ";",
                  "double", "small", "=", "1'000.000'1e-1'0", ";",
                  "int", "after", "=", "2", ";"}));
}

TEST(Lexer, LineSplicesFixtureTokenStream)
{
    const auto toks = lex(readFixture("line_splices.cc"));
    // The spliced identifier is one token; the spliced // comment
    // swallows the whole `int time_bomb = time(nullptr);` line.
    EXPECT_EQ(texts(toks),
              (std::vector<std::string>{
                  "int", "spliced_name", "=", "3", ";",
                  "int", "after", "=", "4", ";"}));
    // Findings must still point at original source lines: the
    // spliced identifier starts on line 5 of the fixture.
    ASSERT_GE(toks.size(), 2u);
    EXPECT_EQ(toks[1].text, "spliced_name");
    EXPECT_EQ(toks[1].line, 5u);
}

TEST(Lexer, UdlFixtureTokenStream)
{
    const auto toks = lex(readFixture("udl.cc"));
    EXPECT_EQ(texts(toks),
              (std::vector<std::string>{
                  "int", "cells", "=", "10_cells", ";",
                  "double", "km", "=", "12.5_km", ";",
                  "auto", "s", "=", ";",
                  "auto", "ch", "=", ";",
                  "int", "after", "=", "5", ";"}));
}

TEST(Lexer, SplicedDirectiveSharesLogicalLine)
{
    const auto toks = lex("#define M(a) \\\n    (a + 1)\nint x;\n");
    // The spliced directive is one logical line spread over physical
    // lines 1 and 2; its tokens keep their physical lines for findings,
    // and the code after it starts on line 3.
    ASSERT_EQ(toks.size(), 14u);
    EXPECT_EQ(toks[0].text, "#");
    for (std::size_t i = 0; i < 6; ++i)
        EXPECT_EQ(toks[i].line, 1u) << i << ": " << toks[i].text;
    for (std::size_t i = 6; i < 11; ++i)
        EXPECT_EQ(toks[i].line, 2u) << i << ": " << toks[i].text;
    EXPECT_EQ(toks[11].text, "int");
    EXPECT_EQ(toks[11].line, 3u);
}

TEST(Lexer, FloatLiteralClassification)
{
    EXPECT_TRUE(isFloatLiteral("1.0"));
    EXPECT_TRUE(isFloatLiteral("2.f"));
    EXPECT_TRUE(isFloatLiteral("1e-9"));
    EXPECT_TRUE(isFloatLiteral("0x1.8p3"));
    EXPECT_TRUE(isFloatLiteral("12.5_km"));

    EXPECT_FALSE(isFloatLiteral("42"));
    EXPECT_FALSE(isFloatLiteral("0x10"));
    EXPECT_FALSE(isFloatLiteral("1'000'000"));
    // Regression: the UDL suffix must not leak into classification
    // (10_cells contains an 'e' but is an integer literal).
    EXPECT_FALSE(isFloatLiteral("10_cells"));
    EXPECT_FALSE(isFloatLiteral("0xFF'FF'FFu"));
}

TEST(Lexer, EncodingPrefixedStringsAreNotIdentifiers)
{
    for (const char *src :
         {"auto a = u8\"x\";", "auto a = u\"x\";", "auto a = U\"x\";",
          "auto a = L\"x\";", "auto a = L'x';"}) {
        const auto toks = lex(src);
        EXPECT_EQ(texts(toks),
                  (std::vector<std::string>{"auto", "a", "=", ";"}))
            << src;
    }
    // ...but an identifier that merely looks like a prefix is kept.
    const auto toks = lex("int u8 = 0; int L = u8;");
    EXPECT_EQ(texts(toks),
              (std::vector<std::string>{"int", "u8", "=", "0", ";",
                                        "int", "L", "=", "u8", ";"}));
}
