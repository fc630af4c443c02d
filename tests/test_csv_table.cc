/**
 * @file
 * Tests for CSV output and console table formatting.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/csv.hh"
#include "common/table.hh"
#include "scratch_dir.hh"

using namespace sadapt;

namespace {

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

} // namespace

TEST(Csv, WritesSimpleRows)
{
    const test::ScratchDir scratch;
    const std::string path = scratch.path("test_out/simple.csv");
    {
        CsvWriter w(path);
        ASSERT_TRUE(w.ok());
        w.row({"a", "b", "c"});
        w.cell(1.5).cell(static_cast<long long>(7)).cell("x");
        w.endRow();
    }
    EXPECT_EQ(slurp(path), "a,b,c\n1.5,7,x\n");
}

TEST(Csv, EscapesSpecialCharacters)
{
    const test::ScratchDir scratch;
    const std::string path = scratch.path("test_out/escape.csv");
    {
        CsvWriter w(path);
        w.row({"has,comma", "has\"quote", "plain"});
    }
    EXPECT_EQ(slurp(path), "\"has,comma\",\"has\"\"quote\",plain\n");
}

TEST(Csv, CreatesParentDirectories)
{
    const test::ScratchDir scratch;
    const std::string path = scratch.path("test_out/deep/nested/file.csv");
    {
        CsvWriter w(path);
        EXPECT_TRUE(w.ok());
        w.row({"x"});
    }
    EXPECT_TRUE(std::filesystem::exists(path));
}

TEST(Table, NumFormatsPrecision)
{
    EXPECT_EQ(Table::num(1.23456, 2), "1.23");
    EXPECT_EQ(Table::num(1.0, 1), "1.0");
}

TEST(Table, GainAppendsSuffix)
{
    EXPECT_EQ(Table::gain(5.3), "5.30x");
}

TEST(Table, PrintDoesNotCrashOnRaggedRows)
{
    Table t;
    t.header({"a", "bb"});
    t.row({"1"});
    t.row({"1", "2", "3"});
    t.print(); // should not crash
    SUCCEED();
}
