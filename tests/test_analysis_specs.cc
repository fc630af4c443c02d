/**
 * @file
 * Spec-validator tests: config/fault spec strings, spec-list files,
 * and the whole-space encode/decode self-check.
 */

#include <gtest/gtest.h>

#include <fstream>

#include "analysis/spec_check.hh"
#include "scratch_dir.hh"

using namespace sadapt;
using namespace sadapt::analysis;

namespace {

bool
hasCheck(const Report &r, const std::string &check_id)
{
    for (const auto &f : r.findings())
        if (f.checkId == check_id)
            return true;
    return false;
}

/** RAII temp file holding `content`, in the test's own directory. */
class TempFile
{
  public:
    explicit TempFile(const std::string &content)
        : pathV(scratch.path("specs.txt"))
    {
        std::ofstream out(pathV);
        out << content;
    }

    const std::string &path() const { return pathV; }

  private:
    test::ScratchDir scratch;
    std::string pathV;
};

} // namespace

TEST(SpecCheck, ValidConfigSpecsPass)
{
    for (const char *spec :
         {"baseline", "bestavg", "max", "max,clock=500",
          "type=spm,l1_sharing=shared,l1_cap=16",
          "type=cache,l2_sharing=private,prefetch=4"}) {
        const Report r = checkConfigSpec(spec, "<spec>", 1);
        EXPECT_TRUE(r.clean()) << spec;
    }
}

TEST(SpecCheck, InvalidConfigSpecsFlagged)
{
    for (const char *spec :
         {"l1_cap=7", "bogus_key=1", "clock=333", "type=frobnicate"}) {
        const Report r = checkConfigSpec(spec, "<spec>", 1);
        EXPECT_FALSE(r.clean()) << spec;
        EXPECT_TRUE(hasCheck(r, "config-parse")) << spec;
    }
}

TEST(SpecCheck, ValidFaultSpecsRoundTrip)
{
    for (const char *spec :
         {"drop=0.01", "corrupt=0.05,delay=0.01",
          "drop=0.01,corrupt=0.05,delay=0.01,reconfig=0.02,seed=7",
          "drop=0.1,max_delay=3",
          // High-precision rate: round-trip must be exact.
          "drop=0.012345678901234567"}) {
        const Report r = checkFaultSpec(spec, "<spec>", 1);
        EXPECT_TRUE(r.clean()) << spec;
    }
}

TEST(SpecCheck, InvalidFaultSpecsFlagged)
{
    for (const char *spec : {"drop=1.5", "frobnicate=1", "drop=-0.1"}) {
        const Report r = checkFaultSpec(spec, "<spec>", 1);
        EXPECT_FALSE(r.clean()) << spec;
        EXPECT_TRUE(hasCheck(r, "faults-parse")) << spec;
    }
}

TEST(SpecCheck, GoodSpecFilePasses)
{
    TempFile f("# comment\n"
               "config: baseline\n"
               "config: max,clock=500\n"
               "\n"
               "faults: drop=0.01,seed=7\n");
    const Report r = checkSpecFile(f.path());
    EXPECT_TRUE(r.clean());
}

TEST(SpecCheck, BadSpecFileFlagsEachLine)
{
    TempFile f("config: l1_cap=7\n"
               "faults: drop=1.5\n"
               "not-a-spec-line\n");
    const Report r = checkSpecFile(f.path());
    EXPECT_FALSE(r.clean());
    EXPECT_TRUE(hasCheck(r, "config-parse"));
    EXPECT_TRUE(hasCheck(r, "faults-parse"));
    EXPECT_TRUE(hasCheck(r, "spec-syntax"));
    EXPECT_GE(r.errorCount(), 3u);
}

TEST(SpecCheck, MissingSpecFileIsAnError)
{
    const Report r = checkSpecFile("/nonexistent/specs.txt");
    EXPECT_FALSE(r.clean());
    EXPECT_TRUE(hasCheck(r, "spec-io"));
}

TEST(SpecCheck, ConfigSpaceInvariantsHold)
{
    const Report r = checkConfigSpaceInvariants();
    for (const auto &f : r.findings())
        ADD_FAILURE() << f.format();
    EXPECT_TRUE(r.clean());
}
