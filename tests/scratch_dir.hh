/**
 * @file
 * A scratch directory owned by one test case. gtest discovery runs
 * every case as its own ctest process and `ctest -j` runs those side
 * by side, so a fixed file name (under TempDir() or the working
 * directory) is shared between concurrently running cases. The
 * directory name carries the suite, the test and the pid, so no two
 * live cases can collide; the directory and everything in it are
 * removed when the owner goes out of scope.
 */

#ifndef SADAPT_TESTS_SCRATCH_DIR_HH
#define SADAPT_TESTS_SCRATCH_DIR_HH

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <system_error>

namespace sadapt::test {

class ScratchDir
{
  public:
    ScratchDir() : dirV(makeName())
    {
        std::filesystem::remove_all(dirV);
        std::filesystem::create_directories(dirV);
    }

    ~ScratchDir()
    {
        std::error_code ec;
        std::filesystem::remove_all(dirV, ec);
    }

    ScratchDir(const ScratchDir &) = delete;
    ScratchDir &operator=(const ScratchDir &) = delete;

    /** `name` inside this test's directory. */
    std::string path(const std::string &name) const
    {
        return dirV + "/" + name;
    }

  private:
    std::string dirV;

    static std::string makeName()
    {
        const ::testing::TestInfo *info =
            ::testing::UnitTest::GetInstance()->current_test_info();
        std::string name = info != nullptr
            ? std::string(info->test_suite_name()) + "." + info->name()
            : std::string("no_test");
        // Parameterized names carry '/' (Suite/Instance.Test/0).
        std::replace(name.begin(), name.end(), '/', '_');
        return ::testing::TempDir() + "sadapt." + name + "." +
            std::to_string(::getpid());
    }
};

} // namespace sadapt::test

#endif // SADAPT_TESTS_SCRATCH_DIR_HH
