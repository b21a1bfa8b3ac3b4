/**
 * @file
 * Tests for the tools' shared flag parsing (tools/cli_common.hh):
 * the checked numeric parsers reject signs, empty values, trailing
 * characters and out-of-range values instead of wrapping or
 * truncating them, and --jobs goes through the same check.
 */

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cli_common.hh"
#include "util/logging.hh"

using namespace jcache;

namespace
{

/** The FatalError message parseUnsigned raises, or "" if none. */
std::string
rejection(const std::string& value, unsigned max = UINT_MAX)
{
    try {
        tools::parseUnsigned(value, "--flag", max);
    } catch (const FatalError& e) {
        return e.what();
    }
    return "";
}

} // namespace

TEST(ParseUnsigned, AcceptsDecimalValuesUpToTheLimit)
{
    EXPECT_EQ(tools::parseUnsigned("0", "--flag"), 0u);
    EXPECT_EQ(tools::parseUnsigned("8", "--flag"), 8u);
    EXPECT_EQ(tools::parseUnsigned("007", "--flag"), 7u);
    EXPECT_EQ(tools::parseUnsigned("4294967295", "--flag"),
              4294967295u);
    EXPECT_EQ(tools::parseUnsigned("65535", "--port", 65535), 65535u);
}

TEST(ParseUnsigned, RejectsSignsEmptyAndTrailingCharacters)
{
    // Bare strtoul would take "-1" as 4294967295 and "12x" as 12.
    for (const char* bad : {"-1", "", "12x", "8x", "+5", " 5", "5 ",
                            "abc", "0x10", "1.5"}) {
        std::string message = rejection(bad);
        EXPECT_NE(message.find("--flag expects a non-negative integer"),
                  std::string::npos)
            << "'" << bad << "' gave: " << message;
    }
}

TEST(ParseUnsigned, RejectsValuesAboveTheLimit)
{
    // Past UINT_MAX a cast would truncate: 99999999999 would become
    // 1215752191.
    for (const char* big :
         {"4294967296", "99999999999", "18446744073709551616",
          "99999999999999999999999"}) {
        std::string message = rejection(big);
        EXPECT_NE(message.find("--flag must be at most 4294967295"),
                  std::string::npos)
            << big << " gave: " << message;
    }
    // Ports: 65536 would otherwise wrap to port 0 in a uint16_t.
    EXPECT_NE(rejection("65536", 65535).find("at most 65535"),
              std::string::npos);
    EXPECT_NE(rejection("70000", 65535).find("at most 65535"),
              std::string::npos);
}

TEST(ParseUnsigned64, CoversTheFull64BitRange)
{
    EXPECT_EQ(tools::parseUnsigned64("4294967296", "--cap"),
              4294967296ull);
    EXPECT_EQ(tools::parseUnsigned64("18446744073709551615", "--cap"),
              UINT64_MAX);
    EXPECT_THROW(tools::parseUnsigned64("18446744073709551616", "--cap"),
                 FatalError);
    for (const char* bad : {"-1", "", "12x"})
        EXPECT_THROW(tools::parseUnsigned64(bad, "--cap"), FatalError)
            << "'" << bad << "'";
}

TEST(ParseCommonFlag, JobsValueIsChecked)
{
    std::vector<std::string> args = {"tool", "--jobs", "-1"};
    std::vector<char*> argv;
    for (std::string& arg : args)
        argv.push_back(arg.data());
    tools::CommonFlags flags;
    int i = 1;
    EXPECT_THROW(tools::parseCommonFlag(static_cast<int>(argv.size()),
                                        argv.data(), i,
                                        tools::kFlagJobs, flags),
                 FatalError);
    EXPECT_EQ(flags.jobs, 0u);

    args[2] = "3";
    argv[2] = args[2].data();
    i = 1;
    EXPECT_TRUE(tools::parseCommonFlag(static_cast<int>(argv.size()),
                                       argv.data(), i,
                                       tools::kFlagJobs, flags));
    EXPECT_EQ(flags.jobs, 3u);
    EXPECT_EQ(i, 2);
}
