/**
 * @file
 * Unit tests for util/logging: fatal() error reporting.
 */

#include <string>

#include <gtest/gtest.h>

#include "util/logging.hh"

namespace jcache
{
namespace
{

TEST(Logging, FatalThrowsFatalError)
{
    EXPECT_THROW(fatal("bad config"), FatalError);
}

TEST(Logging, FatalPreservesMessage)
{
    try {
        fatal("line size must be a power of two");
        FAIL() << "fatal() returned";
    } catch (const FatalError& e) {
        EXPECT_STREQ(e.what(), "line size must be a power of two");
    }
}

TEST(Logging, FatalIfOnlyThrowsWhenConditionHolds)
{
    EXPECT_NO_THROW(fatalIf(false, "should not throw"));
    EXPECT_THROW(fatalIf(true, "should throw"), FatalError);
}

TEST(Logging, FatalIfCarriesLiteralAndBuiltMessages)
{
    try {
        fatalIf(true, "a literal message");
        FAIL() << "fatalIf() returned";
    } catch (const FatalError& e) {
        EXPECT_STREQ(e.what(), "a literal message");
    }
    try {
        fatalIf(true, std::string("a built ") + "message");
        FAIL() << "fatalIf() returned";
    } catch (const FatalError& e) {
        EXPECT_STREQ(e.what(), "a built message");
    }
}

TEST(Logging, FatalErrorIsARuntimeError)
{
    // Callers may catch the standard hierarchy.
    EXPECT_THROW(fatal("x"), std::runtime_error);
}

} // namespace
} // namespace jcache
