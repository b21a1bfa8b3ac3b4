/**
 * @file
 * Implementation of the shared tool flag surface.
 */

#include "cli_common.hh"

#include <cerrno>
#include <cstdlib>
#include <fstream>
#include <iostream>

#include "util/logging.hh"

namespace jcache::tools
{

namespace
{

/**
 * Digits only, at most `max`.  strtoull alone would accept a sign
 * (negating "-1" into a huge value) and leading whitespace.
 */
std::uint64_t
parseBounded(const std::string& value, const std::string& flag,
             std::uint64_t max)
{
    if (value.empty() ||
        value.find_first_not_of("0123456789") != std::string::npos)
        fatal(flag + " expects a non-negative integer, got '" + value +
              "'");
    errno = 0;
    unsigned long long parsed = std::strtoull(value.c_str(), nullptr, 10);
    if (errno == ERANGE || parsed > max)
        fatal(flag + " must be at most " + std::to_string(max) +
              ", got '" + value + "'");
    return parsed;
}

} // namespace

unsigned
parseUnsigned(const std::string& value, const std::string& flag,
              unsigned max)
{
    return static_cast<unsigned>(parseBounded(value, flag, max));
}

std::uint64_t
parseUnsigned64(const std::string& value, const std::string& flag)
{
    return parseBounded(value, flag, UINT64_MAX);
}

bool
parseCommonFlag(int argc, char** argv, int& i, unsigned accepted,
                CommonFlags& out)
{
    const std::string flag = argv[i];

    if ((accepted & kFlagProgress) && flag == "--progress") {
        out.progress = true;
        return true;
    }
    if ((accepted & kFlagJson) && flag == "--json") {
        out.json = true;
        out.jsonPath.clear();
        // The path is optional: the next element is taken as one
        // unless it looks like another flag.
        if (i + 1 < argc && argv[i + 1][0] != '-')
            out.jsonPath = argv[++i];
        else if (i + 1 < argc && std::string(argv[i + 1]) == "-")
            ++i;  // explicit stdout
        return true;
    }
    if ((accepted & kFlagJobs) && flag == "--jobs") {
        fatalIf(i + 1 >= argc, "--jobs expects a value");
        out.jobs = parseUnsigned(argv[++i], "--jobs");
        return true;
    }
    return false;
}

void
writeJsonSink(const CommonFlags& flags,
              const std::function<void(std::ostream&)>& write)
{
    if (!flags.json)
        return;
    if (flags.jsonToStdout()) {
        write(std::cout);
        return;
    }
    std::ofstream ofs(flags.jsonPath);
    fatalIf(!ofs, "cannot open " + flags.jsonPath);
    write(ofs);
}

std::string
commonUsage(unsigned accepted)
{
    std::string usage;
    auto append = [&](const char* fragment) {
        if (!usage.empty())
            usage += " ";
        usage += fragment;
    };
    if (accepted & kFlagJobs)
        append("[--jobs N]");
    if (accepted & kFlagProgress)
        append("[--progress]");
    if (accepted & kFlagJson)
        append("[--json [path]]");
    return usage;
}

} // namespace jcache::tools
