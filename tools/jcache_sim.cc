/**
 * @file
 * jcache-sim: run one cache configuration over a trace (file or
 * built-in workload) and print the full statistics block.
 *
 * Usage:
 *   jcache-sim <trace.jct | workload-name>
 *       [--size KB] [--line B] [--assoc N]
 *       [--hit wt|wb] [--miss fow|wv|wa|wi]
 *       [--replacement lru|fifo|random] [--no-flush]
 *       [--jobs N] [--progress] [--json [path]] [--version]
 *
 * Defaults: 8KB, 16B lines, direct-mapped, write-back,
 * fetch-on-write — the paper's base configuration.
 *
 * The replay goes through the unified engine API (sim::runBatch, a
 * one-request batch).  --progress adds the run's
 * observability summary — wall time, replayed M ins/s — on stderr,
 * --json exports the run report, and --jobs sets the worker width,
 * all spelled identically across every jcache tool.  The statistics
 * block prints through the same renderer jcache-client uses, so an
 * offline run and a service run are byte-identical.
 */

#include <cstdint>
#include <filesystem>
#include <iostream>
#include <string>

#include "cli_common.hh"
#include "service/render.hh"
#include "sim/engine.hh"
#include "trace/import.hh"
#include "util/logging.hh"
#include "util/version.hh"
#include "workloads/workload.hh"

namespace
{

using namespace jcache;

constexpr unsigned kCommonFlags = tools::kFlagJobs |
                                  tools::kFlagProgress |
                                  tools::kFlagJson;

int
usage()
{
    std::cerr <<
        "usage: jcache-sim <trace.jct | workload-name>\n"
        "  [--size KB] [--line B] [--assoc N] [--hit wt|wb]\n"
        "  [--miss fow|wv|wa|wi] [--replacement lru|fifo|random]\n"
        "  [--no-flush] " << tools::commonUsage(kCommonFlags) <<
        " [--version]\n";
    return 2;
}

} // namespace

int
main(int argc, char** argv)
{
    if (argc >= 2 && std::string(argv[1]) == "--version") {
        std::cout << versionLine("jcache-sim") << "\n";
        return 0;
    }
    if (argc < 2)
        return usage();

    core::CacheConfig config;
    config.hitPolicy = core::WriteHitPolicy::WriteBack;
    bool flush = true;
    tools::CommonFlags common;

    try {
        for (int i = 2; i < argc; ++i) {
            if (tools::parseCommonFlag(argc, argv, i, kCommonFlags,
                                       common))
                continue;
            std::string flag = argv[i];
            if (flag == "--no-flush") {
                flush = false;
                continue;
            }
            if (i + 1 >= argc)
                return usage();
            std::string value = argv[++i];
            if (flag == "--size") {
                config.sizeBytes =
                    std::uint64_t{tools::parseUnsigned(value, flag)} *
                    1024;
            } else if (flag == "--line") {
                config.lineBytes = tools::parseUnsigned(value, flag);
            } else if (flag == "--assoc") {
                config.assoc = tools::parseUnsigned(value, flag);
            } else if (flag == "--hit") {
                auto policy = core::parseHitPolicy(value);
                fatalIf(!policy, "unknown hit policy: " + value +
                                     " (use wt|wb)");
                config.hitPolicy = *policy;
            } else if (flag == "--miss") {
                auto policy = core::parseMissPolicy(value);
                fatalIf(!policy, "unknown miss policy: " + value +
                                     " (use fow|wv|wa|wi)");
                config.missPolicy = *policy;
            } else if (flag == "--replacement") {
                auto policy = core::parseReplacementPolicy(value);
                fatalIf(!policy,
                        "unknown replacement policy: " + value +
                            " (use lru|fifo|random)");
                config.replacement = *policy;
            } else {
                return usage();
            }
        }
        config.validate();

        std::string source = argv[1];
        trace::Trace trace = std::filesystem::exists(source)
            ? trace::loadAnyTrace(source)
            : workloads::generateTrace(
                  *workloads::makeWorkload(source));

        sim::BatchOptions options;
        options.jobs = common.jobs;
        sim::BatchOutcome outcome =
            sim::runBatch({{&trace, config, flush}}, options);
        for (const sim::JobFailure& f : outcome.report.failures)
            std::cerr << "error: " << f.message << "\n";
        if (!outcome.ok())
            return 1;
        service::renderRunTable(std::cout, outcome.results.front(),
                                trace.name(), flush);
        if (common.progress)
            std::cerr << outcome.report.summary() << "\n";
        tools::writeJsonSink(common, [&](std::ostream& os) {
            outcome.report.writeJson(os);
        });
        return 0;
    } catch (const FatalError& e) {
        std::cerr << "error: " << e.what() << "\n";
        return 1;
    }
}
