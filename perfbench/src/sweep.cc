/**
 * @file
 * The `sweep` workload: a design-space sweep over trace files.
 *
 * Before timing, the nine registered workloads are generated at a
 * seed-derived WorkloadConfig seed, cut to kSweepRecords records each
 * (so every seed replays the same number of references) and written as
 * files: the six Table 1 traces as JCTX, the three production traces as
 * Dinero text.  Set-up then imports each file with loadAnyTrace and
 * writes its JCRC replay cache with ensureReplayCache; the timed part
 * replays the grid through sim::runBatch (one-pass engine) straight from
 * the mapped JCRC files.
 */

#include <algorithm>
#include <filesystem>
#include <iostream>
#include <memory>
#include <random>
#include <sstream>

#include "bench.hh"
#include "measure.hh"
#include "service/render.hh"
#include "sim/engine.hh"
#include "sim/multiconfig.hh"
#include "spans.hh"
#include "stats/json.hh"
#include "trace/import.hh"
#include "trace/replay_cache.hh"
#include "workloads/workload.hh"

namespace perfbench
{

using namespace jcache;
namespace fs = std::filesystem;

namespace
{

/** Records per trace: below the shortest generator's length. */
constexpr std::size_t kSweepRecords = 400000;
constexpr std::size_t kCheckedCells = 12;

struct TraceFile
{
    std::string path;
    bool text = false;
};

/** Generate, cut and write the nine input files (not timed). */
std::vector<TraceFile>
writeInputs(const Options& opt, const std::string& dir)
{
    fs::create_directories(dir);
    workloads::WorkloadConfig config;
    config.seed = mixSeed(opt.seed, 2);
    const auto& production = workloads::productionNames();
    std::vector<TraceFile> files;
    for (const std::string& name : workloads::allWorkloadNames()) {
        trace::Trace full =
            workloads::generateTrace(*workloads::makeWorkload(name, config));
        trace::Trace cut(name);
        cut.reserve(kSweepRecords);
        for (std::size_t i = 0; i < kSweepRecords && i < full.size(); ++i)
            cut.append(full[i]);
        bool text = std::find(production.begin(), production.end(),
                              name) != production.end();
        TraceFile file{dir + "/" + name + (text ? ".txt" : ".jctx"), text};
        if (text)
            trace::saveTraceText(cut, file.path);
        else
            trace::saveTraceBinary(cut, file.path);
        files.push_back(file);
    }
    return files;
}

/** What set-up leaves for the timed part. */
struct Loaded
{
    std::vector<trace::Trace> traces;
    std::vector<std::unique_ptr<trace::MappedReplayCache>> caches;
    double seconds = 0.0;
};

/** Import every file and write its JCRC into a fresh `cacheDir`. */
Loaded
setUp(const std::vector<TraceFile>& files, const std::string& cacheDir)
{
    fs::remove_all(cacheDir);
    Loaded loaded;
    auto start = Clock::now();
    for (const TraceFile& file : files) {
        {
            Scope span(file.text ? "trace.import_text"
                                 : "trace.import_jctx");
            loaded.traces.push_back(trace::loadAnyTrace(file.path));
        }
        std::string path;
        {
            Scope span("trace.replay_cache_write");
            path = trace::ensureReplayCache(loaded.traces.back(), cacheDir);
        }
        loaded.caches.push_back(
            std::make_unique<trace::MappedReplayCache>(path));
    }
    loaded.seconds = secondsSince(start);
    return loaded;
}

/** The sweep grid over one trace: direct-mapped part, then assoc. */
std::vector<core::CacheConfig>
gridConfigs()
{
    std::vector<core::CacheConfig> grid;
    for (Count size : sim::standardCacheSizes()) {
        for (unsigned line : sim::standardLineSizes()) {
            for (auto [hit, miss] : sim::legalPolicyPairs()) {
                core::CacheConfig c;
                c.sizeBytes = size;
                c.lineBytes = line;
                c.hitPolicy = hit;
                c.missPolicy = miss;
                grid.push_back(c);
            }
        }
    }
    for (unsigned assoc : {2u, 4u}) {
        for (Count kb : {4u, 16u, 64u}) {
            for (auto [hit, miss] :
                 {std::pair{core::WriteHitPolicy::WriteBack,
                            core::WriteMissPolicy::FetchOnWrite},
                  std::pair{core::WriteHitPolicy::WriteThrough,
                            core::WriteMissPolicy::WriteAround}}) {
                core::CacheConfig c;
                c.sizeBytes = kb * 1024;
                c.lineBytes = 16;
                c.assoc = assoc;
                c.hitPolicy = hit;
                c.missPolicy = miss;
                grid.push_back(c);
            }
        }
    }
    return grid;
}

std::vector<sim::Request>
gridRequests(const Loaded& loaded)
{
    std::vector<sim::Request> requests;
    for (const auto& cache : loaded.caches) {
        for (const core::CacheConfig& config : gridConfigs()) {
            sim::Request r;
            r.source = cache.get();
            r.config = config;
            requests.push_back(r);
        }
    }
    return requests;
}

std::string
serialize(const sim::RunResult& result)
{
    std::ostringstream os;
    stats::JsonWriter json(os);
    json.beginObject();
    service::writeRunResult(json, "result", result);
    json.endObject();
    return os.str();
}

std::string
digestAll(const std::vector<sim::RunResult>& results)
{
    std::string all;
    for (const sim::RunResult& r : results)
        all += serialize(r);
    return digestHex(all);
}

/** Replay the grid through the one-pass engine at nproc threads. */
sim::BatchOutcome
replayGrid(const Options& opt, const std::vector<sim::Request>& requests)
{
    Scope span("sim.run_batch");
    sim::BatchOptions batch;
    batch.engine = sim::Engine::OnePass;
    batch.jobs = opt.threads;
    return sim::runBatch(requests, batch);
}

/**
 * Gate: a seeded sample of one-pass results read from mapped JCRC
 * equals Engine::PerCell on the imported trace, counter for counter.
 */
void
checkSample(const Options& opt, const Loaded& loaded,
            const std::vector<sim::Request>& requests,
            const std::vector<sim::RunResult>& results, Report& report)
{
    std::size_t perTrace = requests.size() / loaded.traces.size();
    std::mt19937_64 rng(mixSeed(opt.seed, 3));
    for (std::size_t k = 0; k < kCheckedCells; ++k) {
        std::size_t i = rng() % requests.size();
        sim::Request ref;
        ref.trace = &loaded.traces[i / perTrace];
        ref.config = requests[i].config;
        sim::Result want = sim::runOne(ref, sim::Engine::PerCell);
        if (serialize(want) != serialize(results[i])) {
            report.gate(false, "sweep cell " + std::to_string(i) + " (" +
                                   requests[i].config.describe() +
                                   ") differs from the per-cell engine");
        }
    }
}

} // namespace

PassFacts
runSweep(const Options& opt, const PassPlan& plan, Report& report)
{
    auto files = writeInputs(opt, opt.workDir + "/sweep-inputs");
    std::vector<double> setup;
    Loaded loaded;
    // Half the set-ups before the timed part and half after it, so their
    // median spans the run, not one moment of the host's load.
    for (unsigned i = 0; i < (plan.setupReps + 1) / 2; ++i) {
        loaded = Loaded{};
        loaded = setUp(files, opt.workDir + "/sweep-jcrc");
        setup.push_back(loaded.seconds);
    }
    auto requests = gridRequests(loaded);

    PassFacts facts;
    std::vector<double> walls;
    std::string firstDigest;
    std::vector<sim::RunResult> firstResults;
    double cpu = processCpuSeconds();
    auto start = Clock::now();
    while (walls.empty() || secondsSince(start) < plan.seconds) {
        auto rep = Clock::now();
        sim::BatchOutcome outcome = replayGrid(opt, requests);
        walls.push_back(secondsSince(rep));
        report.attempted += requests.size();
        report.failed += outcome.report.failures.size();
        report.gate(outcome.ok(), "sweep cells failed");
        std::string digest = digestAll(outcome.results);
        if (firstDigest.empty()) {
            firstDigest = digest;
            firstResults = std::move(outcome.results);
        } else {
            report.gate(digest == firstDigest,
                        "sweep results differ between repetitions");
        }
    }
    facts.cpuSeconds = processCpuSeconds() - cpu;
    facts.wallSeconds = median(walls);
    checkSample(opt, loaded, requests, firstResults, report);

    double records = 0.0;
    for (const auto& cache : loaded.caches)
        records += static_cast<double>(cache->records());
    std::size_t traceCount = loaded.caches.size();
    requests.clear();
    loaded = Loaded{};  // one loaded set at a time
    for (unsigned i = 0; i < plan.setupReps / 2; ++i)
        setup.push_back(
            setUp(files, opt.workDir + "/sweep-jcrc-after").seconds);
    double cells = static_cast<double>(firstResults.size());
    double wall = facts.wallSeconds;
    report.e2e("setup_s", median(setup), "s", setup.size());
    report.e2e("wall_s", wall, "s", walls.size());
    report.e2e("goodput_rps", cells / wall, "1/s", walls.size());
    report.e2e("peak_rss_mb", peakRssMb(), "MiB", 1);
    std::cerr << "sweep: " << firstResults.size() << " cells over "
              << traceCount << " traces, " << walls.size()
              << " grid replays at " << opt.threads << " threads, "
              << (cells / traceCount) * records / wall / 1e6
              << " simulated Mref/s\n";
    return facts;
}

double
sweepFastLaneShare(std::size_t* cells)
{
    auto grid = gridConfigs();
    std::size_t fast = 0;
    for (const core::CacheConfig& c : grid)
        fast += sim::fastLaneEligible(c);
    *cells = grid.size();
    return static_cast<double>(fast) / static_cast<double>(grid.size());
}

} // namespace perfbench
