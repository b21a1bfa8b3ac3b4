/**
 * @file
 * Shared types of the perfbench program: command-line options, the run
 * report printed as the last line of stdout, and the entry points of the
 * three workloads and of the per-layer probes.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <sys/types.h>
#include <vector>

#include "sim/experiments.hh"

namespace perfbench
{

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Scratch directory this run may fill; removed at exit. */
    std::string workDir;
    /** Where Chrome traces of traced runs are kept. */
    std::string traceDir;
    std::string jcached;
    std::string manifest;
    /** Worker threads for in-process work (hardware threads). */
    unsigned threads = 1;
};

/** One printed metric, with the facts a reader needs to trust it. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
    std::size_t samples = 1;
    /** The end-to-end metric (and workload) this one should move. */
    std::string feeds;
};

struct Report
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> gateFailures;
    std::vector<Metric> endToEnd;
    std::vector<Metric> perLayer;

    bool correct() const { return gateFailures.empty(); }
    void gate(bool ok, const std::string& what)
    {
        if (!ok)
            gateFailures.push_back(what);
    }
    void e2e(const std::string& name, double value,
             const std::string& unit, std::size_t samples)
    {
        endToEnd.push_back({name, value, unit, samples, ""});
    }
    void layer(const std::string& name, double value,
               const std::string& unit, std::size_t samples,
               const std::string& feeds)
    {
        perLayer.push_back({name, value, unit, samples, feeds});
    }
};

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** VmHWM of `pid` (0 = this process) in MiB; 0 if unreadable. */
double peakRssMb(pid_t pid = 0);

/** Seed-derived 64-bit value, distinct per `stream`. */
std::uint64_t mixSeed(std::uint64_t seed, std::uint64_t stream);

/** Read a whole file; throws on failure. */
std::string readFile(const std::string& path);

/** One figure family of the paper: its name and what it renders. */
struct PaperOutputs
{
    /** Rendered text per output name ("fig07", "table1", ...). */
    std::vector<std::pair<std::string, std::string>> rendered;
    /** Seconds per family, in the order run. */
    std::vector<std::pair<std::string, double>> familySeconds;
    /** Seconds spent in TextTable rendering alone. */
    double renderSeconds = 0.0;
};

/** Figure family names in the paper's order. */
const std::vector<std::string>& paperFamilies();

/**
 * Regenerate every paper figure and table once, families in `order`
 * (indexes into paperFamilies()), rendering each with TextTable.
 */
PaperOutputs regeneratePaper(const jcache::sim::TraceSet& traces,
                             const std::vector<std::size_t>& order);

/** Digests of every paper output, in the manifest's form. */
std::string paperManifest(const Options& opt);

/** What a serve pass read from the live daemon and its client. */
struct DaemonFacts
{
    /** Of the measured schedule's ok responses, from when each was due. */
    double latencyP50Ms = 0.0;
    double latencyP95Ms = 0.0;
    std::size_t latencySamples = 0;
    double queueWaitP50Ms = 0.0;
    double busyShare = 0.0;
    double resultCacheHitRatio = 0.0;
    double storeHitRatio = 0.0;
    double pingRttUs = 0.0;
    std::size_t pingSamples = 0;
    double lateDispatchP95Ms = 0.0;
    std::size_t dispatches = 0;
    /** Mean latency of the warm-up requests a fresh daemon answers. */
    double warmupMeanMs = 0.0;
    std::size_t warmupSamples = 0;
};

/** What one pass of a workload leaves for the per-layer probes. */
struct PassFacts
{
    /** Median wall time of the timed part's repetitions. */
    double wallSeconds = 0.0;
    /** CPU time of this process over the timed part. */
    double cpuSeconds = 0.0;
    /** Set by a paper pass. */
    std::optional<PaperOutputs> paper;
    /** Set by a serve pass. */
    std::optional<DaemonFacts> daemon;
};

/** How much one pass of a workload does. */
struct PassPlan
{
    /**
     * paper and sweep repeat their timed part until this many seconds
     * have passed (at least once); serve's arrival schedule lasts this
     * long.
     */
    double seconds = 0.0;
    /** Set-up repetitions (serve: timed daemon launches, at least 2). */
    unsigned setupReps = 1;
};

/**
 * Each workload: one pass as `plan` says.  It checks its outputs,
 * fills report.endToEnd and returns what the per-layer probes need.
 * A timed run makes one pass; a traced run makes two, without and with
 * spans.
 */
PassFacts runPaper(const Options& opt, const PassPlan& plan,
                   Report& report);
PassFacts runSweep(const Options& opt, const PassPlan& plan,
                   Report& report);
PassFacts runServe(const Options& opt, const PassPlan& plan,
                   Report& report);

/** CPU seconds used so far by this process, all threads. */
double processCpuSeconds();

/** Closed-loop capacity of the serve mix, in requests per second. */
double serveCapacity(const Options& opt, Report& report);

/** Every per-layer probe; `facts` supplies what the pass measured. */
void runLayerProbes(const Options& opt, const PassFacts& facts,
                    Report& report);

/** Share of the sweep grid's cells on fast lanes; `cells` = grid size. */
double sweepFastLaneShare(std::size_t* cells);

/** Fast-lane replay cost in ns per record-lane (child-process probe). */
double fastLaneNsPerRecordLane(std::size_t* samples = nullptr);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
