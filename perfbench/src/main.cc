/**
 * @file
 * perfbench: jcache's benchmark program.
 *
 *   perfbench --workload paper|sweep|serve --seed N --seconds S
 *             --trace 0|1 --jcached PATH --manifest PATH
 *             --work-dir DIR --trace-dir DIR
 *
 * --trace 0 measures the workload and prints its end-to-end metrics;
 * --trace 1 runs one untraced and one traced pass of it (their wall
 * time difference, for serve their client CPU time difference, is the
 * tracing overhead), writes the traced pass's
 * spans as Chrome-trace JSON, prints their per-layer self-time roll-up,
 * and reports every per-layer probe.  The last line of stdout is the
 * run's JSON result; a failed correctness gate exits 1.
 *
 * Internal modes: --print-manifest (paper digests for the manifest),
 * --capacity (closed-loop capacity of the serve mix) and
 * --probe-fast-lane (the scalar fast-lane child probe).
 */

#include <charconv>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <thread>
#include <unistd.h>

#include "bench.hh"
#include "spans.hh"

using namespace perfbench;
namespace fs = std::filesystem;

namespace
{

/** Seconds of live-daemon traffic when the traced workload is not serve. */
constexpr double kProbeServeSeconds = 10.0;

int
usage()
{
    std::cerr << "usage: perfbench --workload paper|sweep|serve --seed N "
                 "--seconds S --trace 0|1 --jcached PATH --manifest PATH "
                 "--work-dir DIR --trace-dir DIR\n";
    return 2;
}

std::string
number(double value)
{
    char buf[64];
    auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), value);
    return ec == std::errc() ? std::string(buf, end) : "0";
}

void
printResult(const Report& report, const std::vector<Metric>& metrics)
{
    std::cout << "{\"correct\": " << (report.correct() ? "true" : "false")
              << ", \"attempted\": " << report.attempted
              << ", \"failed\": " << report.failed << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        std::cout << (i ? ", " : "") << "\"" << metrics[i].name
                  << "\": {\"value\": " << number(metrics[i].value)
                  << ", \"unit\": \"" << metrics[i].unit << "\"}";
    }
    std::cout << "}}" << std::endl;
}

void
printTable(const char* title, const std::vector<Metric>& metrics)
{
    std::cerr << title << "\n";
    for (const Metric& m : metrics) {
        std::cerr << "  " << std::left << std::setw(44) << m.name
                  << std::right << std::setw(14) << number(m.value) << " "
                  << std::left << std::setw(15) << m.unit << " n="
                  << std::setw(6) << m.samples << m.feeds << "\n";
    }
}

/** A workload: its entry point and its timed run's set-up repetitions. */
struct Workload
{
    const char* name;
    PassFacts (*run)(const Options&, const PassPlan&, Report&);
    /**
     * setup_s is the median of this many set-ups.  serve times more:
     * one jcached launch to first ping scatters by 2-27%
     * (interquartile range over median of nine launches in a row) on a
     * 4-vCPU VM.
     */
    unsigned setupReps;
};

constexpr Workload kWorkloads[] = {
    {"paper", runPaper, 9},
    {"sweep", runSweep, 5},
    {"serve", runServe, 11},
};

void
tracedRun(const Options& opt, const Workload& workload, Report& report)
{
    // serve runs its whole schedule.  paper and sweep repeat for a fifth
    // of the timed run, which keeps the traced run inside its time limit
    // and gives sweep a median of several replays: its first replay is
    // up to a third slower than later ones, traced or not.
    bool serve = opt.workload == "serve";
    PassPlan plan{serve ? opt.seconds : opt.seconds / 5, 1};
    PassFacts plain = workload.run(opt, plan, report);
    Tracer tracer;
    setActiveTracer(&tracer);
    PassFacts facts = workload.run(opt, plan, report);
    setActiveTracer(nullptr);

    fs::create_directories(opt.traceDir);
    std::string path = opt.traceDir + "/" + opt.workload + "-seed" +
        std::to_string(opt.seed) + ".json";
    std::ofstream out(path);
    tracer.writeChrome(out);
    std::cerr << "traced " << opt.workload << " pass: "
              << tracer.spans().size() << " spans written to " << path
              << "\nper-layer self time of the traced pass:\n";
    for (const LayerTime& row : tracer.rollUp()) {
        std::cerr << "  " << std::left << std::setw(14) << row.layer
                  << std::right << std::setw(12) << number(row.selfMs)
                  << " ms  spans=" << row.spans << "\n";
    }

    // serve's wall time is set by its arrival schedule, so the spans'
    // cost can only show in the client's CPU time.
    if (serve)
        report.layer("bench.trace_overhead_s",
                     facts.cpuSeconds - plain.cpuSeconds, "s", 2,
                     "traced minus untraced client CPU time");
    else
        report.layer("bench.trace_overhead_s",
                     facts.wallSeconds - plain.wallSeconds, "s", 2,
                     "traced minus untraced median wall time of a repetition");
    if (!facts.daemon)
        facts.daemon =
            runServe(opt, {kProbeServeSeconds, 2}, report).daemon;
    runLayerProbes(opt, facts, report);
}

/** Removes the run's scratch directory however the run ends. */
struct WorkDir
{
    std::string path;
    ~WorkDir()
    {
        std::error_code ec;
        fs::remove_all(path, ec);
    }
};

} // namespace

int
main(int argc, char** argv)
{
    std::signal(SIGPIPE, SIG_IGN);
    Options opt;
    std::string mode = "run";
    std::string workRoot = ".bench_build/work";
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (flag == "--print-manifest" || flag == "--capacity" ||
            flag == "--probe-fast-lane") {
            mode = flag.substr(2);
            continue;
        }
        if (i + 1 >= argc)
            return usage();
        std::string value = argv[++i];
        try {
            if (flag == "--workload")
                opt.workload = value;
            else if (flag == "--seed")
                opt.seed = std::stoull(value);
            else if (flag == "--seconds")
                opt.seconds = std::stod(value);
            else if (flag == "--trace")
                opt.trace = std::stoi(value) != 0;
            else if (flag == "--jcached")
                opt.jcached = value;
            else if (flag == "--manifest")
                opt.manifest = value;
            else if (flag == "--work-dir")
                workRoot = value;
            else if (flag == "--trace-dir")
                opt.traceDir = value;
            else
                return usage();
        } catch (const std::exception&) {
            return usage();
        }
    }
    opt.threads = std::max(1u, std::thread::hardware_concurrency());

    try {
        if (mode == "probe-fast-lane") {
            std::cout << number(fastLaneNsPerRecordLane()) << "\n";
            return 0;
        }
        WorkDir work{workRoot + "/" + (opt.workload.empty() ? mode
                                                            : opt.workload) +
                     "-" + std::to_string(::getpid())};
        fs::remove_all(work.path);
        fs::create_directories(work.path);
        opt.workDir = work.path;
        Report report;
        if (mode == "print-manifest") {
            std::cout << paperManifest(opt);
            return 0;
        }
        if (mode == "capacity") {
            std::cout << "closed-loop capacity: "
                      << number(serveCapacity(opt, report)) << " req/s\n";
            return report.correct() ? 0 : 1;
        }
        const Workload* workload = nullptr;
        for (const Workload& w : kWorkloads) {
            if (opt.workload == w.name)
                workload = &w;
        }
        if (workload == nullptr)
            return usage();
        if (opt.trace)
            tracedRun(opt, *workload, report);
        else
            workload->run(opt, {opt.seconds, workload->setupReps}, report);
        printTable(opt.trace ? "per-layer metrics:" : "end-to-end metrics:",
                   opt.trace ? report.perLayer : report.endToEnd);
        for (const std::string& why : report.gateFailures)
            std::cerr << "GATE FAILED: " << why << "\n";
        printResult(report, opt.trace ? report.perLayer : report.endToEnd);
        return report.correct() ? 0 : 1;
    } catch (const std::exception& e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 1;
    }
}
