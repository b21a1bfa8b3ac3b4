/**
 * @file
 * jcache-loadgen: open-loop load generation and SLO measurement
 * against a running jcached.
 *
 * Usage:
 *   jcache-loadgen [--host H] [--port N] [--connections N]
 *                  [--duration S] [--rate RPS | --closed-loop]
 *                  [--pipeline N]
 *                  [--mix run=70,ping=10,health=10,stats=10]
 *                  [--workload NAME] [--deadline MS] [--timeout MS]
 *                  [--seed N] [--faults SPEC] [--fault-seed N]
 *                  [--json [path]]
 *                  [--require-goodput RPS] [--require-p99-ms MS]
 *                  [--require-class-p99-ms CLASS:MS]
 *                  [--require-sheds] [--version]
 *
 * The generator is **open-loop** by default: arrival times are drawn
 * from a seeded Poisson process at --rate and requests fire at their
 * scheduled instants whether or not earlier ones have completed —
 * the only honest way to measure an overloaded server, because a
 * closed loop self-throttles to whatever the server survives.
 * Latency is measured from the *scheduled arrival*, so queueing
 * anywhere (client worker, daemon queue) shows up in the
 * percentiles.  --closed-loop instead fires as fast as the
 * connections allow, which measures capacity — the SLO smoke uses it
 * to calibrate "2x overload" per machine.
 *
 * Two connection pools isolate the measurement the way a real
 * monitoring stack would: simulation classes (run/sweep/upload)
 * share --connections data-plane sockets, while control classes
 * (ping/health/stats) ride two dedicated control-plane sockets — so
 * "health stays fast under overload" is measured end to end, not
 * behind a client-side queue of stuck sims.
 *
 * --pipeline N exploits the reactor front end's per-connection
 * pipelining: each worker writes up to N frames back to back — in
 * open loop, the batch is the arrivals already *due* when the first
 * fires, so the schedule is honored — then reads the N responses in
 * order and classifies each.  N=1 (default) is the classic one
 * in-flight request per connection.
 *
 * Every request classifies into ok / ok_cached / busy /
 * deadline_exceeded / daemon_error / transport_error; the JSON
 * report (--json) carries the taxonomy, goodput, and p50/p95/p99
 * per class.  --faults arms client-side `util/fault` transport
 * faults (socket.*), for chaos variants.  --require-* flags turn
 * the tool into its own SLO assertion so shell harnesses don't
 * parse JSON: violations print `loadgen: SLO FAIL ...` and exit 1.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cli_common.hh"
#include "net/frame.hh"
#include "net/socket.hh"
#include "service/json_value.hh"
#include "stats/json.hh"
#include "telemetry/metrics.hh"
#include "util/fault.hh"
#include "util/logging.hh"
#include "util/version.hh"

namespace
{

using namespace jcache;
using Clock = std::chrono::steady_clock;

int
usage()
{
    std::cerr <<
        "usage: jcache-loadgen [--host H] [--port N]\n"
        "  [--connections N] [--duration S]\n"
        "  [--rate RPS | --closed-loop] [--pipeline N]\n"
        "  [--mix run=70,ping=10,health=10,stats=10]\n"
        "  [--workload NAME] [--deadline MS] [--timeout MS]\n"
        "  [--seed N] [--faults SPEC] [--fault-seed N]\n"
        "  [--json [path]]\n"
        "  [--require-goodput RPS] [--require-p99-ms MS]\n"
        "  [--require-class-p99-ms CLASS:MS] [--require-sheds]\n"
        "  [--version]\n";
    return 2;
}

/** Request classes the mix can weight. */
enum RequestClass : unsigned
{
    kRun = 0,
    kSweep,
    kUpload,
    kPing,
    kHealth,
    kStats,
    kClassCount,
};

const char* const kClassNames[kClassCount] = {
    "run", "sweep", "upload", "ping", "health", "stats",
};

/** Data plane carries the simulation work; control plane monitors. */
bool
isControlClass(unsigned cls)
{
    return cls == kPing || cls == kHealth || cls == kStats;
}

/** How one exchange ended. */
enum Outcome : unsigned
{
    kOk = 0,
    kOkCached,
    kBusy,
    kDeadlineExceeded,
    kDaemonError,
    kTransportError,
    kOutcomeCount,
};

const char* const kOutcomeNames[kOutcomeCount] = {
    "ok",          "ok_cached",    "busy",
    "deadline",    "daemon_error", "transport_error",
};

/** Per-class tally: outcome counts plus an ok-latency histogram. */
struct ClassStats
{
    std::atomic<std::uint64_t> outcomes[kOutcomeCount] = {};

    /** Latency of ok (served) requests, seconds since scheduled. */
    telemetry::Histogram latency;

    std::uint64_t total() const
    {
        std::uint64_t sum = 0;
        for (unsigned o = 0; o < kOutcomeCount; ++o)
            sum += outcomes[o].load();
        return sum;
    }

    std::uint64_t served() const
    {
        return outcomes[kOk].load() + outcomes[kOkCached].load();
    }
};

struct Options
{
    std::string host = "127.0.0.1";
    std::uint16_t port = 7421;
    unsigned dataConnections = 8;
    unsigned controlConnections = 2;
    double durationSeconds = 10.0;
    double rate = 50.0;
    bool closedLoop = false;
    unsigned pipeline = 1;
    unsigned weights[kClassCount] = {70, 0, 0, 10, 10, 10};
    std::string workload = "ccom";
    unsigned deadlineMillis = 0;
    unsigned timeoutMillis = 30000;
    std::uint64_t seed = 42;
    std::string faults;
    std::uint64_t faultSeed = 42;

    // SLO assertions; negative / false = unchecked.
    double requireGoodput = -1.0;
    double requireP99Millis = -1.0;
    double requireClassP99Millis[kClassCount] = {-1, -1, -1,
                                                 -1, -1, -1};
    bool requireSheds = false;
};

/** splitmix64: per-request deterministic class/shape draws. */
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/** Parse "run=70,ping=10,...". */
bool
parseMix(const std::string& spec, unsigned weights[kClassCount])
{
    for (unsigned c = 0; c < kClassCount; ++c)
        weights[c] = 0;
    std::istringstream iss(spec);
    std::string part;
    bool any = false;
    while (std::getline(iss, part, ',')) {
        std::size_t eq = part.find('=');
        if (eq == std::string::npos)
            return false;
        std::string name = part.substr(0, eq);
        unsigned value =
            tools::parseUnsigned(part.substr(eq + 1), "--mix " + name);
        bool known = false;
        for (unsigned c = 0; c < kClassCount; ++c) {
            if (name == kClassNames[c]) {
                weights[c] = value;
                known = true;
            }
        }
        if (!known)
            return false;
        any = any || value > 0;
    }
    return any;
}

/** Parse "health:250" for --require-class-p99-ms. */
bool
parseClassRequirement(const std::string& spec, Options& options)
{
    std::size_t colon = spec.find(':');
    if (colon == std::string::npos)
        return false;
    std::string name = spec.substr(0, colon);
    double value = tools::parsePositiveDouble(spec.substr(colon + 1),
                                              "--require-class-p99-ms");
    for (unsigned c = 0; c < kClassCount; ++c) {
        if (name == kClassNames[c]) {
            options.requireClassP99Millis[c] = value;
            return true;
        }
    }
    return false;
}

/**
 * Build the k-th request of a class.  Simulation shapes vary
 * deterministically with k (cache size cycles through four values)
 * so a daemon with its result cache enabled still sees misses.
 */
std::string
buildRequest(const Options& options, unsigned cls, std::uint64_t k)
{
    std::ostringstream oss;
    stats::JsonWriter json(oss);
    json.beginObject();
    json.field("type", std::string(kClassNames[cls]));
    json.field("protocol", static_cast<double>(kProtocolVersion));
    json.field("api_version", std::string(kApiVersion));
    if (options.deadlineMillis > 0 && !isControlClass(cls))
        json.field("deadline_ms",
                   static_cast<double>(options.deadlineMillis));
    std::ostringstream id;
    id << "lg-" << kClassNames[cls] << "-" << k;
    json.field("request_id", id.str());
    std::uint64_t draw = mix64(options.seed ^ (k * 2654435761ull));
    if (cls == kRun || cls == kSweep) {
        json.field("workload", options.workload);
        if (cls == kSweep)
            json.field("axis", "assoc");
        json.beginObject("config");
        static const unsigned kSizesKb[4] = {4, 8, 16, 32};
        json.field("size_bytes",
                   static_cast<double>(kSizesKb[draw & 3] * 1024));
        json.field("hit", "wb");
        json.endObject();
    } else if (cls == kUpload) {
        // A small synthetic trace, varied by k so uploads are not
        // one cache entry.
        std::ostringstream body;
        for (unsigned r = 0; r < 16; ++r) {
            std::uint64_t addr =
                0x10000 + ((draw >> (r & 31)) & 0xff) * 8;
            body << (r % 3 == 0 ? "w " : "r ") << "0x" << std::hex
                 << addr << std::dec << " 8\n";
        }
        json.field("name", "lg-upload");
        json.field("encoding", "text");
        json.field("trace", body.str());
        json.beginObject("config");
        json.field("size_bytes", 4096.0);
        json.endObject();
    }
    json.endObject();
    return oss.str();
}

/** Classify one response document. */
unsigned
classify(const std::string& response)
{
    std::string parse_error;
    service::JsonValue value =
        service::JsonValue::parse(response, &parse_error);
    if (!parse_error.empty() || !value.isObject())
        return kDaemonError;
    if (value.getBool("ok", false))
        return value.getBool("cached", false) ? kOkCached : kOk;
    std::string code = value.getString("code", "");
    if (code == "busy")
        return kBusy;
    if (code == "deadline_exceeded")
        return kDeadlineExceeded;
    return kDaemonError;
}

/** One scheduled arrival: fire instant plus its request class. */
struct Arrival
{
    double atSeconds = 0.0;
    unsigned cls = 0;
    std::uint64_t k = 0;
};

/**
 * One plane of the generator: a set of arrivals drained by a pool
 * of worker threads over persistent connections.
 */
struct Plane
{
    std::vector<Arrival> arrivals;
    std::atomic<std::size_t> next{0};
    std::atomic<std::uint64_t> lateDispatch{0};
};

/**
 * Draw a Poisson arrival schedule for one plane.  Class draws are
 * weighted by the mix restricted to this plane's classes.
 */
void
buildArrivals(const Options& options, bool control, Plane& plane)
{
    unsigned total_weight = 0;
    for (unsigned c = 0; c < kClassCount; ++c)
        if (isControlClass(c) == control)
            total_weight += options.weights[c];
    if (total_weight == 0)
        return;
    double share = 0.0;
    {
        unsigned all = 0;
        for (unsigned c = 0; c < kClassCount; ++c)
            all += options.weights[c];
        share = static_cast<double>(total_weight) / all;
    }
    double rate = options.rate * share;
    if (rate <= 0.0)
        return;
    std::mt19937_64 rng(options.seed ^ (control ? 0xc0117401ull : 0));
    std::exponential_distribution<double> gap(rate);
    double t = gap(rng);
    std::uint64_t k = 0;
    while (t < options.durationSeconds) {
        unsigned pick = static_cast<unsigned>(rng() % total_weight);
        unsigned cls = 0;
        for (unsigned c = 0; c < kClassCount; ++c) {
            if (isControlClass(c) != control ||
                options.weights[c] == 0)
                continue;
            if (pick < options.weights[c]) {
                cls = c;
                break;
            }
            pick -= options.weights[c];
        }
        plane.arrivals.push_back({t, cls, k++});
        t += gap(rng);
    }
}

/**
 * Worker body: pull the next arrival, wait for its scheduled
 * instant, exchange over a persistent (reconnecting) socket, and
 * tally.  In closed-loop mode there is no schedule — fire until the
 * duration elapses.  With --pipeline N, up to N frames go out back
 * to back before the worker reads the N responses in order.
 */
void
runWorker(const Options& options, Plane& plane,
          std::vector<std::unique_ptr<ClassStats>>& stats,
          Clock::time_point start, bool control)
{
    net::Socket socket;
    std::string error;

    // Write every request, then read one response per request, in
    // order — the server's pipelining contract.  Returns how many
    // responses arrived; a short count means the stream tore and the
    // socket was dropped (the next batch reconnects).
    auto exchangeBatch =
        [&](const std::vector<std::string>& requests,
            std::vector<std::string>& responses) -> std::size_t {
        responses.clear();
        if (!socket.valid()) {
            socket = net::Socket::connectTo(options.host,
                                            options.port, &error);
            if (!socket.valid())
                return 0;
            socket.setTimeout(options.timeoutMillis);
        }
        for (const std::string& request : requests) {
            if (net::writeFrame(socket, request) !=
                net::FrameStatus::Ok) {
                socket = net::Socket();
                return 0;
            }
        }
        for (std::size_t i = 0; i < requests.size(); ++i) {
            std::string response;
            if (net::readFrame(socket, response) !=
                net::FrameStatus::Ok) {
                socket = net::Socket();
                return responses.size();
            }
            responses.push_back(std::move(response));
        }
        return responses.size();
    };

    auto tally = [&](unsigned cls, unsigned outcome,
                     Clock::time_point since) {
        stats[cls]->outcomes[outcome].fetch_add(1);
        if (outcome == kOk || outcome == kOkCached) {
            stats[cls]->latency.observe(
                std::chrono::duration<double>(Clock::now() - since)
                    .count());
        }
    };

    if (options.closedLoop) {
        // Capacity probe: draw classes, fire back to back.
        std::mt19937_64 rng(options.seed ^
                            std::hash<std::thread::id>{}(
                                std::this_thread::get_id()));
        auto deadline =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(
                            options.durationSeconds));
        std::uint64_t k = rng();
        unsigned total_weight = 0;
        for (unsigned c = 0; c < kClassCount; ++c)
            if (isControlClass(c) == control)
                total_weight += options.weights[c];
        if (total_weight == 0)
            return;
        auto drawClass = [&]() -> unsigned {
            unsigned pick =
                static_cast<unsigned>(rng() % total_weight);
            for (unsigned c = 0; c < kClassCount; ++c) {
                if (isControlClass(c) != control ||
                    options.weights[c] == 0)
                    continue;
                if (pick < options.weights[c])
                    return c;
                pick -= options.weights[c];
            }
            return 0;
        };
        std::vector<std::string> requests, responses;
        std::vector<unsigned> classes;
        while (Clock::now() < deadline) {
            requests.clear();
            classes.clear();
            for (unsigned n = 0; n < options.pipeline; ++n) {
                unsigned cls = drawClass();
                classes.push_back(cls);
                requests.push_back(buildRequest(options, cls, k++));
            }
            Clock::time_point sent = Clock::now();
            std::size_t got = exchangeBatch(requests, responses);
            for (std::size_t i = 0; i < requests.size(); ++i) {
                unsigned outcome = i < got ? classify(responses[i])
                                           : kTransportError;
                tally(classes[i], outcome, sent);
            }
        }
        return;
    }

    std::vector<std::size_t> batch;
    std::vector<std::string> requests, responses;
    for (;;) {
        std::size_t index = plane.next.fetch_add(1);
        if (index >= plane.arrivals.size())
            return;
        const Arrival& first = plane.arrivals[index];
        Clock::time_point scheduled =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(
                            first.atSeconds));
        Clock::time_point now = Clock::now();
        if (now < scheduled)
            std::this_thread::sleep_until(scheduled);
        else if (now - scheduled > std::chrono::milliseconds(5))
            plane.lateDispatch.fetch_add(1);

        batch.assign(1, index);
        if (options.pipeline > 1) {
            // Extend the batch with arrivals already due, claimed as
            // one contiguous run so no arrival is fired early and
            // none is skipped.
            double elapsed = std::chrono::duration<double>(
                                 Clock::now() - start)
                                 .count();
            std::size_t begin = plane.next.load();
            for (;;) {
                if (begin >= plane.arrivals.size())
                    break;
                std::size_t end = begin;
                while (end < plane.arrivals.size() &&
                       end - begin + 1 < options.pipeline &&
                       plane.arrivals[end].atSeconds <= elapsed)
                    ++end;
                if (end == begin)
                    break;
                if (plane.next.compare_exchange_weak(begin, end)) {
                    for (std::size_t i = begin; i < end; ++i)
                        batch.push_back(i);
                    break;
                }
            }
        }

        requests.clear();
        for (std::size_t i : batch) {
            const Arrival& arrival = plane.arrivals[i];
            requests.push_back(
                buildRequest(options, arrival.cls, arrival.k));
        }
        std::size_t got = exchangeBatch(requests, responses);
        for (std::size_t i = 0; i < batch.size(); ++i) {
            const Arrival& arrival = plane.arrivals[batch[i]];
            // Latency from the *scheduled* arrival: client-side
            // backlog counts, as it would for a real caller.
            Clock::time_point at =
                start + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(
                                arrival.atSeconds));
            unsigned outcome = i < got ? classify(responses[i])
                                       : kTransportError;
            tally(arrival.cls, outcome, at);
        }
    }
}

} // namespace

int
main(int argc, char** argv)
{
    Options options;
    tools::CommonFlags common;
    bool rate_given = false;

    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (flag == "--version") {
            std::cout << versionLine("jcache-loadgen") << "\n";
            return 0;
        }
        if (flag == "--closed-loop") {
            options.closedLoop = true;
            continue;
        }
        if (flag == "--require-sheds") {
            options.requireSheds = true;
            continue;
        }
        // A malformed value is a usage error: say which, then usage.
        try {
            if (tools::parseCommonFlag(argc, argv, i,
                                       tools::kFlagJson, common))
                continue;
            if (i + 1 >= argc)
                return usage();
            std::string value = argv[++i];
            if (flag == "--host") {
                options.host = value;
            } else if (flag == "--port") {
                options.port = static_cast<std::uint16_t>(
                    tools::parseUnsigned(value, flag, 65535));
            } else if (flag == "--connections") {
                options.dataConnections = tools::parseUnsigned(value, flag);
                if (options.dataConnections == 0)
                    options.dataConnections = 1;
            } else if (flag == "--duration") {
                options.durationSeconds =
                    tools::parsePositiveDouble(value, flag);
            } else if (flag == "--rate") {
                options.rate = tools::parsePositiveDouble(value, flag);
                rate_given = true;
            } else if (flag == "--pipeline") {
                options.pipeline = tools::parseUnsigned(value, flag);
                if (options.pipeline == 0)
                    options.pipeline = 1;
            } else if (flag == "--mix") {
                if (!parseMix(value, options.weights)) {
                    std::cerr << "error: bad --mix (classes: run, "
                                 "sweep, upload, ping, health, stats)\n";
                    return usage();
                }
            } else if (flag == "--workload") {
                options.workload = value;
            } else if (flag == "--deadline") {
                options.deadlineMillis = tools::parseUnsigned(value, flag);
            } else if (flag == "--timeout") {
                options.timeoutMillis = tools::parseUnsigned(value, flag);
            } else if (flag == "--seed") {
                options.seed = tools::parseUnsigned64(value, flag);
            } else if (flag == "--faults") {
                options.faults = value;
            } else if (flag == "--fault-seed") {
                options.faultSeed = tools::parseUnsigned64(value, flag);
            } else if (flag == "--require-goodput") {
                options.requireGoodput =
                    tools::parsePositiveDouble(value, flag);
            } else if (flag == "--require-p99-ms") {
                options.requireP99Millis =
                    tools::parsePositiveDouble(value, flag);
            } else if (flag == "--require-class-p99-ms") {
                if (!parseClassRequirement(value, options)) {
                    std::cerr << "error: --require-class-p99-ms wants "
                                 "CLASS:MS\n";
                    return usage();
                }
            } else {
                return usage();
            }
        } catch (const FatalError& e) {
            std::cerr << "error: " << e.what() << "\n";
            return usage();
        }
    }
    if (options.closedLoop && rate_given) {
        std::cerr << "error: --rate and --closed-loop conflict\n";
        return usage();
    }

    if (!options.faults.empty())
        fault::configure(options.faults, options.faultSeed);

    std::vector<std::unique_ptr<ClassStats>> stats;
    for (unsigned c = 0; c < kClassCount; ++c)
        stats.push_back(std::make_unique<ClassStats>());

    Plane data_plane, control_plane;
    if (!options.closedLoop) {
        buildArrivals(options, false, data_plane);
        buildArrivals(options, true, control_plane);
    }

    Clock::time_point start = Clock::now();
    std::vector<std::thread> workers;
    for (unsigned w = 0; w < options.dataConnections; ++w) {
        workers.emplace_back([&] {
            runWorker(options, data_plane, stats, start, false);
        });
    }
    bool control_mix = false;
    for (unsigned c = 0; c < kClassCount; ++c)
        if (isControlClass(c) && options.weights[c] > 0)
            control_mix = true;
    if (control_mix) {
        for (unsigned w = 0; w < options.controlConnections; ++w) {
            workers.emplace_back([&] {
                runWorker(options, control_plane, stats, start,
                          true);
            });
        }
    }
    for (std::thread& worker : workers)
        worker.join();
    double wall_seconds =
        std::chrono::duration<double>(Clock::now() - start).count();

    // Totals and the overall ok-latency view (merged by re-observing
    // is impossible; the overall percentiles use a dedicated
    // histogram fed from per-class data is also impossible — so the
    // report computes overall counts exactly and overall latency as
    // the served-weighted worst of the per-class percentiles, which
    // is conservative for an SLO).
    std::uint64_t totals[kOutcomeCount] = {};
    std::uint64_t total_requests = 0;
    std::uint64_t served = 0;
    for (unsigned c = 0; c < kClassCount; ++c) {
        for (unsigned o = 0; o < kOutcomeCount; ++o)
            totals[o] += stats[c]->outcomes[o].load();
        total_requests += stats[c]->total();
        served += stats[c]->served();
    }
    auto worstPercentile = [&](double p) {
        double worst = 0.0;
        for (unsigned c = 0; c < kClassCount; ++c) {
            if (stats[c]->served() == 0)
                continue;
            worst =
                std::max(worst, stats[c]->latency.percentile(p));
        }
        return worst;
    };
    double p50 = worstPercentile(50.0);
    double p95 = worstPercentile(95.0);
    double p99 = worstPercentile(99.0);
    std::uint64_t offered = options.closedLoop
        ? total_requests
        : data_plane.arrivals.size() + control_plane.arrivals.size();
    double goodput =
        wall_seconds > 0.0 ? served / wall_seconds : 0.0;
    std::uint64_t sheds =
        totals[kBusy] + totals[kDeadlineExceeded];
    std::uint64_t late = data_plane.lateDispatch.load() +
                         control_plane.lateDispatch.load();

    // Greppable summary: the SLO smoke parses these lines with awk
    // instead of a JSON parser.
    std::cout << "loadgen: mode "
              << (options.closedLoop ? "closed" : "open")
              << " wall_seconds " << wall_seconds << "\n";
    std::cout << "loadgen: offered " << offered << " offered_rps "
              << (wall_seconds > 0.0 ? offered / wall_seconds : 0.0)
              << "\n";
    std::cout << "loadgen: served " << served << " goodput_rps "
              << goodput << "\n";
    std::cout << "loadgen: ok " << totals[kOk] << " ok_cached "
              << totals[kOkCached] << " busy " << totals[kBusy]
              << " deadline " << totals[kDeadlineExceeded]
              << " daemon_error " << totals[kDaemonError]
              << " transport_error " << totals[kTransportError]
              << "\n";
    std::cout << "loadgen: sheds " << sheds << " late_dispatch "
              << late << "\n";
    std::cout << "loadgen: p50_ms " << p50 * 1000.0 << " p95_ms "
              << p95 * 1000.0 << " p99_ms " << p99 * 1000.0 << "\n";
    for (unsigned c = 0; c < kClassCount; ++c) {
        if (stats[c]->total() == 0)
            continue;
        std::cout << "loadgen: class " << kClassNames[c]
                  << " requests " << stats[c]->total() << " served "
                  << stats[c]->served() << " p99_ms "
                  << stats[c]->latency.percentile(99.0) * 1000.0
                  << "\n";
    }
    if (!options.faults.empty())
        std::cout << "loadgen: faults " << fault::summary() << "\n";

    if (common.json) {
        tools::writeJsonSink(common, [&](std::ostream& os) {
            stats::JsonWriter json(os);
            json.beginObject();
            json.field("tool", std::string("jcache-loadgen"));
            json.field("version", std::string(kVersion));
            json.field("mode", std::string(options.closedLoop
                                               ? "closed"
                                               : "open"));
            json.field("host", options.host);
            json.field("port", static_cast<double>(options.port));
            json.field("connections",
                       static_cast<double>(options.dataConnections));
            json.field(
                "control_connections",
                static_cast<double>(
                    control_mix ? options.controlConnections : 0));
            json.field("duration_seconds", options.durationSeconds);
            json.field("wall_seconds", wall_seconds);
            json.field("rate_rps",
                       options.closedLoop ? 0.0 : options.rate);
            json.field("pipeline",
                       static_cast<double>(options.pipeline));
            json.field("deadline_ms",
                       static_cast<double>(options.deadlineMillis));
            json.field("seed",
                       static_cast<double>(options.seed));
            json.field("faults", options.faults);
            json.field("offered", static_cast<double>(offered));
            json.field("offered_rps",
                       wall_seconds > 0.0 ? offered / wall_seconds
                                          : 0.0);
            json.field("served", static_cast<double>(served));
            json.field("goodput_rps", goodput);
            json.field("late_dispatch", static_cast<double>(late));
            json.beginObject("totals");
            for (unsigned o = 0; o < kOutcomeCount; ++o)
                json.field(kOutcomeNames[o],
                           static_cast<double>(totals[o]));
            json.endObject();
            json.beginObject("latency_ms");
            json.field("p50", p50 * 1000.0);
            json.field("p95", p95 * 1000.0);
            json.field("p99", p99 * 1000.0);
            json.endObject();
            json.beginArray("classes");
            for (unsigned c = 0; c < kClassCount; ++c) {
                if (stats[c]->total() == 0)
                    continue;
                json.beginObject();
                json.field("class",
                           std::string(kClassNames[c]));
                json.field("requests",
                           static_cast<double>(stats[c]->total()));
                for (unsigned o = 0; o < kOutcomeCount; ++o)
                    json.field(
                        kOutcomeNames[o],
                        static_cast<double>(
                            stats[c]->outcomes[o].load()));
                json.field("p50_ms",
                           stats[c]->latency.percentile(50.0) *
                               1000.0);
                json.field("p95_ms",
                           stats[c]->latency.percentile(95.0) *
                               1000.0);
                json.field("p99_ms",
                           stats[c]->latency.percentile(99.0) *
                               1000.0);
                json.field("max_ms",
                           stats[c]->latency.max() * 1000.0);
                json.endObject();
            }
            json.endArray();
            json.endObject();
        });
    }

    // Built-in SLO gate.
    bool failed = false;
    auto violate = [&](const std::string& what) {
        std::cout << "loadgen: SLO FAIL " << what << "\n";
        failed = true;
    };
    if (options.requireGoodput >= 0.0 &&
        goodput < options.requireGoodput) {
        violate("goodput_rps " + std::to_string(goodput) +
                " below required " +
                std::to_string(options.requireGoodput));
    }
    if (options.requireP99Millis >= 0.0 &&
        p99 * 1000.0 > options.requireP99Millis) {
        violate("p99_ms " + std::to_string(p99 * 1000.0) +
                " above required " +
                std::to_string(options.requireP99Millis));
    }
    for (unsigned c = 0; c < kClassCount; ++c) {
        double limit = options.requireClassP99Millis[c];
        if (limit < 0.0)
            continue;
        if (stats[c]->served() == 0) {
            violate(std::string("class ") + kClassNames[c] +
                    " served nothing");
            continue;
        }
        double value =
            stats[c]->latency.percentile(99.0) * 1000.0;
        if (value > limit) {
            violate(std::string("class ") + kClassNames[c] +
                    " p99_ms " + std::to_string(value) +
                    " above required " + std::to_string(limit));
        }
    }
    if (options.requireSheds && sheds == 0)
        violate("expected sheds (busy/deadline), saw none");
    if (!failed)
        std::cout << "loadgen: SLO PASS\n";
    return failed ? 1 : 0;
}
