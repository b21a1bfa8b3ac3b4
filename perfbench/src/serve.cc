/**
 * @file
 * The `serve` workload: jcached (reactor front end, --jobs 2, default
 * result cache, fresh --store-dir) driven over loopback by the
 * benchmark's own open-loop client.
 *
 * Requests are single-cell `run`s drawn by seed over the nine built-in
 * traces x cache sizes x line sizes x legal policy pairs x assoc {1,2}.
 * Most name fresh cells (simulated, then written to the store); a fixed
 * share repeats an earlier request (memory cache hit) and another names
 * a cell set-up wrote into the store (disk read).  Arrivals are Poisson
 * at kRatePerSec over kConnections connections; latency counts from when
 * a request was due, so a stalled client or daemon shows as latency.
 * A warm-up schedule on cells of its own runs first and is not timed.
 */

#include <algorithm>
#include <atomic>
#include <cmath>
#include <csignal>
#include <deque>
#include <fcntl.h>
#include <filesystem>
#include <iostream>
#include <mutex>
#include <optional>
#include <random>
#include <sstream>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>

#include "bench.hh"
#include "measure.hh"
#include "net/frame.hh"
#include "net/socket.hh"
#include "service/json_value.hh"
#include "service/render.hh"
#include "sim/engine.hh"
#include "spans.hh"
#include "stats/json.hh"
#include "workloads/workload.hh"

namespace perfbench
{

using namespace jcache;
namespace fs = std::filesystem;

namespace
{

/**
 * Open-loop arrival rate: about a fifth of the closed-loop capacity of
 * this mix on a 4-core host (see perfbench/README.md for the numbers).
 */
constexpr double kRatePerSec = 20.0;
/** Goodput counts ok responses within this many ms of being due. */
constexpr double kLimitMs = 100.0;
constexpr unsigned kConnections = 2;
constexpr const char* kDaemonJobs = "2";
/**
 * Shares of the mix.  They are chosen, not measured: jcached keeps no
 * record of real traffic to derive them from.  Fresh cells stay most
 * of the mix, so the median latency falls inside the fresh class (at
 * its 29th percentile) and watches the one-cell pass and the store
 * write.  Disk reads get half the share of memory hits because the
 * daemon reads its store only for cells it has not served since it
 * started or has evicted from its 256-entry result cache.  At 20 req/s
 * for 25 s each hit class still has 50 or more requests, enough to move
 * p95 (25 samples beyond it) when its path slows down.  The counts are
 * exact for every seed: the shares times the arrival count, rounded.
 */
constexpr double kStoredShare = 0.1;
constexpr double kRepeatShare = 0.2;
/**
 * A repeat names a fresh request due at least this long before it,
 * more than ten times the p95 latency at this rate (about 45 ms), so
 * the first response is already cached when the repeat arrives ...
 */
constexpr double kRepeatAgeSec = 0.5;
/**
 * ... and one of the last this many such requests, so that fewer than
 * the result cache's 256 entries (this many fresh cells plus the stored
 * cells read in between) have been inserted since: the repeat is a
 * memory hit, not a disk read.
 */
constexpr std::size_t kRepeatWindow = 128;
/**
 * Before the measured schedule, this many seconds of the same open-loop
 * load on cells of its own, not counted.  A fresh jcached answers its
 * first second or so of requests slowly (on a 4-vCPU VM up to 220 ms
 * against a steady p95 near 35 ms): counted, those requests made up a
 * third to a half of the 25 samples beyond p95 of a 25 s schedule, and
 * how slow they were decided much of p95's run-to-run spread.
 */
constexpr double kWarmupSec = 3.0;
constexpr std::size_t kCheckedResponses = 16;
constexpr std::size_t kPings = 200;
constexpr unsigned kReadPollMs = 200;
/** Responses still missing this long after the last send are failed. */
constexpr double kDrainSec = 30.0;

struct Cell
{
    std::string workload;
    core::CacheConfig config;
};

/**
 * Every cell of the serve universe in a seeded order that deals the
 * (trace, assoc) strata round-robin: the k-th cell's trace and assoc are
 * the same for every seed, only its size, line and policies vary, so
 * each seed's mix costs the daemon about the same.
 */
std::vector<Cell>
stratifiedCells(std::uint64_t seed)
{
    std::mt19937_64 rng(mixSeed(seed, 5));
    std::vector<std::vector<Cell>> strata;
    for (const std::string& name : workloads::allWorkloadNames()) {
        for (unsigned assoc : {1u, 2u}) {
            std::vector<Cell> stratum;
            for (Count size : sim::standardCacheSizes()) {
                for (unsigned line : sim::standardLineSizes()) {
                    for (auto [hit, miss] : sim::legalPolicyPairs()) {
                        Cell c{name, {}};
                        c.config.sizeBytes = size;
                        c.config.lineBytes = line;
                        c.config.assoc = assoc;
                        c.config.hitPolicy = hit;
                        c.config.missPolicy = miss;
                        stratum.push_back(c);
                    }
                }
            }
            std::shuffle(stratum.begin(), stratum.end(), rng);
            strata.push_back(std::move(stratum));
        }
    }
    std::vector<Cell> cells;
    for (std::size_t k = 0; k < strata.front().size(); ++k) {
        for (const std::vector<Cell>& stratum : strata)
            cells.push_back(stratum[k]);
    }
    return cells;
}

std::string
runBody(const Cell& cell, const std::string& id)
{
    std::ostringstream os;
    stats::JsonWriter json(os);
    json.beginObject();
    json.field("type", "run");
    json.field("request_id", id);
    json.field("workload", cell.workload);
    json.field("flush", false);
    service::writeCacheConfig(json, "config", cell.config);
    json.endObject();
    return os.str();
}

/** The request sequence: which cell each arrival names. */
struct Mix
{
    std::vector<Cell> stored;     //!< written to the store in set-up
    std::vector<Cell> requests;   //!< one per arrival
    std::vector<std::string> bodies;
};

Mix
buildMix(std::uint64_t seed, const std::vector<double>& offsets)
{
    enum class Kind { Fresh, Stored, Repeat };
    std::size_t n = offsets.size();
    auto count = [n](double share) {
        return static_cast<std::size_t>(std::llround(share * n));
    };
    std::vector<Kind> kinds(n, Kind::Fresh);
    std::fill_n(kinds.begin(), count(kStoredShare), Kind::Stored);
    std::fill_n(kinds.begin() + count(kStoredShare), count(kRepeatShare),
                Kind::Repeat);
    std::mt19937_64 rng(mixSeed(seed, 6));
    std::shuffle(kinds.begin(), kinds.end(), rng);

    // Stored cells come first in the seeded order, then fresh ones:
    // every stored and every fresh arrival names a cell of its own.
    std::vector<Cell> cells = stratifiedCells(seed);
    if (n > cells.size())
        throw std::runtime_error("serve mix needs more distinct cells "
                                 "than the universe holds");
    std::size_t nextFresh = count(kStoredShare);
    Mix mix;
    std::vector<std::size_t> fresh;  // arrival indexes of fresh cells
    std::size_t old = 0;             // of them, due kRepeatAgeSec ago
    for (std::size_t i = 0; i < n; ++i) {
        while (old < fresh.size() &&
               offsets[fresh[old]] <= offsets[i] - kRepeatAgeSec)
            ++old;
        if (kinds[i] == Kind::Repeat && old == 0) {
            // Nothing to repeat yet: trade places with a later fresh one.
            auto later = std::find(kinds.begin() + i + 1, kinds.end(),
                                   Kind::Fresh);
            if (later != kinds.end())
                std::swap(kinds[i], *later);
            else
                kinds[i] = Kind::Fresh;
        }
        if (kinds[i] == Kind::Stored) {
            mix.stored.push_back(cells[mix.stored.size()]);
            mix.requests.push_back(mix.stored.back());
        } else if (kinds[i] == Kind::Repeat) {
            std::size_t window = std::min(old, kRepeatWindow);
            mix.requests.push_back(
                mix.requests[fresh[old - 1 - rng() % window]]);
        } else {
            fresh.push_back(i);
            mix.requests.push_back(cells[nextFresh++]);
        }
        mix.bodies.push_back(
            runBody(mix.requests.back(), "r" + std::to_string(i)));
    }
    return mix;
}

net::Socket
connectTo(std::uint16_t port)
{
    std::string error;
    net::Socket socket = net::Socket::connectTo("127.0.0.1", port, &error);
    if (!socket.valid())
        throw std::runtime_error("connect to jcached failed: " + error);
    return socket;
}

/** One request/response round trip; throws on transport failure. */
service::JsonValue
roundTrip(net::Socket& socket, const std::string& body)
{
    std::string payload;
    if (net::writeFrame(socket, body) != net::FrameStatus::Ok ||
        net::readFrame(socket, payload) != net::FrameStatus::Ok)
        throw std::runtime_error("exchange with jcached failed");
    return service::JsonValue::parse(payload);
}

const char* kPing = R"({"type":"ping"})";

/** A jcached child process; stopped and reaped on destruction. */
class Daemon
{
  public:
    Daemon(const Options& opt, const std::string& storeDir,
           const std::string& tag)
    {
        std::string portFile = opt.workDir + "/port-" + tag;
        std::string log = opt.workDir + "/jcached-" + tag + ".log";
        fs::remove(portFile);
        auto start = Clock::now();
        pid_ = fork();
        if (pid_ < 0)
            throw std::runtime_error("fork failed");
        if (pid_ == 0) {
            int fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
            if (fd >= 0) {
                ::dup2(fd, 1);
                ::dup2(fd, 2);
            }
            ::execl(opt.jcached.c_str(), opt.jcached.c_str(), "--port", "0",
                    "--port-file", portFile.c_str(), "--jobs", kDaemonJobs,
                    "--store-dir", storeDir.c_str(),
                    static_cast<char*>(nullptr));
            ::_exit(127);
        }
        for (;;) {
            if (secondsSince(start) > 60.0) {
                ::kill(pid_, SIGKILL);
                ::waitpid(pid_, nullptr, 0);
                pid_ = -1;
                throw std::runtime_error("jcached did not come up");
            }
            int status = 0;
            if (::waitpid(pid_, &status, WNOHANG) == pid_) {
                pid_ = -1;
                throw std::runtime_error("jcached exited during start-up; "
                                         "see " + log);
            }
            if (tryPing(portFile))
                break;
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
        launchToPingSeconds = secondsSince(start);
    }

    ~Daemon() { stop(); }
    Daemon(const Daemon&) = delete;
    Daemon& operator=(const Daemon&) = delete;

    /** Ask for shutdown, wait for exit; kill after a grace period. */
    void stop()
    {
        if (pid_ <= 0)
            return;
        try {
            net::Socket s = connectTo(port);
            roundTrip(s, R"({"type":"shutdown"})");
        } catch (const std::exception&) {
            ::kill(pid_, SIGTERM);
        }
        auto start = Clock::now();
        int status = 0;
        while (::waitpid(pid_, &status, WNOHANG) != pid_) {
            if (secondsSince(start) > 10.0) {
                ::kill(pid_, SIGKILL);
                ::waitpid(pid_, &status, 0);
                break;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
        pid_ = -1;
    }

    pid_t pid() const { return pid_; }

    std::uint16_t port = 0;
    double launchToPingSeconds = 0.0;

  private:
    bool tryPing(const std::string& portFile)
    {
        std::string text;
        try {
            text = readFile(portFile);
        } catch (const std::exception&) {
            return false;
        }
        if (text.empty() || text.back() != '\n')
            return false;
        port = static_cast<std::uint16_t>(std::stoul(text));
        try {
            net::Socket s = connectTo(port);
            return roundTrip(s, kPing).getBool("ok", false);
        } catch (const std::exception&) {
            return false;
        }
    }

    pid_t pid_ = -1;
};

/** Run the stored cells through a daemon so its store holds them. */
void
seedStore(Daemon& daemon, const Mix& mix, Report& report)
{
    net::Socket s = connectTo(daemon.port);
    for (std::size_t i = 0; i < mix.stored.size(); ++i) {
        auto reply =
            roundTrip(s, runBody(mix.stored[i], "s" + std::to_string(i)));
        report.gate(reply.getBool("ok", false),
                    "store seeding request failed");
    }
}

/**
 * One connection of the open-loop client.  Destruction stops and joins
 * its receiver, on every path out of the run.
 */
struct Connection
{
    Connection() = default;
    Connection(const Connection&) = delete;
    Connection& operator=(const Connection&) = delete;
    ~Connection()
    {
        stop.store(true);
        if (receiver.joinable()) {
            socket.shutdownWrite();
            receiver.join();
        }
    }

    net::Socket socket;
    std::mutex mutex;
    /** Requests sent and not yet answered, oldest first. */
    std::deque<std::size_t> inflight;
    std::atomic<bool> stop{false};
    std::thread receiver;
};

/** What one open-loop schedule measured. */
struct Phase
{
    std::vector<Dispatch> ledger;
    std::vector<Outcome> outcomes;
    /** Body of each ok response; empty for the others. */
    std::vector<std::string> payloads;
    double lastResponseSec = 0.0;
    /** CPU time of this process over the schedule and its drain. */
    double cpuSeconds = 0.0;
};

/**
 * Send `bodies[i]` when `offsets[i]` is due, each on the connection with
 * the fewest requests in flight, and collect every answer.  The whole
 * schedule is one span named `span`; each answer is a net.request span
 * under it.
 */
Phase
drive(std::uint16_t port, const std::vector<double>& offsets,
      const std::vector<std::string>& bodies, const char* span)
{
    std::size_t n = offsets.size();
    Phase phase;
    phase.outcomes.assign(n, Outcome{});
    phase.payloads.assign(n, std::string());
    std::vector<double> responseSec(n, 0.0);
    std::atomic<std::size_t> answered{0};
    Tracer* tracer = activeTracer();
    double cpu = processCpuSeconds();
    std::optional<Scope> schedule;
    schedule.emplace(span);
    std::uint64_t scheduleId = Scope::current();
    SteadySeconds clock;

    std::vector<std::unique_ptr<Connection>> conns;
    for (unsigned c = 0; c < kConnections; ++c) {
        auto conn = std::make_unique<Connection>();
        conn->socket = connectTo(port);
        conn->socket.setReadTimeout(kReadPollMs);
        conns.push_back(std::move(conn));
    }
    for (auto& conn : conns) {
        Connection* cp = conn.get();
        cp->receiver = std::thread([&, cp] {
            std::string payload;
            for (;;) {
                net::FrameStatus st = net::readFrame(cp->socket, payload);
                if (st == net::FrameStatus::Idle) {
                    if (cp->stop.load())
                        return;
                    continue;
                }
                if (st != net::FrameStatus::Ok)
                    return;
                double at = clock.now();
                std::size_t i = 0;
                {
                    std::lock_guard<std::mutex> lock(cp->mutex);
                    if (cp->inflight.empty())
                        return;
                    i = cp->inflight.front();
                    cp->inflight.pop_front();
                }
                auto reply = service::JsonValue::parse(payload);
                Outcome& o = phase.outcomes[i];
                o.answered = true;
                o.ok = reply.getBool("ok", false);
                responseSec[i] = at;
                if (o.ok) {
                    phase.payloads[i] = std::move(payload);
                } else {
                    std::lock_guard<std::mutex> lock(cp->mutex);
                    std::cerr << "serve: request r" << i << " failed: "
                              << reply.getString("code") << " "
                              << reply.getString("error") << "\n";
                }
                if (tracer != nullptr) {
                    SpanRecord rec;
                    rec.name = "net.request";
                    rec.id = tracer->nextId();
                    rec.parent = scheduleId;
                    double origin = tracer->nowUs() - 1e6 * clock.now();
                    rec.startUs = origin + 1e6 * offsets[i];
                    rec.endUs = origin + 1e6 * at;
                    tracer->record(rec);
                }
                answered.fetch_add(1);
            }
        });
    }

    phase.ledger = dispatchOpenLoop(offsets, clock, [&](std::size_t i) {
        // The connection with the fewest requests in flight, as a pooled
        // client would pick it: jcached answers each connection in
        // order, so a request queued behind a slow one waits for it.
        Connection* conn = nullptr;
        std::size_t fewest = 0;
        for (std::size_t k = 0; k < kConnections; ++k) {
            Connection* c = conns[(i + k) % kConnections].get();
            std::lock_guard<std::mutex> lock(c->mutex);
            if (conn == nullptr || c->inflight.size() < fewest) {
                conn = c;
                fewest = c->inflight.size();
            }
        }
        {
            std::lock_guard<std::mutex> lock(conn->mutex);
            conn->inflight.push_back(i);
        }
        net::writeFrame(conn->socket, bodies[i]);
    });
    double sendDone = clock.now();
    while (answered.load() < n && clock.now() - sendDone < kDrainSec)
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    conns.clear();
    schedule.reset();
    phase.cpuSeconds = processCpuSeconds() - cpu;
    for (std::size_t i = 0; i < n; ++i) {
        if (phase.outcomes[i].answered)
            phase.outcomes[i].latencyMs =
                latencyFromSchedule(phase.ledger[i], responseSec[i]);
        phase.lastResponseSec =
            std::max(phase.lastResponseSec, responseSec[i]);
    }
    return phase;
}

/**
 * Warm-up requests: fresh cells from the far end of the seeded universe,
 * which the measured mix does not reach, dealt round-robin over the
 * (trace, assoc) strata so each is served a few times.
 */
std::vector<std::string>
warmupBodies(std::uint64_t seed, std::size_t count)
{
    std::vector<Cell> cells = stratifiedCells(seed);
    std::vector<std::string> bodies;
    for (std::size_t i = 0; i < count && i < cells.size(); ++i)
        bodies.push_back(
            runBody(cells[cells.size() - 1 - i], "w" + std::to_string(i)));
    return bodies;
}

/** Hits over lookups of one stats block between two snapshots. */
double
hitRatio(const service::JsonValue& before, const service::JsonValue& after,
         const char* block)
{
    auto count = [block](const service::JsonValue& stats, const char* f) {
        return stats.get("payload").get(block).getNumber(f, 0);
    };
    double hits = count(after, "hits") - count(before, "hits");
    double misses = count(after, "misses") - count(before, "misses");
    return hits + misses > 0 ? hits / (hits + misses) : 0.0;
}

struct ServeRun
{
    std::vector<double> setupSeconds;
    std::vector<double> offsets;
    Phase warmup;
    Phase measured;
    double peakRssMb = 0.0;
    /** Daemon stats after warm-up and after the measured schedule. */
    service::JsonValue statsBefore;
    service::JsonValue stats;
    std::vector<double> pingUs;
};

/**
 * Gate: a seeded sample of ok responses equals in-process sim::runOne
 * on the same trace and config, counter for counter.
 */
void
checkResponses(const Options& opt, const Mix& mix,
               const std::vector<std::string>& payloads,
               const std::vector<Outcome>& outcomes, Report& report)
{
    std::vector<std::size_t> ok;
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        if (outcomes[i].ok && !payloads[i].empty())
            ok.push_back(i);
    }
    std::mt19937_64 rng(mixSeed(opt.seed, 7));
    std::shuffle(ok.begin(), ok.end(), rng);
    ok.resize(std::min(ok.size(), kCheckedResponses));
    report.gate(!ok.empty(), "no serve response to check");
    const sim::TraceSet& traces = sim::TraceSet::extended();
    for (std::size_t i : ok) {
        const Cell& cell = mix.requests[i];
        sim::Request request;
        request.trace = &traces.get(cell.workload);
        request.config = cell.config;
        sim::RunResult want = sim::runOne(request);
        auto reply = service::JsonValue::parse(payloads[i]);
        sim::RunResult got =
            service::parseRunResult(reply.get("payload").get("result"));
        auto text = [](const sim::RunResult& r) {
            std::ostringstream os;
            stats::JsonWriter json(os);
            json.beginObject();
            service::writeRunResult(json, "result", r);
            json.endObject();
            return os.str();
        };
        report.gate(text(want) == text(got),
                    "serve response r" + std::to_string(i) + " (" +
                        cell.workload + " " + cell.config.describe() +
                        ") differs from sim::runOne");
    }
}

/**
 * Launch, seed, warm up, measure one open-loop schedule, read stats,
 * stop.  Of the plan's set-up repetitions (at least 2) one is the
 * daemon that seeds the store, one the daemon that serves, the rest
 * idle launches; every launch is timed to its first ping.
 */
ServeRun
serveOnce(const Options& opt, Report& report, const PassPlan& plan)
{
    static unsigned runs = 0;
    std::string dir = opt.workDir + "/serve-" + std::to_string(runs++);
    fs::remove_all(dir);
    fs::create_directories(dir);
    std::string store = dir + "/store";

    ServeRun result;
    result.offsets = poissonArrivals(mixSeed(opt.seed, 4), kRatePerSec,
                                     plan.seconds);
    Mix mix = buildMix(opt.seed, result.offsets);
    std::vector<double> warmOffsets = poissonArrivals(
        mixSeed(opt.seed, 8), kRatePerSec, kWarmupSec);
    std::vector<std::string> warmBodies =
        warmupBodies(opt.seed, warmOffsets.size());
    {
        Daemon seeder(opt, store, "seed");
        result.setupSeconds.push_back(seeder.launchToPingSeconds);
        seedStore(seeder, mix, report);
    }
    // Idle launches go half before the schedule and half after it, so
    // their median spans the run, not one moment of the host's load.
    auto launchIdle = [&](unsigned count) {
        for (unsigned i = 0; i < count; ++i) {
            Daemon idle(opt, store, "idle");
            result.setupSeconds.push_back(idle.launchToPingSeconds);
        }
    };
    unsigned idle = std::max(plan.setupReps, 2u) - 2;
    launchIdle(idle / 2);
    Daemon daemon(opt, store, "serve");
    result.setupSeconds.push_back(daemon.launchToPingSeconds);

    net::Socket pinger = connectTo(daemon.port);
    for (std::size_t i = 0; i < kPings; ++i) {
        auto start = Clock::now();
        roundTrip(pinger, kPing);
        result.pingUs.push_back(1e6 * secondsSince(start));
    }

    // jcached closes idle connections, so each stats read opens its own.
    auto readStats = [&daemon] {
        net::Socket s = connectTo(daemon.port);
        return roundTrip(s, R"({"type":"stats"})");
    };
    result.warmup =
        drive(daemon.port, warmOffsets, warmBodies, "serve.warmup");
    result.statsBefore = readStats();
    result.measured =
        drive(daemon.port, result.offsets, mix.bodies, "serve.schedule");
    result.stats = readStats();
    result.peakRssMb = peakRssMb(daemon.pid());
    daemon.stop();
    launchIdle(idle - idle / 2);

    for (const Phase* phase : {&result.warmup, &result.measured}) {
        report.attempted += phase->outcomes.size();
        for (const Outcome& o : phase->outcomes)
            report.failed += !o.ok;
    }
    checkResponses(opt, mix, result.measured.payloads,
                   result.measured.outcomes, report);
    return result;
}

std::vector<double>
okLatencies(const Phase& phase)
{
    std::vector<double> v;
    for (const Outcome& o : phase.outcomes) {
        if (o.ok)
            v.push_back(o.latencyMs);
    }
    return v;
}

double
lateP95(const Phase& phase)
{
    std::vector<double> late;
    for (const Dispatch& d : phase.ledger)
        late.push_back(d.lateMs());
    return percentile(late, 95);
}

} // namespace

PassFacts
runServe(const Options& opt, const PassPlan& plan, Report& report)
{
    ServeRun s = serveOnce(opt, report, plan);
    const Phase& m = s.measured;
    std::vector<double> lat = okLatencies(m);
    double firstDue = s.offsets.empty() ? 0.0 : s.offsets.front();
    if (samplesBeyond(lat.size(), 95) < kMinTailSamples)
        std::cerr << "serve: warning: only " << lat.size()
                  << " latencies, p95 has fewer than " << kMinTailSamples
                  << " samples beyond it\n";
    double wall = m.lastResponseSec - firstDue;
    report.e2e("setup_s", median(s.setupSeconds), "s",
               s.setupSeconds.size());
    report.e2e("wall_s", wall, "s", 1);
    report.e2e("goodput_rps", goodput(m.outcomes, kLimitMs, wall),
               "1/s", m.outcomes.size());
    report.e2e("peak_rss_mb", s.peakRssMb, "MiB", 1);

    PassFacts facts;
    facts.wallSeconds = wall;
    facts.cpuSeconds = m.cpuSeconds;
    const service::JsonValue& p = s.stats.get("payload");
    DaemonFacts& d = facts.daemon.emplace();
    d.latencyP50Ms = percentile(lat, 50);
    d.latencyP95Ms = percentile(lat, 95);
    d.latencySamples = lat.size();
    d.queueWaitP50Ms =
        1000.0 * p.get("queue").get("wait_seconds").getNumber("p50", 0);
    d.busyShare = p.get("jobs").getNumber("utilization", 0);
    d.resultCacheHitRatio =
        hitRatio(s.statsBefore, s.stats, "result_cache");
    d.storeHitRatio = hitRatio(s.statsBefore, s.stats, "store");
    d.pingRttUs = median(s.pingUs);
    d.pingSamples = s.pingUs.size();
    d.lateDispatchP95Ms = lateP95(m);
    d.dispatches = m.ledger.size();
    std::vector<double> warm = okLatencies(s.warmup);
    double warmSum = 0.0;
    for (double ms : warm)
        warmSum += ms;
    d.warmupMeanMs = warm.empty() ? 0.0 : warmSum / warm.size();
    d.warmupSamples = warm.size();
    std::cerr << "serve: " << m.outcomes.size() << " requests at "
              << kRatePerSec << "/s over " << kConnections
              << " connections after " << s.warmup.outcomes.size()
              << " warm-up requests, jcached --jobs " << kDaemonJobs
              << "; client lateness p95 " << d.lateDispatchP95Ms
              << " ms; daemon hit ratios over the measured schedule: "
                 "result cache "
              << d.resultCacheHitRatio << ", store " << d.storeHitRatio
              << "\n";
    return facts;
}

double
serveCapacity(const Options& opt, Report& report)
{
    std::string dir = opt.workDir + "/capacity";
    fs::remove_all(dir);
    fs::create_directories(dir);
    // The same mix as the open loop, consumed as fast as answers come;
    // ten times the open-loop rate is more than the loop gets through.
    std::vector<double> offsets =
        poissonArrivals(mixSeed(opt.seed, 4), kRatePerSec * 10,
                        opt.seconds);
    Mix mix = buildMix(opt.seed, offsets);
    Daemon seeder(opt, dir + "/store", "cap-seed");
    seedStore(seeder, mix, report);
    seeder.stop();
    Daemon daemon(opt, dir + "/store", "cap");
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> done{0};
    auto start = Clock::now();
    std::vector<std::thread> clients;
    for (unsigned c = 0; c < kConnections; ++c) {
        clients.emplace_back([&] {
            net::Socket s = connectTo(daemon.port);
            while (secondsSince(start) < opt.seconds) {
                std::size_t i = next.fetch_add(1);
                if (i >= mix.bodies.size())
                    return;
                if (roundTrip(s, mix.bodies[i]).getBool("ok", false))
                    done.fetch_add(1);
            }
        });
    }
    for (std::thread& t : clients)
        t.join();
    double elapsed = secondsSince(start);
    report.attempted += next.load();
    return static_cast<double>(done.load()) / elapsed;
}

} // namespace perfbench
