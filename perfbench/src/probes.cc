/**
 * @file
 * Per-layer probes: each times one public library call from outside,
 * or reads one count through a public API, and states its unit, its
 * sample count and the end-to-end metric it should move.
 */

#include <array>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <limits.h>
#include <optional>
#include <sstream>
#include <unistd.h>

#include "bench.hh"
#include "core/write_buffer.hh"
#include "core/write_cache.hh"
#include "measure.hh"
#include "service/json_value.hh"
#include "service/render.hh"
#include "service/service.hh"
#include "sim/engine.hh"
#include "sim/multiconfig.hh"
#include "stats/json.hh"
#include "store/store.hh"
#include "trace/import.hh"
#include "trace/replay_cache.hh"
#include "workloads/workload.hh"

namespace perfbench
{

using namespace jcache;
namespace fs = std::filesystem;

namespace
{

constexpr unsigned kReps = 3;

/** Median seconds of `reps` calls of `work`. */
template <typename Work>
double
timeMedian(unsigned reps, Work&& work)
{
    std::vector<double> seconds;
    for (unsigned i = 0; i < reps; ++i) {
        auto start = Clock::now();
        work();
        seconds.push_back(secondsSince(start));
    }
    return median(seconds);
}

/** The probe trace: ccom at the library's default workload seed. */
const trace::Trace&
probeTrace()
{
    static const trace::Trace trace =
        workloads::generateTrace(*workloads::makeWorkload("ccom"));
    return trace;
}

std::vector<sim::LaneSpec>
lanes(unsigned assoc, std::size_t count)
{
    std::vector<sim::LaneSpec> specs;
    for (Count kb = 1; specs.size() < count; kb *= 2) {
        for (auto [hit, miss] :
             {std::pair{core::WriteHitPolicy::WriteBack,
                        core::WriteMissPolicy::FetchOnWrite},
              std::pair{core::WriteHitPolicy::WriteThrough,
                        core::WriteMissPolicy::WriteAround}}) {
            sim::LaneSpec lane;
            lane.config.sizeBytes = kb * 1024;
            lane.config.lineBytes = 16;
            lane.config.assoc = assoc;
            lane.config.hitPolicy = hit;
            lane.config.missPolicy = miss;
            specs.push_back(lane);
        }
    }
    specs.resize(count);
    return specs;
}

double
laneNs(unsigned assoc, std::size_t count)
{
    const trace::Trace& t = probeTrace();
    auto specs = lanes(assoc, count);
    double s = timeMedian(kReps, [&] { sim::runTracePass(t, specs); });
    return 1e9 * s /
        (static_cast<double>(t.size()) * static_cast<double>(count));
}

/** Re-run the fast-lane probe in a child with JCACHE_NO_AVX2=1. */
double
scalarFastLaneNs()
{
    char exe[PATH_MAX] = {};
    ssize_t len = ::readlink("/proc/self/exe", exe, sizeof(exe) - 1);
    if (len <= 0)
        throw std::runtime_error("cannot locate the benchmark binary");
    std::string cmd =
        "JCACHE_NO_AVX2=1 '" + std::string(exe) + "' --probe-fast-lane";
    FILE* pipe = ::popen(cmd.c_str(), "r");
    if (pipe == nullptr)
        throw std::runtime_error("cannot start the scalar lane probe");
    std::array<char, 128> buf{};
    std::string out;
    while (std::fgets(buf.data(), buf.size(), pipe) != nullptr)
        out += buf.data();
    if (::pclose(pipe) != 0 || out.empty())
        throw std::runtime_error("scalar lane probe failed");
    return std::stod(out);
}

std::string
runRequest(const std::string& workload, Count sizeBytes)
{
    std::ostringstream os;
    stats::JsonWriter json(os);
    json.beginObject();
    json.field("type", "run");
    json.field("workload", workload);
    core::CacheConfig config;
    config.sizeBytes = sizeBytes;
    service::writeCacheConfig(json, "config", config);
    json.endObject();
    return os.str();
}

} // namespace

double
fastLaneNsPerRecordLane(std::size_t* samples)
{
    if (samples != nullptr)
        *samples = kReps;
    return laneNs(1, 16);
}

void
runLayerProbes(const Options& opt, const PassFacts& facts, Report& r)
{
    const std::string dir = opt.workDir + "/probes";
    fs::create_directories(dir);
    const std::string sweepFeeds = "wall_s on sweep";

    // workloads
    {
        workloads::WorkloadConfig config;
        config.seed = mixSeed(opt.seed, 8);
        auto w = workloads::makeWorkload("ccom", config);
        std::size_t records = 0;
        double s = timeMedian(kReps, [&] {
            records = workloads::generateTrace(*w).size();
        });
        r.layer("workloads.generate_ns_per_record",
                1e9 * s / static_cast<double>(records), "ns/record", kReps,
                "setup_s on paper and serve");
    }

    // trace
    const trace::Trace& t = probeTrace();
    {
        std::string jctx = dir + "/ccom.jctx";
        trace::saveTraceBinary(t, jctx);
        double bytes = static_cast<double>(fs::file_size(jctx));
        double s = timeMedian(kReps, [&] { trace::loadAnyTrace(jctx); });
        r.layer("trace.import_jctx_ns_per_byte", 1e9 * s / bytes, "ns/B",
                kReps, "setup_s on sweep");

        trace::Trace part(t.name());
        for (std::size_t i = 0; i < t.size() / 4; ++i)
            part.append(t[i]);
        std::string text = dir + "/ccom.txt";
        trace::saveTraceText(part, text);
        bytes = static_cast<double>(fs::file_size(text));
        s = timeMedian(kReps, [&] { trace::loadAnyTrace(text); });
        r.layer("trace.import_text_ns_per_byte", 1e9 * s / bytes, "ns/B",
                kReps, "setup_s on sweep");
    }
    {
        std::string jcrc = dir + "/ccom.jcrc";
        double records = static_cast<double>(t.size());
        double s = timeMedian(kReps,
                              [&] { trace::writeReplayCache(t, jcrc); });
        r.layer("trace.replay_cache_write_ns_per_record", 1e9 * s / records,
                "ns/record", kReps, "setup_s on sweep");

        trace::MappedReplayCache mapped(jcrc);
        std::size_t walked = 0;
        s = timeMedian(kReps, [&] {
            walked = 0;
            auto cursor = mapped.blocks(trace::kDefaultBlockRecords);
            trace::TraceBlock block;
            while (cursor->next(block))
                walked += block.count;
        });
        r.gate(walked == t.size(), "JCRC block walk lost records");
        r.layer("trace.block_decode_ns_per_record", 1e9 * s / records,
                "ns/record", kReps, sweepFeeds + " (also sim_mref/s)");
    }

    // sim
    {
        std::size_t n = 0;
        double fast = fastLaneNsPerRecordLane(&n);
        r.layer("sim.fast_lane_ns_per_record_lane", fast, "ns/record-lane",
                n, sweepFeeds + "; paper moves less; serve bypasses");
        r.layer("sim.fast_lane_scalar_ns_per_record_lane",
                scalarFastLaneNs(), "ns/record-lane", kReps,
                sweepFeeds + " on hosts without AVX2");
        r.layer("sim.generic_lane_ns_per_record_lane", laneNs(2, 4),
                "ns/record-lane", kReps,
                sweepFeeds + "; serve.latency_p50_ms (assoc 2)");
        sim::Request one;
        one.trace = &t;
        double s = timeMedian(5, [&] { sim::runOne(one); });
        r.layer("sim.single_cell_ms", 1e3 * s, "ms", 5,
                "serve.latency_p50_ms; sweep bypasses");
        std::size_t cells = 0;
        double share = sweepFastLaneShare(&cells);
        r.layer("sim.fast_lane_share", share, "ratio", cells,
                "explains wall_s on sweep");
    }

    // experiments and stats: from a paper regeneration
    {
        std::optional<PaperOutputs> regenerated;
        if (!facts.paper) {
            sim::TraceSet traces;
            std::vector<std::size_t> order(paperFamilies().size());
            for (std::size_t i = 0; i < order.size(); ++i)
                order[i] = i;
            regenerated = regeneratePaper(traces, order);
        }
        const PaperOutputs* paper =
            facts.paper ? &*facts.paper : &*regenerated;
        for (const auto& [family, seconds] : paper->familySeconds)
            r.layer("experiments." + family + "_s", seconds, "s", 1,
                    "wall_s on paper; sweep and serve bypass");
        r.layer("stats.render_ms", 1e3 * paper->renderSeconds, "ms",
                paper->rendered.size(), "wall_s on paper");
    }

    // core: Section 3 models fed one trace's writes
    {
        std::vector<const trace::TraceRecord*> writes;
        for (const trace::TraceRecord& rec : t) {
            if (rec.type == trace::RefType::Write)
                writes.push_back(&rec);
        }
        double n = static_cast<double>(writes.size());
        core::WriteCache cache(5);
        double s = timeMedian(kReps, [&] {
            cache.reset();
            for (const trace::TraceRecord* w : writes)
                cache.writeThrough(w->addr, w->size);
        });
        r.layer("core.write_cache_ns_per_write", 1e9 * s / n, "ns/write",
                kReps, "experiments.fig07_09_s, then wall_s on paper");
        core::CoalescingWriteBuffer buffer(core::WriteBufferConfig{});
        s = timeMedian(kReps, [&] {
            buffer.reset();
            Cycles now = 0;
            for (const trace::TraceRecord* w : writes) {
                now += w->instrDelta;
                now += buffer.write(w->addr, now);
            }
        });
        r.layer("core.write_buffer_ns_per_write", 1e9 * s / n, "ns/write",
                kReps, "experiments.fig05_s, then wall_s on paper");
    }

    // service, in-process
    std::string response;
    {
        service::ServiceConfig config;
        config.executorThreads = 2;
        service::Service svc(config);
        std::vector<double> miss;
        for (Count kb : {1u, 2u, 4u, 8u, 16u}) {
            auto start = Clock::now();
            response = svc.handle(runRequest("ccom", kb * 1024));
            miss.push_back(secondsSince(start));
            r.gate(service::JsonValue::parse(response).getBool("ok", false),
                   "in-process run request failed");
        }
        r.layer("service.handle_miss_ms", 1e3 * median(miss), "ms",
                miss.size(), "serve.latency_p50_ms");
        std::vector<double> hit;
        std::string again = runRequest("ccom", 16 * 1024);
        for (int i = 0; i < 200; ++i) {
            auto start = Clock::now();
            svc.handle(again);
            hit.push_back(secondsSince(start));
        }
        r.layer("service.handle_hit_us", 1e6 * median(hit), "us",
                hit.size(), "serve.latency_p50_ms");

        std::vector<double> codec;
        for (int batch = 0; batch < 20; ++batch) {
            auto start = Clock::now();
            for (int i = 0; i < 50; ++i) {
                auto value = service::JsonValue::parse(response);
                sim::RunResult result = service::parseRunResult(
                    value.get("payload").get("result"));
                std::ostringstream os;
                stats::JsonWriter json(os);
                json.beginObject();
                service::writeRunResult(json, "result", result);
                json.endObject();
            }
            codec.push_back(secondsSince(start) / 50);
        }
        r.layer("service.codec_us", 1e6 * median(codec), "us",
                codec.size() * 50, "serve.latency_p50_ms for hits");
    }
    const DaemonFacts& d = facts.daemon.value();
    r.layer("serve.latency_p50_ms", d.latencyP50Ms, "ms", d.latencySamples,
            "goodput_rps on serve, once responses pass its 100 ms limit");
    r.layer("serve.latency_p95_ms", d.latencyP95Ms, "ms", d.latencySamples,
            "goodput_rps on serve, once responses pass its 100 ms limit");
    r.layer("service.queue_wait_p50_ms", d.queueWaitP50Ms, "ms", 1,
            "serve.latency_p95_ms, then goodput_rps on serve");
    r.layer("service.busy_share", d.busyShare, "ratio", 1,
            "serve.latency_p95_ms, then goodput_rps on serve");
    r.layer("service.result_cache_hit_ratio", d.resultCacheHitRatio,
            "ratio", 1, "serve.latency_p95_ms, then goodput_rps on serve");
    r.layer("net.ping_rtt_us", d.pingRttUs, "us", d.pingSamples,
            "serve.latency_p50_ms");

    // store: run-sized blobs on a temp dir
    {
        store::StoreConfig config;
        config.dir = dir + "/store";
        fs::remove_all(config.dir);
        store::ResultStore st(config);
        constexpr int kBlobs = 100;
        std::vector<double> put;
        std::vector<double> get;
        for (int i = 0; i < kBlobs; ++i) {
            std::string key = digestHex("blob" + std::to_string(i));
            auto start = Clock::now();
            st.put(key, response);
            put.push_back(secondsSince(start));
        }
        for (int i = 0; i < kBlobs; ++i) {
            std::string key = digestHex("blob" + std::to_string(i));
            auto start = Clock::now();
            auto blob = st.get(key);
            get.push_back(secondsSince(start));
            r.gate(blob && *blob == response, "store get lost a blob");
        }
        r.layer("store.put_us", 1e6 * median(put), "us", put.size(),
                "serve.latency_p50_ms; paper and sweep bypass");
        r.layer("store.get_us", 1e6 * median(get), "us", get.size(),
                "serve.latency_p50_ms; paper and sweep bypass");
    }
    r.layer("store.hit_ratio", d.storeHitRatio, "ratio", 1,
            "serve.latency_p50_ms");
    r.layer("serve.late_dispatch_ms", d.lateDispatchP95Ms, "ms",
            d.dispatches, "validity: the client is not the bottleneck");
    r.layer("serve.warmup_mean_ms", d.warmupMeanMs, "ms", d.warmupSamples,
            "setup_s on serve: work a fresh daemon defers to first use");
}

} // namespace perfbench
