/**
 * @file
 * Golden differential between the two simulation engines: every cell
 * of the Figure 13-16 grid replayed by the one-pass engine must be
 * byte-identical to the per-cell reference — every counter, every
 * traffic class, and the rendered table/JSON output — plus the
 * configurations the fast lane cannot take (write-back with flush,
 * associative, coarse valid granularity), the empty trace, and
 * seeded random size stacks mixed with lanes that replay alone.
 */

#include <unistd.h>

#include <filesystem>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "service/json_value.hh"
#include "service/render.hh"
#include "store/store.hh"
#include "sim/engine.hh"
#include "sim/multiconfig.hh"
#include "sim/sweeps.hh"
#include "trace/import.hh"
#include "trace/replay_cache.hh"
#include "util/simd.hh"
#include "workloads/workload.hh"

namespace jcache::sim
{
namespace
{

using core::CacheConfig;
using core::WriteHitPolicy;
using core::WriteMissPolicy;

/** Small but realistic traces; generated once per test binary. */
const std::vector<trace::Trace>&
traces()
{
    static const std::vector<trace::Trace> ts = [] {
        workloads::WorkloadConfig config;
        config.scale = 1;
        std::vector<trace::Trace> out;
        out.push_back(workloads::generateTrace(
            *workloads::makeWorkload("ccom", config)));
        out.push_back(workloads::generateTrace(
            *workloads::makeWorkload("linpack", config)));
        return out;
    }();
    return ts;
}

CacheConfig
config(Count size, unsigned line, WriteHitPolicy hit,
       WriteMissPolicy miss)
{
    CacheConfig c;
    c.sizeBytes = size;
    c.lineBytes = line;
    c.assoc = 1;
    c.hitPolicy = hit;
    c.missPolicy = miss;
    return c;
}

/**
 * The Figure 13-16 grid for one trace: every write-miss policy over
 * the standard cache-size axis (16B lines) and the standard line-size
 * axis (8KB caches), write-through throughout so all four policies
 * are legal.
 */
std::vector<Request>
fig13to16Grid(const trace::Trace& t)
{
    const std::vector<WriteMissPolicy> policies = {
        WriteMissPolicy::FetchOnWrite,
        WriteMissPolicy::WriteValidate,
        WriteMissPolicy::WriteAround,
        WriteMissPolicy::WriteInvalidate,
    };
    std::vector<Request> requests;
    for (Count size : standardCacheSizes())
        for (WriteMissPolicy miss : policies)
            requests.push_back(
                {&t, config(size, 16, WriteHitPolicy::WriteThrough,
                            miss),
                 false});
    for (unsigned line : standardLineSizes())
        for (WriteMissPolicy miss : policies)
            requests.push_back(
                {&t, config(8 * 1024, line,
                            WriteHitPolicy::WriteThrough, miss),
                 false});
    return requests;
}

void
expectIdentical(const RunResult& a, const RunResult& b)
{
    EXPECT_EQ(a.instructions, b.instructions);

    EXPECT_EQ(a.cache.reads, b.cache.reads);
    EXPECT_EQ(a.cache.writes, b.cache.writes);
    EXPECT_EQ(a.cache.readHits, b.cache.readHits);
    EXPECT_EQ(a.cache.writeHits, b.cache.writeHits);
    EXPECT_EQ(a.cache.readMisses, b.cache.readMisses);
    EXPECT_EQ(a.cache.partialValidReadMisses,
              b.cache.partialValidReadMisses);
    EXPECT_EQ(a.cache.writeMisses, b.cache.writeMisses);
    EXPECT_EQ(a.cache.writeMissFetches, b.cache.writeMissFetches);
    EXPECT_EQ(a.cache.linesFetched, b.cache.linesFetched);
    EXPECT_EQ(a.cache.writesToDirtyLines, b.cache.writesToDirtyLines);
    EXPECT_EQ(a.cache.writeThroughs, b.cache.writeThroughs);
    EXPECT_EQ(a.cache.invalidations, b.cache.invalidations);
    EXPECT_EQ(a.cache.victims, b.cache.victims);
    EXPECT_EQ(a.cache.dirtyVictims, b.cache.dirtyVictims);
    EXPECT_EQ(a.cache.dirtyVictimDirtyBytes,
              b.cache.dirtyVictimDirtyBytes);
    EXPECT_EQ(a.cache.flushedValidLines, b.cache.flushedValidLines);
    EXPECT_EQ(a.cache.flushedDirtyLines, b.cache.flushedDirtyLines);
    EXPECT_EQ(a.cache.flushedDirtyBytes, b.cache.flushedDirtyBytes);
    EXPECT_EQ(a.cache.victimCacheHits, b.cache.victimCacheHits);
    EXPECT_EQ(a.cache.lineAllocs, b.cache.lineAllocs);
    EXPECT_EQ(a.cache.validateFallbacks, b.cache.validateFallbacks);

    EXPECT_EQ(a.fetchTraffic.transactions, b.fetchTraffic.transactions);
    EXPECT_EQ(a.fetchTraffic.bytes, b.fetchTraffic.bytes);
    EXPECT_EQ(a.writeThroughTraffic.transactions,
              b.writeThroughTraffic.transactions);
    EXPECT_EQ(a.writeThroughTraffic.bytes, b.writeThroughTraffic.bytes);
    EXPECT_EQ(a.writeBackTraffic.transactions,
              b.writeBackTraffic.transactions);
    EXPECT_EQ(a.writeBackTraffic.bytes, b.writeBackTraffic.bytes);
    EXPECT_EQ(a.flushTraffic.transactions, b.flushTraffic.transactions);
    EXPECT_EQ(a.flushTraffic.bytes, b.flushTraffic.bytes);
}

BatchOutcome
runWith(const std::vector<Request>& requests, Engine engine)
{
    BatchOptions options;
    options.engine = engine;
    BatchOutcome outcome = runBatch(requests, options);
    EXPECT_TRUE(outcome.ok());
    EXPECT_EQ(outcome.results.size(), requests.size());
    return outcome;
}

/** One cell's wire JSON (raw counts), for byte-level comparison. */
std::string
resultJson(const RunResult& result)
{
    std::ostringstream os;
    stats::JsonWriter json(os);
    json.beginObject();
    service::writeRunResult(json, "result", result);
    json.endObject();
    return os.str();
}

TEST(EngineDifferential, Fig13To16GridIsByteIdentical)
{
    for (const trace::Trace& t : traces()) {
        std::vector<Request> requests = fig13to16Grid(t);
        BatchOutcome percell = runWith(requests, Engine::PerCell);
        BatchOutcome onepass = runWith(requests, Engine::OnePass);
        for (std::size_t i = 0; i < requests.size(); ++i) {
            SCOPED_TRACE(t.name() + " cell " + std::to_string(i));
            expectIdentical(percell.results[i], onepass.results[i]);
            EXPECT_EQ(resultJson(percell.results[i]),
                      resultJson(onepass.results[i]));
        }
    }
}

TEST(EngineDifferential, WriteBackWithFlushIsIdentical)
{
    const trace::Trace& t = traces().front();
    std::vector<Request> requests;
    for (Count size : standardCacheSizes())
        requests.push_back(
            {&t, config(size, 16, WriteHitPolicy::WriteBack,
                        WriteMissPolicy::FetchOnWrite),
             true});
    BatchOutcome percell = runWith(requests, Engine::PerCell);
    BatchOutcome onepass = runWith(requests, Engine::OnePass);
    for (std::size_t i = 0; i < requests.size(); ++i) {
        SCOPED_TRACE("cell " + std::to_string(i));
        expectIdentical(percell.results[i], onepass.results[i]);
        EXPECT_GT(onepass.results[i].cache.flushedValidLines, 0u);
    }
}

TEST(EngineDifferential, GenericLaneConfigsAreIdentical)
{
    const trace::Trace& t = traces().front();
    CacheConfig assoc2 = config(8 * 1024, 16,
                                WriteHitPolicy::WriteBack,
                                WriteMissPolicy::FetchOnWrite);
    assoc2.assoc = 2;
    CacheConfig coarse = config(8 * 1024, 16,
                                WriteHitPolicy::WriteThrough,
                                WriteMissPolicy::WriteValidate);
    coarse.validGranularity = 4;
    ASSERT_FALSE(fastLaneEligible(assoc2));
    ASSERT_FALSE(fastLaneEligible(coarse));

    std::vector<Request> requests = {{&t, assoc2, true},
                                     {&t, coarse, false}};
    BatchOutcome percell = runWith(requests, Engine::PerCell);
    BatchOutcome onepass = runWith(requests, Engine::OnePass);
    for (std::size_t i = 0; i < requests.size(); ++i) {
        SCOPED_TRACE("cell " + std::to_string(i));
        expectIdentical(percell.results[i], onepass.results[i]);
    }
}

TEST(EngineDifferential, EmptyTraceIsIdentical)
{
    trace::Trace empty("empty");
    Request request{&empty,
                    config(8 * 1024, 16, WriteHitPolicy::WriteBack,
                           WriteMissPolicy::FetchOnWrite),
                    true};
    RunResult percell = runOne(request, Engine::PerCell);
    RunResult onepass = runOne(request, Engine::OnePass);
    expectIdentical(percell, onepass);
    EXPECT_EQ(onepass.instructions, 0u);
    EXPECT_EQ(onepass.cache.accesses(), 0u);
}

TEST(EngineDifferential, ImportedTracesAreByteIdentical)
{
    // A trace round-tripped through either interchange encoding of
    // docs/TRACE_FORMAT.md replays to the same counters as the
    // original, on both engines, down to the wire JSON.
    const trace::Trace& original = traces().front();
    std::stringstream text, binary;
    trace::exportTraceText(original, text);
    trace::exportTraceBinary(original, binary);
    trace::Trace from_text =
        trace::importTraceText(text, original.name());
    trace::Trace from_binary =
        trace::importTraceBinary(binary, original.name());
    ASSERT_EQ(from_text, original);
    ASSERT_EQ(from_binary, original);

    CacheConfig base = config(8 * 1024, 16, WriteHitPolicy::WriteBack,
                              WriteMissPolicy::FetchOnWrite);
    RunResult reference =
        runOne({&original, base, true}, Engine::PerCell);
    for (const trace::Trace* t : {&from_text, &from_binary}) {
        Request request{t, base, true};
        RunResult percell = runOne(request, Engine::PerCell);
        RunResult onepass = runOne(request, Engine::OnePass);
        expectIdentical(percell, onepass);
        expectIdentical(percell, reference);
        EXPECT_EQ(resultJson(onepass), resultJson(reference));
    }
}

TEST(EngineDifferential, RunOneMatchesBatch)
{
    const trace::Trace& t = traces().front();
    Request request{&t,
                    config(16 * 1024, 32, WriteHitPolicy::WriteBack,
                           WriteMissPolicy::FetchOnWrite),
                    false};
    RunResult one = runOne(request, Engine::OnePass);
    BatchOutcome batch = runWith({request}, Engine::OnePass);
    expectIdentical(one, batch.results.front());
}

TEST(EngineDifferential, RenderedTablesAreByteIdentical)
{
    const trace::Trace& t = traces().front();
    CacheConfig base = config(8 * 1024, 16, WriteHitPolicy::WriteBack,
                              WriteMissPolicy::FetchOnWrite);

    // The jcache-sweep table for the size axis, both engines.
    AxisPoints points = buildAxisPoints("size", base);
    std::vector<Request> requests;
    for (const CacheConfig& c : points.configs)
        requests.push_back({&t, c, false});
    BatchOutcome percell = runWith(requests, Engine::PerCell);
    BatchOutcome onepass = runWith(requests, Engine::OnePass);
    for (const char* metric : {"miss", "traffic", "dirty"}) {
        std::ostringstream a;
        std::ostringstream b;
        service::renderSweepTable(a, "size", metric, t.name(), base,
                                  points.labels, percell.results);
        service::renderSweepTable(b, "size", metric, t.name(), base,
                                  points.labels, onepass.results);
        EXPECT_EQ(a.str(), b.str()) << metric;
    }

    // The jcache-sim statistics block for one cell, both engines.
    Request cell{&t, base, true};
    std::ostringstream a;
    std::ostringstream b;
    service::renderRunTable(a, runOne(cell, Engine::PerCell),
                            t.name(), true);
    service::renderRunTable(b, runOne(cell, Engine::OnePass),
                            t.name(), true);
    EXPECT_EQ(a.str(), b.str());
}

TEST(EngineDifferential, StoreRoundTripIsByteIdentical)
{
    // The persistence property behind store-backed sweeps: a result
    // that went result -> wire JSON -> disk blob -> wire JSON ->
    // result must re-serialize and re-render byte-identically to the
    // fresh simulation, so a table assembled from store hits cannot
    // be told apart from one simulated from scratch.
    namespace fs = std::filesystem;
    std::string dir =
        (fs::temp_directory_path() /
         ("jcache_store_differential_" + std::to_string(::getpid())))
            .string();
    fs::remove_all(dir);
    store::StoreConfig store_config;
    store_config.dir = dir;
    store::ResultStore store(store_config);

    const trace::Trace& t = traces().front();
    std::vector<Request> requests = fig13to16Grid(t);
    requests.resize(8); // one policy row is plenty for a round trip
    BatchOutcome fresh = runWith(requests, Engine::OnePass);

    std::vector<RunResult> replayed;
    for (std::size_t i = 0; i < requests.size(); ++i) {
        std::string key = "000000000000000" + std::to_string(i);
        store.put(key, resultJson(fresh.results[i]));
        auto blob = store.get(key);
        ASSERT_TRUE(blob.has_value());
        EXPECT_EQ(*blob, resultJson(fresh.results[i]));

        std::string error;
        service::JsonValue v = service::JsonValue::parse(*blob,
                                                         &error);
        ASSERT_EQ(error, "");
        RunResult parsed = service::parseRunResult(v.get("result"));
        expectIdentical(fresh.results[i], parsed);
        EXPECT_EQ(resultJson(parsed), resultJson(fresh.results[i]));
        replayed.push_back(parsed);
    }

    // The rendered run table — derived metrics included — is
    // identical whether the counts came from memory or from disk.
    for (std::size_t i = 0; i < replayed.size(); ++i) {
        std::ostringstream a;
        std::ostringstream b;
        service::renderRunTable(a, fresh.results[i], t.name(), false);
        service::renderRunTable(b, replayed[i], t.name(), false);
        EXPECT_EQ(a.str(), b.str());
    }
    fs::remove_all(dir);
}

TEST(EngineDifferential, ForcedScalarIsByteIdentical)
{
    // The AVX2 replay tiles must be invisible in the counters: the
    // same grid replayed with the vector path disabled renders the
    // same wire JSON for every cell.  (On machines without AVX2 both
    // passes take the scalar path and the test is a tautology — the
    // CI x86-64 runners are the real audience.)
    const trace::Trace& t = traces().front();
    std::vector<Request> requests = fig13to16Grid(t);
    BatchOutcome vectored = runWith(requests, Engine::OnePass);
    simd::forceScalar(true);
    BatchOutcome scalar = runWith(requests, Engine::OnePass);
    simd::forceScalar(false);
    for (std::size_t i = 0; i < requests.size(); ++i) {
        SCOPED_TRACE("cell " + std::to_string(i));
        expectIdentical(vectored.results[i], scalar.results[i]);
        EXPECT_EQ(resultJson(vectored.results[i]),
                  resultJson(scalar.results[i]));
    }
}

TEST(EngineDifferential, MappedReplaySourceIsByteIdentical)
{
    // Replaying from the mmap'd JCRC cache must equal replaying the
    // in-memory trace, across both engines' comparison baseline.
    namespace fs = std::filesystem;
    std::string dir =
        (fs::temp_directory_path() /
         ("jcache_replay_differential_" + std::to_string(::getpid())))
            .string();
    fs::remove_all(dir);

    const trace::Trace& t = traces().front();
    trace::MappedReplayCache mapped(trace::ensureReplayCache(t, dir));
    EXPECT_EQ(mapped.digest(), trace::contentDigest(t));

    std::vector<Request> memory = fig13to16Grid(t);
    std::vector<Request> via_cache = memory;
    for (Request& r : via_cache)
        r.source = &mapped;
    BatchOutcome percell = runWith(memory, Engine::PerCell);
    BatchOutcome from_memory = runWith(memory, Engine::OnePass);
    BatchOutcome from_cache = runWith(via_cache, Engine::OnePass);
    for (std::size_t i = 0; i < memory.size(); ++i) {
        SCOPED_TRACE("cell " + std::to_string(i));
        expectIdentical(percell.results[i], from_cache.results[i]);
        EXPECT_EQ(resultJson(from_memory.results[i]),
                  resultJson(from_cache.results[i]));
    }
    fs::remove_all(dir);
}

/** One of the four policy pairs a size stack accepts. */
struct StackPolicy
{
    WriteHitPolicy hit;
    WriteMissPolicy miss;
};

const StackPolicy kStackPolicies[] = {
    {WriteHitPolicy::WriteBack, WriteMissPolicy::FetchOnWrite},
    {WriteHitPolicy::WriteThrough, WriteMissPolicy::FetchOnWrite},
    {WriteHitPolicy::WriteThrough, WriteMissPolicy::WriteAround},
    {WriteHitPolicy::WriteThrough, WriteMissPolicy::WriteInvalidate},
};

trace::TraceRecord
ref(Addr addr, bool write, std::uint8_t size)
{
    trace::TraceRecord r;
    r.addr = addr;
    r.size = size;
    r.type = write ? trace::RefType::Write : trace::RefType::Read;
    r.instrDelta = 1 + static_cast<std::uint32_t>(addr % 3);
    return r;
}

/**
 * Synthetic traces for the stack differential: a strided walk over
 * more memory than the largest cache, a hot set with cold misses and
 * mixed access sizes, and 8B accesses at 2 mod 4, which a 4B-line
 * cache splits into three pieces.
 */
std::vector<trace::Trace>
stackTraces()
{
    std::mt19937_64 rng(0x57ac);
    std::vector<trace::Trace> out;

    trace::Trace strided("strided");
    for (unsigned pass = 0; pass < 3; ++pass)
        for (Addr i = 0; i < 6000; ++i) {
            const Addr stride = 4u << (i % 6);
            strided.append(ref(0x10000 + (i * stride) % (160 * 1024),
                               (i + pass) % 3 == 0, 4));
        }
    out.push_back(std::move(strided));

    trace::Trace hot("hot_set");
    for (unsigned i = 0; i < 20000; ++i) {
        const unsigned size = 1u << (rng() % 4);
        const Addr base = rng() % 8 == 0 ? 0x100000 + rng() % (256 * 1024)
                                         : 0x4000 + rng() % (6 * 1024);
        hot.append(ref(base & ~Addr{size - 1}, rng() % 5 < 2,
                       static_cast<std::uint8_t>(size)));
    }
    out.push_back(std::move(hot));

    trace::Trace unaligned("unaligned");
    for (unsigned i = 0; i < 12000; ++i) {
        const Addr addr = 0x8000 + (rng() % (48 * 1024) & ~Addr{3}) + 2;
        unaligned.append(ref(addr, rng() % 2 == 0, 8));
    }
    out.push_back(std::move(unaligned));
    return out;
}

/**
 * A seeded batch over `t`: `stacks` random size stacks (line 4-64B,
 * a random subset of at least two sizes from 256B to 64KB, each
 * stackable policy pair, WB with and without flush), plus lanes that
 * must replay alone and share the pass: write-validate at several
 * sizes, an associative cache and a single-size fetch-on-write cell.
 */
std::vector<Request>
stackBatch(const trace::Trace& t, std::mt19937_64& rng, unsigned stacks)
{
    std::vector<Request> requests;
    for (unsigned s = 0; s < stacks; ++s) {
        const StackPolicy policy = kStackPolicies[s % 4];
        const unsigned line = 4u << (rng() % 5);
        const bool flush = rng() % 2 == 0;
        std::vector<Count> sizes;
        while (sizes.size() < 2) {
            sizes.clear();
            for (Count size = 256; size <= 64 * 1024; size *= 2)
                if (size >= line && rng() % 3 == 0)
                    sizes.push_back(size);
        }
        for (Count size : sizes)
            requests.push_back(
                {&t, config(size, line, policy.hit, policy.miss), flush});
    }
    // Lanes that never stack, in the same pass.
    for (Count size : {Count{1024}, Count{8192}})
        requests.push_back({&t,
                            config(size, 16, WriteHitPolicy::WriteBack,
                                   WriteMissPolicy::WriteValidate),
                            true});
    CacheConfig assoc2 = config(4096, 16, WriteHitPolicy::WriteBack,
                                WriteMissPolicy::FetchOnWrite);
    assoc2.assoc = 2;
    requests.push_back({&t, assoc2, true});
    requests.push_back({&t,
                        config(2048, 32, WriteHitPolicy::WriteThrough,
                               WriteMissPolicy::WriteValidate),
                        false});
    return requests;
}

/** The lane specs runBatch hands a pass for `requests`. */
std::vector<LaneSpec>
laneSpecs(const std::vector<Request>& requests)
{
    std::vector<LaneSpec> lanes;
    for (const Request& r : requests)
        lanes.push_back({r.config, r.flushAtEnd});
    return lanes;
}

TEST(SizeStackDifferential, RandomStacksMatchPerCell)
{
    std::mt19937_64 rng(0x5eed5);
    for (const trace::Trace& t : stackTraces()) {
        for (unsigned round = 0; round < 3; ++round) {
            std::vector<Request> requests = stackBatch(t, rng, 8);
            LanePlan plan = planLanes(laneSpecs(requests));
            ASSERT_GE(plan.stacks.size(), 4u);
            BatchOutcome percell = runWith(requests, Engine::PerCell);
            BatchOutcome onepass = runWith(requests, Engine::OnePass);
            for (std::size_t i = 0; i < requests.size(); ++i) {
                SCOPED_TRACE(t.name() + " round " +
                             std::to_string(round) + " cell " +
                             std::to_string(i) + " " +
                             requests[i].config.describe());
                expectIdentical(percell.results[i], onepass.results[i]);
                EXPECT_EQ(resultJson(percell.results[i]),
                          resultJson(onepass.results[i]));
            }
        }
    }
}

TEST(SizeStackDifferential, GappedAndTwoLevelStacksInOnePass)
{
    // Every stackable policy pair over {1K, 8K, 64K} and over a
    // two-level stack, WB with and without flush, replayed by one
    // runTracePass next to a single-size cell of each pair.
    for (const trace::Trace& t : stackTraces()) {
        std::vector<LaneSpec> lanes;
        for (const StackPolicy& p : kStackPolicies) {
            for (Count size : {Count{1024}, Count{8192}, Count{65536}})
                lanes.push_back({config(size, 16, p.hit, p.miss),
                                 p.hit == WriteHitPolicy::WriteBack});
            lanes.push_back({config(512, 4, p.hit, p.miss), false});
            lanes.push_back({config(2048, 4, p.hit, p.miss), true});
            lanes.push_back({config(4096, 64, p.hit, p.miss), true});
        }
        // WB at one size with and without flush shares one level.
        lanes.push_back({config(8192, 16, WriteHitPolicy::WriteBack,
                                WriteMissPolicy::FetchOnWrite),
                         false});
        LanePlan plan = planLanes(lanes);
        EXPECT_EQ(plan.stacks.size(), 8u);
        EXPECT_EQ(plan.alone.size(), 4u);

        std::vector<RunResult> onepass = runTracePass(t, lanes);
        ASSERT_EQ(onepass.size(), lanes.size());
        for (std::size_t i = 0; i < lanes.size(); ++i) {
            SCOPED_TRACE(t.name() + " lane " + std::to_string(i) + " " +
                         lanes[i].config.describe());
            RunResult percell =
                runTrace(t, lanes[i].config, lanes[i].flushAtEnd);
            expectIdentical(percell, onepass[i]);
        }
    }
}

TEST(SizeStackDifferential, MappedSourceStacksMatchPerCell)
{
    namespace fs = std::filesystem;
    std::string dir =
        (fs::temp_directory_path() /
         ("jcache_stack_differential_" + std::to_string(::getpid())))
            .string();
    fs::remove_all(dir);
    std::mt19937_64 rng(0xcafe);
    for (const trace::Trace& t : stackTraces()) {
        trace::MappedReplayCache mapped(trace::ensureReplayCache(t, dir));
        std::vector<Request> memory = stackBatch(t, rng, 6);
        std::vector<Request> via_cache = memory;
        for (Request& r : via_cache)
            r.source = &mapped;
        BatchOutcome percell = runWith(memory, Engine::PerCell);
        BatchOutcome from_cache = runWith(via_cache, Engine::OnePass);
        for (std::size_t i = 0; i < memory.size(); ++i) {
            SCOPED_TRACE(t.name() + " cell " + std::to_string(i) + " " +
                         memory[i].config.describe());
            expectIdentical(percell.results[i], from_cache.results[i]);
        }
    }
    fs::remove_all(dir);
}

TEST(SizeStackDifferential, PlanKeepsNonInclusiveLanesAlone)
{
    // Write-validate, associative and coarse-granularity cells never
    // stack, and neither does a stackable pair at one size.
    CacheConfig wv = config(1024, 16, WriteHitPolicy::WriteThrough,
                            WriteMissPolicy::WriteValidate);
    CacheConfig wv2 = wv;
    wv2.sizeBytes = 4096;
    CacheConfig a2 = config(1024, 16, WriteHitPolicy::WriteBack,
                            WriteMissPolicy::FetchOnWrite);
    a2.assoc = 2;
    CacheConfig a2big = a2;
    a2big.sizeBytes = 8192;
    CacheConfig coarse = config(1024, 16, WriteHitPolicy::WriteThrough,
                                WriteMissPolicy::FetchOnWrite);
    coarse.validGranularity = 4;
    CacheConfig coarse2 = coarse;
    coarse2.sizeBytes = 2048;
    CacheConfig one = config(1024, 16, WriteHitPolicy::WriteThrough,
                             WriteMissPolicy::WriteAround);
    LanePlan plan = planLanes({{wv, false}, {wv2, false}, {a2, true},
                               {a2big, true}, {coarse, false},
                               {coarse2, false}, {one, false},
                               {one, true}});
    EXPECT_TRUE(plan.stacks.empty());
    EXPECT_EQ(plan.alone.size(), 8u);

    // Lines or policies that differ split candidates apart.
    CacheConfig wa32 = one;
    wa32.lineBytes = 32;
    wa32.sizeBytes = 4096;
    CacheConfig wi = one;
    wi.missPolicy = WriteMissPolicy::WriteInvalidate;
    wi.sizeBytes = 4096;
    CacheConfig wa = one;
    wa.sizeBytes = 2048;
    plan = planLanes({{one, false}, {wa32, false}, {wi, false},
                      {wa, false}});
    ASSERT_EQ(plan.stacks.size(), 1u);
    EXPECT_EQ(plan.stacks.front(), (std::vector<std::size_t>{0, 3}));
    EXPECT_EQ(plan.alone, (std::vector<std::size_t>{1, 2}));
}

} // namespace
} // namespace jcache::sim
