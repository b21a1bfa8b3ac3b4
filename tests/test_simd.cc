/**
 * @file
 * Differential tests for the AVX2 replay tiles (util/simd.hh and the
 * vector kernels in sim/multiconfig.cc).
 *
 * The vector path is held to byte-identical counters against the
 * scalar reference on adversarial access patterns — all lanes hitting,
 * all lanes missing, mixed dirty-byte traffic — and on every lane
 * count from 1 through 17 so full tiles, partial tiles and the scalar
 * remainder loop are each exercised.  On hardware without AVX2 the
 * comparisons degenerate to scalar-vs-scalar and only the dispatch
 * tests bite.
 */

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/config.hh"
#include "sim/engine.hh"
#include "sim/multiconfig.hh"
#include "trace/trace.hh"
#include "util/simd.hh"

namespace jcache::sim
{
namespace
{

using core::CacheConfig;
using core::WriteHitPolicy;
using core::WriteMissPolicy;
using trace::RefType;
using trace::Trace;
using trace::TraceRecord;

TraceRecord
record(Addr addr, RefType type, std::uint8_t size = 4)
{
    TraceRecord r;
    r.addr = addr;
    r.type = type;
    r.size = size;
    return r;
}

/** Every access lands in one hot line: the all-hit mask. */
Trace
allHitTrace()
{
    Trace t("simd_all_hit");
    for (unsigned i = 0; i < 4096; ++i)
        t.append(record(0x1000 + (i % 4) * 4,
                        i % 3 == 0 ? RefType::Write : RefType::Read));
    return t;
}

/** Strides far past any test cache: the all-miss mask. */
Trace
allMissTrace()
{
    Trace t("simd_all_miss");
    for (unsigned i = 0; i < 4096; ++i)
        t.append(record(0x10000 + static_cast<Addr>(i) * 4096,
                        i % 2 == 0 ? RefType::Read : RefType::Write));
    return t;
}

/**
 * Re-dirties lines with variable sizes and alignments so the dirty
 * masks disagree between lanes of different geometry.
 */
Trace
mixedDirtyTrace()
{
    Trace t("simd_mixed_dirty");
    static const std::uint8_t sizes[] = {1, 2, 4, 8};
    for (unsigned i = 0; i < 4096; ++i) {
        Addr addr = 0x2000 + (i * 13 % 512) * 8;
        if (i % 5 == 0)
            t.append(record(addr, RefType::Read, 4));
        else
            t.append(record(addr + i % 8 / sizes[i % 4] * sizes[i % 4],
                            RefType::Write, sizes[i % 4]));
    }
    return t;
}

/**
 * `lanes` fast-lane-eligible configs with distinct geometry, so each
 * lane resolves hits and victims differently under the same stream.
 * Each inclusive policy pair appears at one size per line size, and
 * write-validate takes the other lanes, so no two lanes form a size
 * stack and every lane replays in the tiles this suite tests.
 */
std::vector<CacheConfig>
laneConfigs(unsigned lanes)
{
    std::vector<CacheConfig> configs;
    std::vector<LaneSpec> specs;
    for (unsigned i = 0; i < lanes; ++i) {
        CacheConfig c;
        c.sizeBytes = 1024u << (i % 5);
        c.lineBytes = 16u << (i % 2);
        c.assoc = 1;
        c.hitPolicy = i % 2 == 0 ? WriteHitPolicy::WriteThrough
                                 : WriteHitPolicy::WriteBack;
        static const WriteMissPolicy kWriteThroughMiss[] = {
            WriteMissPolicy::FetchOnWrite,
            WriteMissPolicy::WriteAround,
            WriteMissPolicy::WriteInvalidate,
        };
        const unsigned j = i / 2;  // index among this hit policy's lanes
        if (c.hitPolicy == WriteHitPolicy::WriteBack)
            c.missPolicy = j == 0 ? WriteMissPolicy::FetchOnWrite
                                  : WriteMissPolicy::WriteValidate;
        else
            c.missPolicy =
                j < 3 ? kWriteThroughMiss[j] : WriteMissPolicy::WriteValidate;
        EXPECT_TRUE(fastLaneEligible(c));
        configs.push_back(c);
        specs.push_back({c, false});
    }
    EXPECT_TRUE(planLanes(specs).stacks.empty());
    return configs;
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
    EXPECT_EQ(a.cache.lineAllocs, b.cache.lineAllocs);
    EXPECT_EQ(a.cache.validateFallbacks, b.cache.validateFallbacks);
    EXPECT_EQ(a.writeBackTraffic.bytes, b.writeBackTraffic.bytes);
    EXPECT_EQ(a.writeThroughTraffic.bytes, b.writeThroughTraffic.bytes);
    EXPECT_EQ(a.fetchTraffic.bytes, b.fetchTraffic.bytes);
}

/** Run the grid down both paths of one engine and diff every cell. */
void
compareScalarAndVector(const Trace& t, unsigned lanes, bool flush)
{
    std::vector<CacheConfig> configs = laneConfigs(lanes);
    std::vector<Request> requests;
    for (const CacheConfig& c : configs)
        requests.push_back({&t, c, flush});

    BatchOptions options;
    options.engine = Engine::OnePass;
    BatchOutcome vectored = runBatch(requests, options);
    simd::forceScalar(true);
    BatchOutcome scalar = runBatch(requests, options);
    simd::forceScalar(false);
    ASSERT_TRUE(vectored.ok());
    ASSERT_TRUE(scalar.ok());
    ASSERT_EQ(vectored.results.size(), requests.size());
    for (std::size_t i = 0; i < requests.size(); ++i) {
        SCOPED_TRACE(t.name() + " lanes=" + std::to_string(lanes) +
                     " cell " + std::to_string(i));
        expectIdentical(vectored.results[i], scalar.results[i]);
    }
}

TEST(Simd, DispatchIsConsistent)
{
    // Runtime support implies compile-time support was decided
    // correctly, and the enabled answer never exceeds either.
    if (simd::avx2Enabled()) {
        EXPECT_TRUE(simd::avx2Compiled());
        EXPECT_TRUE(simd::avx2Runtime());
    }
#if !JCACHE_SIMD_AVX2
    EXPECT_FALSE(simd::avx2Compiled());
    EXPECT_FALSE(simd::avx2Enabled());
#endif
}

TEST(Simd, ForceScalarDisablesTheVectorPath)
{
    bool was_enabled = simd::avx2Enabled();
    simd::forceScalar(true);
    EXPECT_FALSE(simd::avx2Enabled());
    simd::forceScalar(false);
    EXPECT_EQ(simd::avx2Enabled(), was_enabled);
}

TEST(Simd, AllHitMaskIsByteIdentical)
{
    Trace t = allHitTrace();
    compareScalarAndVector(t, 8, false);
    compareScalarAndVector(t, 8, true);
}

TEST(Simd, AllMissMaskIsByteIdentical)
{
    Trace t = allMissTrace();
    compareScalarAndVector(t, 8, false);
    compareScalarAndVector(t, 8, true);
}

TEST(Simd, MixedDirtyMaskIsByteIdentical)
{
    Trace t = mixedDirtyTrace();
    compareScalarAndVector(t, 8, false);
    compareScalarAndVector(t, 8, true);
}

TEST(Simd, EveryLaneCountThroughSeventeen)
{
    // 1..17 covers a lone lane, partial tiles on either side of the
    // 4-lane vector width, exact multiples, and one past the 16-lane
    // chunk so the chunking remainder runs too.
    Trace t = mixedDirtyTrace();
    for (unsigned lanes = 1; lanes <= 17; ++lanes)
        compareScalarAndVector(t, lanes, lanes % 2 == 0);
}

} // namespace
} // namespace jcache::sim
