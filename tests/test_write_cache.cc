/**
 * @file
 * Unit tests for the write cache (paper Figures 6-9): fully
 * associative 8B-entry coalescing, LRU eviction, and the MemLevel
 * interactions behind a write-through data cache.
 */

#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/data_cache.hh"
#include "core/write_cache.hh"
#include "mem/traffic_meter.hh"
#include "util/logging.hh"

namespace jcache::core
{
namespace
{

TEST(WriteCache, FirstWriteAllocatesSecondMerges)
{
    WriteCache wc(4);
    wc.writeThrough(0x100, 4);
    wc.writeThrough(0x104, 4);  // same 8B entry
    EXPECT_EQ(wc.writesIn(), 2u);
    EXPECT_EQ(wc.merges(), 1u);
    EXPECT_EQ(wc.occupancy(), 1u);
    EXPECT_DOUBLE_EQ(wc.fractionRemoved(), 0.5);
}

TEST(WriteCache, DistinctEntriesFillSlots)
{
    WriteCache wc(4);
    for (Addr a = 0; a < 4 * 8; a += 8)
        wc.writeThrough(a, 8);
    EXPECT_EQ(wc.occupancy(), 4u);
    EXPECT_EQ(wc.merges(), 0u);
    EXPECT_EQ(wc.evictions(), 0u);
}

TEST(WriteCache, LruEvictionGoesDownstream)
{
    mem::TrafficMeter meter;
    WriteCache wc(2, 8, &meter);
    wc.writeThrough(0x00, 4);
    wc.writeThrough(0x08, 4);
    wc.writeThrough(0x00, 4);  // touch entry 0: entry 0x08 is LRU
    wc.writeThrough(0x10, 4);  // evicts 0x08
    EXPECT_EQ(wc.evictions(), 1u);
    EXPECT_EQ(meter.writeThroughs().transactions, 1u);
    EXPECT_EQ(meter.writeThroughs().bytes, 4u);
    // 0x08 must re-allocate, not merge.
    wc.writeThrough(0x08, 4);
    EXPECT_EQ(wc.merges(), 1u);  // only the 0x00 touch merged
}

TEST(WriteCache, EvictionWritesOnlyDirtyBytes)
{
    mem::TrafficMeter meter;
    WriteCache wc(1, 8, &meter);
    wc.writeThrough(0x00, 4);   // half the entry dirty
    wc.writeThrough(0x10, 4);   // evicts
    EXPECT_EQ(meter.writeThroughs().bytes, 4u);
}

TEST(WriteCache, ZeroEntriesPassesEverythingThrough)
{
    mem::TrafficMeter meter;
    WriteCache wc(0, 8, &meter);
    wc.writeThrough(0x00, 4);
    wc.writeThrough(0x00, 4);
    EXPECT_EQ(wc.merges(), 0u);
    EXPECT_EQ(meter.writeThroughs().transactions, 2u);
    EXPECT_DOUBLE_EQ(wc.fractionRemoved(), 0.0);
}

TEST(WriteCache, FetchFlushesOverlappingEntries)
{
    mem::TrafficMeter meter;
    WriteCache wc(4, 8, &meter);
    wc.writeThrough(0x100, 4);
    wc.writeThrough(0x108, 4);
    wc.writeThrough(0x200, 4);
    wc.fetchLine(0x100, 16);  // overlaps the first two entries
    EXPECT_EQ(wc.fetchFlushes(), 2u);
    EXPECT_EQ(meter.writeThroughs().transactions, 2u);
    EXPECT_EQ(meter.fetches().transactions, 1u);
    EXPECT_EQ(wc.occupancy(), 1u);  // 0x200 untouched
}

TEST(WriteCache, FlushDrainsEverything)
{
    mem::TrafficMeter meter;
    WriteCache wc(4, 8, &meter);
    wc.writeThrough(0x00, 8);
    wc.writeThrough(0x10, 4);
    wc.flush();
    EXPECT_EQ(wc.occupancy(), 0u);
    EXPECT_EQ(meter.writeThroughs().transactions, 2u);
    EXPECT_EQ(meter.writeThroughs().bytes, 12u);
}

TEST(WriteCache, WriteBacksPassThrough)
{
    mem::TrafficMeter meter;
    WriteCache wc(4, 8, &meter);
    wc.writeBack(0x40, 16, 8, false);
    EXPECT_EQ(meter.writeBacks().transactions, 1u);
}

TEST(WriteCache, RejectsBadEntryWidth)
{
    EXPECT_THROW(WriteCache(4, 12), FatalError);
    EXPECT_THROW(WriteCache(4, 128), FatalError);
}

TEST(WriteCache, RejectsStraddlingWrites)
{
    WriteCache wc(4, 8);
    EXPECT_THROW(wc.writeThrough(0x4, 8), FatalError);
}

TEST(WriteCache, BehindWriteThroughDataCache)
{
    // Full stack: data cache (WT) -> write cache -> meter.  Repeated
    // writes to one word reach the write cache every time but exit it
    // only once.
    mem::TrafficMeter meter;
    WriteCache wc(4, 8, &meter);
    CacheConfig config;
    config.sizeBytes = 1024;
    config.hitPolicy = WriteHitPolicy::WriteThrough;
    config.missPolicy = WriteMissPolicy::WriteValidate;
    DataCache cache(config, wc);
    for (int i = 0; i < 10; ++i)
        cache.write(0x100, 4);
    EXPECT_EQ(wc.writesIn(), 10u);
    EXPECT_EQ(wc.merges(), 9u);
    EXPECT_EQ(meter.writeThroughs().transactions, 0u);  // still held
    wc.flush();
    EXPECT_EQ(meter.writeThroughs().transactions, 1u);
}

TEST(WriteCache, StackedFetchConsistency)
{
    // A read miss in the data cache must observe pending write-cache
    // data: the overlapping entry flushes before the fetch.
    mem::TrafficMeter meter;
    WriteCache wc(4, 8, &meter);
    CacheConfig config;
    config.sizeBytes = 1024;
    config.hitPolicy = WriteHitPolicy::WriteThrough;
    config.missPolicy = WriteMissPolicy::WriteAround;
    DataCache cache(config, wc);
    cache.write(0x100, 4);   // goes around into the write cache
    cache.read(0x108, 4);    // miss: fetch of line 0x100
    EXPECT_EQ(wc.fetchFlushes(), 1u);
    EXPECT_EQ(meter.writeThroughs().transactions, 1u);
    EXPECT_EQ(meter.fetches().transactions, 1u);
}

TEST(WriteCache, FiveEntryKneeBeatsOneEntry)
{
    // Figure 7's shape on a synthetic stream with reuse.
    auto removal = [](unsigned entries) {
        WriteCache wc(entries, 8, nullptr);
        std::uint64_t x = 7;
        for (int i = 0; i < 50000; ++i) {
            x = x * 6364136223846793005ull + 1;
            Addr addr = ((x >> 24) % 12) * 8;  // 12 hot doublewords
            wc.writeThrough(addr, 8);
        }
        return wc.fractionRemoved();
    };
    double one = removal(1);
    double five = removal(5);
    double sixteen = removal(16);
    EXPECT_LT(one, five);
    EXPECT_LT(five, sixteen);
    EXPECT_GT(sixteen, 0.9);  // 12 hot lines fit in 16 entries
}

// A write stream as (address, bytes) pairs.
using Writes = std::vector<std::pair<Addr, unsigned>>;

/** The stream as a trace, with a read between writes. */
trace::Trace
traceOf(const Writes& writes)
{
    trace::Trace t("synthetic");
    for (const auto& [addr, bytes] : writes) {
        t.append({addr + 0x10000, 1, 4, trace::RefType::Read});
        t.append({addr, 1, static_cast<std::uint8_t>(bytes),
                  trace::RefType::Write});
    }
    return t;
}

/** The curve must match a WriteCache replay at every size. */
void
expectCurveMatchesReplays(const Writes& writes)
{
    MergeCurve curve = mergeCurve(traceOf(writes));
    EXPECT_EQ(curve.writes, writes.size());
    EXPECT_EQ(curve.merged[0], 0u);
    EXPECT_EQ(curve.removalPct(0), 0.0);
    for (unsigned n = 1; n <= MergeCurve::kMaxEntries; ++n) {
        WriteCache wc(n);
        for (const auto& [addr, bytes] : writes)
            wc.writeThrough(addr, bytes);
        EXPECT_EQ(curve.writes, wc.writesIn()) << n << " entries";
        EXPECT_EQ(curve.merged[n], wc.merges()) << n << " entries";
        EXPECT_EQ(curve.removalPct(n), 100.0 * wc.fractionRemoved())
            << n << " entries";
    }
}

/** A 64-bit LCG step, for reproducible random streams. */
std::uint64_t
nextRandom(std::uint64_t& x)
{
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    return x >> 24;
}

TEST(MergeCurve, SameEntryRepeated)
{
    expectCurveMatchesReplays(Writes(100, {0x40, 8}));
}

TEST(MergeCurve, PartialBytesWithinOneEntry)
{
    Writes writes;
    for (unsigned i = 0; i < 64; ++i)
        writes.push_back({0x80 + (i % 8), 1});
    for (unsigned i = 0; i < 16; ++i)
        writes.push_back({0x80 + 2 * (i % 4), 2});
    writes.push_back({0x84, 4});
    expectCurveMatchesReplays(writes);
}

TEST(MergeCurve, StridedWrites)
{
    for (Addr stride : {4u, 8u, 24u, 64u}) {
        Writes writes;
        for (unsigned pass = 0; pass < 3; ++pass) {
            for (Addr i = 0; i < 40; ++i)
                writes.push_back({i * stride, 4});
        }
        SCOPED_TRACE(stride);
        expectCurveMatchesReplays(writes);
    }
}

TEST(MergeCurve, UniformRandomWrites)
{
    std::uint64_t x = 11;
    Writes writes;
    for (int i = 0; i < 5000; ++i) {
        Addr entry = (nextRandom(x) % 40) * 8;
        unsigned bytes = 1u << (nextRandom(x) % 4);
        Addr offset = (nextRandom(x) % (8 / bytes)) * bytes;
        writes.push_back({entry + offset, bytes});
    }
    expectCurveMatchesReplays(writes);
}

TEST(MergeCurve, HotSet)
{
    // 90% of writes to 6 hot doublewords, the rest over 4096.
    std::uint64_t x = 5;
    Writes writes;
    for (int i = 0; i < 5000; ++i) {
        bool hot = nextRandom(x) % 10 != 0;
        Addr entry = hot ? 0x1000 + (nextRandom(x) % 6) * 8
                         : 0x100000 + (nextRandom(x) % 4096) * 8;
        writes.push_back({entry, 4});
    }
    expectCurveMatchesReplays(writes);
}

TEST(MergeCurve, CyclicWalkBeyondCapacity)
{
    // LRU's worst case: a cycle one longer than the largest cache
    // merges nothing, while a cycle of 16 merges in the 16-entry cache.
    for (Addr cycle : {16u, 17u, 20u}) {
        Writes writes;
        for (int i = 0; i < 200; ++i)
            writes.push_back({(i % cycle) * 8, 8});
        SCOPED_TRACE(cycle);
        expectCurveMatchesReplays(writes);
    }
    Writes seventeen;
    for (int i = 0; i < 200; ++i)
        seventeen.push_back({(i % 17) * 8, 8});
    EXPECT_EQ(mergeCurve(traceOf(seventeen)).merged[16], 0u);
}

TEST(MergeCurve, NoWritesRemovesNothing)
{
    trace::Trace t("reads");
    t.append({0x100, 1, 4, trace::RefType::Read});
    MergeCurve curve = mergeCurve(t);
    EXPECT_EQ(curve.writes, 0u);
    for (unsigned n = 0; n <= MergeCurve::kMaxEntries; ++n)
        EXPECT_EQ(curve.removalPct(n), 0.0);
}

TEST(MergeCurve, RejectsStraddlingWrites)
{
    EXPECT_THROW(mergeCurve(traceOf({{0x0, 8}, {0x4, 8}})), FatalError);
    try {
        mergeCurve(traceOf({{0x6, 4}}));
        FAIL() << "straddling write accepted";
    } catch (const FatalError& e) {
        EXPECT_NE(std::string(e.what()).find(
                      "write cache writes must not straddle entries"),
                  std::string::npos);
    }
}

} // namespace
} // namespace jcache::core
