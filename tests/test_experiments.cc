/**
 * @file
 * Integration tests for the experiment layer: every figure function
 * produces well-formed data, and the headline shapes of the paper's
 * evaluation hold on the reconstructed workloads (DESIGN.md Section 6
 * acceptance criteria).
 */

#include <algorithm>
#include <functional>

#include <gtest/gtest.h>

#include "core/store_pipeline.hh"
#include "core/write_buffer.hh"
#include "core/write_cache.hh"
#include "sim/engine.hh"
#include "sim/experiments.hh"
#include "stats/counter.hh"
#include "util/logging.hh"
#include "workloads/workload.hh"

namespace jcache::sim
{
namespace
{

const TraceSet&
traces()
{
    return TraceSet::standard();
}

double
last(const Series& s)
{
    return s.values.back();
}

TEST(FigureData, GetByLabelThrowsOnMissing)
{
    FigureData f;
    f.title = "t";
    f.series.push_back({"a", {1.0}});
    EXPECT_EQ(f.get("a").values[0], 1.0);
    EXPECT_THROW(f.get("b"), FatalError);
}

TEST(FigureData, AppendAverageIsArithmeticMean)
{
    FigureData f;
    f.series.push_back({"a", {1.0, 3.0}});
    f.series.push_back({"b", {3.0, 5.0}});
    appendAverage(f);
    ASSERT_EQ(f.series.size(), 3u);
    EXPECT_EQ(f.series.back().label, "average");
    EXPECT_DOUBLE_EQ(f.series.back().values[0], 2.0);
    EXPECT_DOUBLE_EQ(f.series.back().values[1], 4.0);
}

TEST(Figure1, WritesToDirtyRisesWithLineSize)
{
    FigureData fig = figure1WritesToDirtyVsLineSize(traces());
    ASSERT_EQ(fig.xLabels.size(), 5u);  // 4B..64B
    ASSERT_EQ(fig.series.size(), 7u);   // 6 benchmarks + average
    const Series& avg = fig.get("average");
    // Longer lines catch more writes on already-dirty lines.
    EXPECT_GT(avg.values.back(), avg.values.front());
    // All percentages in [0, 100].
    for (const Series& s : fig.series) {
        for (double v : s.values) {
            EXPECT_GE(v, 0.0);
            EXPECT_LE(v, 100.0);
        }
    }
}

TEST(Figure1, NumericCodesSimilarAt4BAnd8B)
{
    // Paper: linpack/liver behave nearly identically for 4B and 8B
    // lines since their data is double-precision.
    FigureData fig = figure1WritesToDirtyVsLineSize(traces());
    for (const char* name : {"linpack", "liver"}) {
        const Series& s = fig.get(name);
        EXPECT_NEAR(s.values[0], s.values[1], 8.0) << name;
    }
}

TEST(Figure2, WriteBackRemovesMajorityOfWritesOnAverage)
{
    FigureData fig = figure2WritesToDirtyVsCacheSize(traces());
    const Series& avg = fig.get("average");
    // Rises with cache size; majority removed at moderate sizes.
    EXPECT_GT(avg.values.back(), avg.values.front());
    double at_8kb = avg.values[3];
    EXPECT_GT(at_8kb, 40.0);
}

TEST(Figure2, GoodWriteLocalityProgramsBeatNumericOnes)
{
    FigureData fig = figure2WritesToDirtyVsCacheSize(traces());
    // At 8KB (index 3): grr/yacc/met show strong write locality,
    // linpack/liver poor (working sets don't fit; paper Section 3).
    double grr = fig.get("grr").values[3];
    double linpack = fig.get("linpack").values[3];
    double liver = fig.get("liver").values[3];
    EXPECT_GT(grr, linpack);
    EXPECT_GT(grr, liver);
    // With 16B lines each holding two doubles, a unit-stride numeric
    // code writes each line twice, so ~50% is the spatial-locality
    // ceiling the paper's Figure 1 shows for linpack/liver.
    EXPECT_LT(liver, 60.0);
    EXPECT_LT(linpack, 60.0);
}

TEST(Figure5, MergingRequiresRuinousRetireLatency)
{
    FigureData fig = figure5WriteBufferSweep(traces());
    const Series& merged = fig.get("% merged (8-entry buffer)");
    const Series& stall = fig.get("write buffer full stall CPI");
    // Retire-0: nothing merges, nothing stalls.
    EXPECT_DOUBLE_EQ(merged.values.front(), 0.0);
    EXPECT_DOUBLE_EQ(stall.values.front(), 0.0);
    // Merging grows with the retire interval, and so do stalls.
    EXPECT_GT(last(merged), merged.values[1]);
    EXPECT_GT(last(stall), 0.5);
    // Merging at high retire intervals comes at ruinous stall cost:
    // by the end of the sweep the stall CPI is far beyond the paper's
    // 0.1-CPI budget for write stalls.
    EXPECT_GT(last(stall), 0.5);
    // The write cache merges without any stall at all; the buffer
    // only approaches its merge rate once stalls are unacceptable.
    const Series& wc = fig.get("% merged by 6-entry write cache");
    EXPECT_GT(wc.values[0], 10.0);
    for (std::size_t i = 0; i < stall.values.size(); ++i) {
        if (merged.values[i] >= wc.values[0] + 15.0) {
            EXPECT_GT(stall.values[i], 0.1)
                << "buffer out-merged the write cache at benign "
                   "stall level (retire " << fig.xLabels[i] << ")";
        }
    }
}

TEST(Figure7, WriteCacheRemovalGrowsWithEntries)
{
    FigureData fig = figure7WriteCacheAbsolute(traces());
    const Series& avg = fig.get("average");
    ASSERT_EQ(avg.values.size(), 17u);  // 0..16 entries
    EXPECT_DOUBLE_EQ(avg.values[0], 0.0);
    for (std::size_t i = 1; i < avg.values.size(); ++i)
        EXPECT_GE(avg.values[i] + 1e-9, avg.values[i - 1]);
    // Paper: five 8B entries remove ~40% of all writes (25-60 here).
    EXPECT_GT(avg.values[5], 25.0);
    EXPECT_LT(avg.values[5], 60.0);
}

TEST(Figure7, NumericCodesBenefitLeast)
{
    FigureData fig = figure7WriteCacheAbsolute(traces());
    double lin = fig.get("linpack").values[5];
    double grr = fig.get("grr").values[5];
    EXPECT_LT(lin, grr);
}

TEST(Figure8, FiveEntriesRecoverMajorityOfWriteBackBenefit)
{
    FigureData fig = figure8WriteCacheRelative(traces());
    const Series& avg = fig.get("average");
    // Paper: 5 entries ~63% of a 4KB WB cache's traffic removal.
    EXPECT_GT(avg.values[5], 30.0);
    EXPECT_LT(avg.values[5], 95.0);
    // And 16 entries recover clearly more than 1 entry.
    EXPECT_GT(avg.values[16], avg.values[1] + 10.0);
}

TEST(Figure9, RelativeBenefitShrinksWithWbCacheSize)
{
    FigureData fig = figure9WriteCacheVsWbSize(traces());
    const Series& five = fig.get("5 entry write cache");
    EXPECT_GT(five.values.front(), five.values.back());
    const Series& one = fig.get("1 entry write cache");
    const Series& fifteen = fig.get("15 entry write cache");
    for (std::size_t i = 0; i < five.values.size(); ++i) {
        EXPECT_LE(one.values[i], five.values[i] + 1e-9);
        EXPECT_LE(five.values[i], fifteen.values[i] + 1e-9);
    }
}

/**
 * Two workloads at a non-default seed, for the comparisons below
 * against serial loops: ccom's writes merge at most write-cache
 * depths, liver's almost nowhere.
 */
const TraceSet&
oracleTraces()
{
    static const TraceSet set(workloads::WorkloadConfig{1, 0x0dd5eed},
                              {"ccom", "liver"});
    return set;
}

/**
 * The replays the figures used to run, once per point: an n-entry
 * WriteCache per trace and entry count, and a runOne of a
 * direct-mapped 16B-line write-back cache per trace and size.
 */
struct Replays
{
    // [trace][entries 0-16]
    std::vector<std::vector<double>> writeCachePct;
    // [trace][1KB, 2KB, ..., 64KB]
    std::vector<std::vector<double>> writeBackPct;
};

const Replays&
replays()
{
    static const Replays r = [] {
        Replays out;
        for (const trace::Trace& t : oracleTraces().traces()) {
            std::vector<double> wc{0.0};
            for (unsigned n = 1; n <= 16; ++n) {
                core::WriteCache cache(n, 8, nullptr);
                for (const trace::TraceRecord& record : t) {
                    if (record.type == trace::RefType::Write)
                        cache.writeThrough(record.addr, record.size);
                }
                wc.push_back(100.0 * cache.fractionRemoved());
            }
            out.writeCachePct.push_back(wc);
            std::vector<double> wb;
            for (Count kb = 1; kb <= 64; kb *= 2) {
                core::CacheConfig config;
                config.sizeBytes = kb * 1024;
                config.lineBytes = 16;
                config.hitPolicy = core::WriteHitPolicy::WriteBack;
                config.missPolicy = core::WriteMissPolicy::FetchOnWrite;
                wb.push_back(runOne({&t, config, false})
                                 .percentWritesToDirtyLines());
            }
            out.writeBackPct.push_back(wb);
        }
        return out;
    }();
    return r;
}

void
expectSameFigure(const FigureData& got, const FigureData& want)
{
    EXPECT_EQ(got.xLabels, want.xLabels);
    ASSERT_EQ(got.series.size(), want.series.size());
    for (std::size_t i = 0; i < want.series.size(); ++i) {
        EXPECT_EQ(got.series[i].label, want.series[i].label);
        ASSERT_EQ(got.series[i].values.size(),
                  want.series[i].values.size());
        for (std::size_t x = 0; x < want.series[i].values.size(); ++x) {
            EXPECT_EQ(got.series[i].values[x], want.series[i].values[x])
                << want.series[i].label << " @ " << want.xLabels[x];
        }
    }
}

/** Series over entries 0-16 for each trace, plus the average. */
FigureData
oracleEntryFigure(
    const std::function<double(std::size_t, unsigned)>& value)
{
    FigureData figure;
    for (unsigned n = 0; n <= 16; ++n)
        figure.xLabels.push_back(std::to_string(n));
    const std::vector<trace::Trace>& ts = oracleTraces().traces();
    for (std::size_t ti = 0; ti < ts.size(); ++ti) {
        Series series{ts[ti].name(), {}};
        for (unsigned n = 0; n <= 16; ++n)
            series.values.push_back(value(ti, n));
        figure.series.push_back(std::move(series));
    }
    appendAverage(figure);
    return figure;
}

TEST(SerialOracle, Figures3And4MatchSerialSimulation)
{
    core::CacheConfig config;
    config.sizeBytes = 8 * 1024;
    config.lineBytes = 16;
    config.hitPolicy = core::WriteHitPolicy::WriteBack;
    config.missPolicy = core::WriteMissPolicy::FetchOnWrite;
    FigureData want;
    for (const trace::Trace& t : oracleTraces().traces())
        want.xLabels.push_back(t.name());
    for (core::StoreScheme scheme :
         {core::StoreScheme::WriteThroughDirect,
          core::StoreScheme::ProbeThenWrite,
          core::StoreScheme::DelayedWrite}) {
        Series series{core::name(scheme), {}};
        for (const trace::Trace& t : oracleTraces().traces()) {
            series.values.push_back(
                core::simulateStorePipeline(t, config, scheme)
                    .cpiOverhead());
        }
        want.series.push_back(std::move(series));
    }
    expectSameFigure(storePipelineComparison(oracleTraces()), want);
}

TEST(SerialOracle, Figure5MatchesSerialReplays)
{
    const TraceSet& set = oracleTraces();
    FigureData want;
    Series merged{"% merged (8-entry buffer)", {}};
    Series stall{"write buffer full stall CPI", {}};
    for (Cycles n = 0; n <= 48; n += 4) {
        want.xLabels.push_back(std::to_string(n));
        double merged_sum = 0.0;
        double stall_sum = 0.0;
        for (const trace::Trace& t : set.traces()) {
            core::WriteBufferConfig config;
            config.entries = 8;
            config.entryBytes = 16;
            config.retireInterval = n;
            core::CoalescingWriteBuffer buffer(config);
            Cycles now = 0;
            Count instructions = 0;
            for (const trace::TraceRecord& record : t) {
                now += record.instrDelta;
                instructions += record.instrDelta;
                if (record.type == trace::RefType::Write)
                    now += buffer.write(record.addr, now);
            }
            merged_sum += 100.0 * buffer.mergeFraction();
            stall_sum += stats::ratio(buffer.stallCycles(),
                                      instructions);
        }
        merged.values.push_back(merged_sum / 2.0);
        stall.values.push_back(stall_sum / 2.0);
    }
    double wc_sum = 0.0;
    for (const std::vector<double>& wc : replays().writeCachePct)
        wc_sum += wc[6];
    Series reference{"% merged by 6-entry write cache",
                     std::vector<double>(13, wc_sum / 2.0)};
    want.series = {merged, stall, reference};
    expectSameFigure(figure5WriteBufferSweep(set), want);
}

TEST(SerialOracle, Figure7MatchesPerSizeReplays)
{
    FigureData want =
        oracleEntryFigure([](std::size_t ti, unsigned entries) {
            return replays().writeCachePct[ti][entries];
        });
    expectSameFigure(figure7WriteCacheAbsolute(oracleTraces()), want);
}

TEST(SerialOracle, Figure8MatchesPerSizeReplays)
{
    FigureData want =
        oracleEntryFigure([](std::size_t ti, unsigned entries) {
            double wb = replays().writeBackPct[ti][2];  // 4KB
            if (wb == 0.0)
                return 0.0;
            return 100.0 * replays().writeCachePct[ti][entries] / wb;
        });
    expectSameFigure(figure8WriteCacheRelative(oracleTraces()), want);
}

TEST(SerialOracle, Figure9MatchesPerSizeReplays)
{
    const Replays& r = replays();
    FigureData want;
    for (Count kb = 1; kb <= 64; kb *= 2)
        want.xLabels.push_back(std::to_string(kb) + "KB");
    for (unsigned entries : {15u, 5u, 1u}) {
        Series series{std::to_string(entries) + " entry write cache",
                      {}};
        for (std::size_t si = 0; si < 7; ++si) {
            double sum = 0.0;
            for (std::size_t ti = 0; ti < 2; ++ti) {
                double wb = r.writeBackPct[ti][si];
                double wc = r.writeCachePct[ti][entries];
                sum += wb > 0.0 ? 100.0 * wc / wb : 0.0;
            }
            series.values.push_back(sum / 2.0);
        }
        want.series.push_back(std::move(series));
    }
    expectSameFigure(figure9WriteCacheVsWbSize(oracleTraces()), want);
}

TEST(Figure10, WriteMissesAreRoughlyAThirdOfMisses)
{
    FigureData fig = figure10WriteMissShareVsCacheSize(traces());
    const Series& avg = fig.get("average");
    // At small and moderate sizes write misses are a substantial
    // minority of all misses (paper: about one third on average).
    // At the largest sizes our shortened traces leave mostly cold
    // misses, so only bound the small-cache points tightly.
    for (std::size_t i = 0; i < 6; ++i) {  // 1KB..32KB
        EXPECT_GT(avg.values[i], 10.0) << fig.xLabels[i];
        EXPECT_LT(avg.values[i], 65.0) << fig.xLabels[i];
    }
}

TEST(Figure11, WriteMissShareBoundedAcrossLineSizes)
{
    FigureData fig = figure11WriteMissShareVsLineSize(traces());
    const Series& avg = fig.get("average");
    for (double v : avg.values) {
        EXPECT_GT(v, 10.0);
        EXPECT_LT(v, 65.0);
    }
}

TEST(Figures13And14, PolicyOrderingAndWriteValidateStrength)
{
    auto fig13 = figure13WriteMissReductionVsCacheSize(traces());
    ASSERT_EQ(fig13.size(), 3u);  // validate, around, invalidate
    const Series& wv = fig13[0].get("average");
    const Series& wa = fig13[1].get("average");
    const Series& wi = fig13[2].get("average");
    double wv_mean = 0, wa_mean = 0, wi_mean = 0;
    for (std::size_t i = 0; i < wv.values.size(); ++i) {
        // Write-invalidate never beats the others (Figure 17's
        // partial order); write-validate vs write-around can flip at
        // individual sizes (the paper's liver at 32-64KB), so compare
        // those two on the sweep mean below.
        EXPECT_GE(wv.values[i] + 1e-9, wi.values[i]);
        EXPECT_GE(wa.values[i] + 1e-9, wi.values[i]);
        EXPECT_GE(wi.values[i], 0.0);
        wv_mean += wv.values[i];
        wa_mean += wa.values[i];
        wi_mean += wi.values[i];
    }
    EXPECT_GE(wv_mean + 1.0, wa_mean);
    EXPECT_GT(wv_mean, wi_mean);
    // Write-validate averages a large write-miss reduction.
    double wv_mid = wv.values[3];  // 8KB
    EXPECT_GT(wv_mid, 60.0);
}

TEST(Figures13And14, Figure14IsFigure13TimesFigure10)
{
    // The paper notes Figure 14 = Figure 13 x Figure 10 (write-miss
    // share).  Verify the identity numerically for write-validate.
    auto fig13 = figure13WriteMissReductionVsCacheSize(traces());
    auto fig14 = figure14TotalMissReductionVsCacheSize(traces());
    FigureData fig10 = figure10WriteMissShareVsCacheSize(traces());
    for (const std::string bench : {"ccom", "linpack"}) {
        const auto& f13 = fig13[0].get(bench);
        const auto& f14 = fig14[0].get(bench);
        const auto& f10 = fig10.get(bench);
        for (std::size_t i = 0; i < f13.values.size(); ++i) {
            double predicted = f13.values[i] * f10.values[i] / 100.0;
            EXPECT_NEAR(f14.values[i], predicted, 1e-6)
                << bench << " point " << i;
        }
    }
}

TEST(Figures15And16, AdvantageShrinksWithLineSize)
{
    auto fig15 = figure15WriteMissReductionVsLineSize(traces());
    const Series& wv = fig15[0].get("average");
    // Write-validate's write-miss reduction decreases as lines grow
    // (more old data on the line is eventually wanted).
    EXPECT_GT(wv.values.front(), wv.values.back());
    auto fig16 = figure16TotalMissReductionVsLineSize(traces());
    ASSERT_EQ(fig16.size(), 3u);
    for (const auto& figure : fig16)
        EXPECT_EQ(figure.xLabels.size(), 5u);
}

TEST(Figure17, PartialOrderHoldsAtBaseGeometry)
{
    std::vector<std::string> violations;
    bool ok = verifyFigure17PartialOrder(traces(), 8 * 1024, 16,
                                         &violations);
    EXPECT_TRUE(ok);
    for (const auto& v : violations)
        ADD_FAILURE() << v;
}

TEST(Figure18, WriteThroughTrafficDominatedByStores)
{
    FigureData fig = figure18TrafficVsCacheSize(traces());
    const Series& wt = fig.get("write-through");
    const Series& wb = fig.get("write-back");
    // Paper: WT back-side transactions vary by less than 2x over the
    // two-decade cache-size range.
    double wt_max = *std::max_element(wt.values.begin(),
                                      wt.values.end());
    double wt_min = *std::min_element(wt.values.begin(),
                                      wt.values.end());
    EXPECT_LT(wt_max / wt_min, 2.0);
    // Write-back traffic is lower than write-through at large sizes.
    EXPECT_LT(wb.values.back(), wt.values.back());
}

TEST(Figure19, TransactionCountFallsWithLineSize)
{
    FigureData fig = figure19TrafficVsLineSize(traces());
    const Series& wb = fig.get("write-back");
    EXPECT_LT(wb.values.back(), wb.values.front());
    const Series& wt = fig.get("write-through");
    // Store traffic dominates, so WT transaction counts vary far less
    // across line sizes than the miss components do; the 4B endpoint
    // splits doubleword accesses, so allow a bit over the paper's 2x.
    double wt_max = *std::max_element(wt.values.begin(),
                                      wt.values.end());
    double wt_min = *std::min_element(wt.values.begin(),
                                      wt.values.end());
    EXPECT_LT(wt_max / wt_min, 3.0);
    const Series& rm = fig.get("read misses");
    double rm_ratio = rm.values.front() / rm.values.back();
    EXPECT_GT(rm_ratio, wt_max / wt_min);
}

TEST(Figures20To22, DirtyVictimShapes)
{
    FigureData f20 = figure20VictimsDirtyVsCacheSize(traces(), true);
    const Series& avg20 = f20.get("average");
    // Roughly half of victims are dirty on average (paper: ~50%).
    double mid = avg20.values[3];
    EXPECT_GT(mid, 25.0);
    EXPECT_LT(mid, 75.0);

    FigureData f21 =
        figure21BytesDirtyInDirtyVictimVsCacheSize(traces(), true);
    for (double v : f21.get("average").values) {
        EXPECT_GT(v, 30.0);
        EXPECT_LE(v, 100.0);
    }

    FigureData f22 = figure22BytesDirtyPerVictimVsCacheSize(traces());
    // Product relation: f22 <= f21 pointwise (f22 includes clean
    // victims in the denominator).
    for (std::size_t i = 0; i < f22.get("average").values.size();
         ++i) {
        EXPECT_LE(f22.get("average").values[i],
                  f21.get("average").values[i] + 1e-9);
    }
}

TEST(Figures23To25, LineSizeShapes)
{
    FigureData f24 =
        figure24BytesDirtyInDirtyVictimVsLineSize(traces(), true);
    const Series& avg = f24.get("average");
    // 4B lines with word writes: dirty lines are 100% dirty; falls
    // off rapidly with longer lines (paper Figure 24).
    EXPECT_GT(avg.values.front(), 95.0);
    EXPECT_LT(avg.values.back(), avg.values.front());

    FigureData f25 = figure25BytesDirtyPerVictimVsLineSize(traces());
    const Series& per = f25.get("average");
    EXPECT_LT(per.values.back(), per.values.front());

    FigureData f23 = figure23VictimsDirtyVsLineSize(traces(), true);
    for (double v : f23.get("average").values) {
        EXPECT_GE(v, 0.0);
        EXPECT_LE(v, 100.0);
    }
}

TEST(Table1, SixRowsWithPlausibleMix)
{
    auto rows = table1Characteristics(traces());
    ASSERT_EQ(rows.size(), 6u);
    for (const auto& [name, summary] : rows) {
        EXPECT_GT(summary.references(), 0u) << name;
        EXPECT_GT(summary.instructions, summary.references()) << name;
    }
}

} // namespace
} // namespace jcache::sim
