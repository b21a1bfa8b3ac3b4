/**
 * @file
 * Implementation of the per-figure experiments.
 */

#include "sim/experiments.hh"

#include <functional>

#include "core/store_pipeline.hh"
#include "core/write_buffer.hh"
#include "core/write_cache.hh"
#include "sim/engine.hh"
#include "sim/parallel.hh"
#include "stats/counter.hh"
#include "stats/table.hh"
#include "util/logging.hh"

namespace jcache::sim
{

namespace
{

using core::CacheConfig;
using core::WriteHitPolicy;
using core::WriteMissPolicy;

CacheConfig
makeConfig(Count size, unsigned line, WriteHitPolicy hit,
           WriteMissPolicy miss)
{
    CacheConfig config;
    config.sizeBytes = size;
    config.lineBytes = line;
    config.assoc = 1;
    config.hitPolicy = hit;
    config.missPolicy = miss;
    return config;
}

/**
 * Run task(i) for every i in [0, count) over the parallel executor.
 * Tasks write to per-index slots, so callers that reduce the slots in
 * index order get the same doubles at any thread count.  A failed
 * cell fails the figure with its message.
 */
void
fanOut(const std::string& what, std::size_t count,
       const std::function<void(std::size_t)>& task)
{
    SweepReport report =
        ParallelExecutor().runTasks(count, [&](std::size_t i) {
            task(i);
            return Count{0};
        });
    if (!report.allSucceeded())
        fatal(what + " failed: " + report.failures.front().message);
}

/**
 * Per-benchmark sweep whose metric is a pure function of one
 * RunResult.  The whole (trace x x) grid goes through the unified
 * engine as a single batch, so under the default one-pass engine
 * every trace is decoded once for the entire figure.
 */
template <typename X>
FigureData
resultSweep(const std::string& title, const std::string& x_axis,
            const std::vector<X>& xs,
            const std::function<std::string(X)>& x_label,
            const TraceSet& traces,
            const std::function<CacheConfig(X)>& config_for,
            const std::function<double(const RunResult&)>& metric,
            bool flush_at_end = false)
{
    FigureData figure;
    figure.title = title;
    figure.xAxis = x_axis;
    for (X x : xs)
        figure.xLabels.push_back(x_label(x));

    std::vector<Request> requests;
    for (const trace::Trace& t : traces.traces()) {
        for (X x : xs)
            requests.push_back({&t, config_for(x), flush_at_end});
    }
    BatchOutcome outcome = runBatch(requests);
    if (!outcome.ok())
        fatal("figure sweep failed: " +
              outcome.report.failures.front().message);

    std::size_t nx = xs.size();
    for (std::size_t ti = 0; ti < traces.size(); ++ti) {
        Series series;
        series.label = traces.traces()[ti].name();
        for (std::size_t xi = 0; xi < nx; ++xi)
            series.values.push_back(
                metric(outcome.results[ti * nx + xi]));
        figure.series.push_back(std::move(series));
    }
    appendAverage(figure);
    return figure;
}

std::function<std::string(Count)>
sizeLabel()
{
    return [](Count bytes) { return stats::formatSize(bytes); };
}

std::function<std::string(unsigned)>
lineLabel()
{
    return [](unsigned bytes) {
        return std::to_string(bytes) + "B";
    };
}

constexpr Count kBaseCacheSize = 8 * 1024;
constexpr unsigned kBaseLineSize = 16;

/** Direct-mapped write-back fetch-on-write cache of `size` bytes. */
std::function<CacheConfig(Count)>
wbBySize()
{
    return [](Count size) {
        return makeConfig(size, kBaseLineSize,
                          WriteHitPolicy::WriteBack,
                          WriteMissPolicy::FetchOnWrite);
    };
}

/** Direct-mapped 8KB write-back cache with `line`-byte lines. */
std::function<CacheConfig(unsigned)>
wbByLine()
{
    return [](unsigned line) {
        return makeConfig(kBaseCacheSize, line,
                          WriteHitPolicy::WriteBack,
                          WriteMissPolicy::FetchOnWrite);
    };
}

/** The three no-fetch write-miss policies, in paper order. */
const std::vector<WriteMissPolicy> kNoFetchPolicies = {
    WriteMissPolicy::WriteValidate,
    WriteMissPolicy::WriteAround,
    WriteMissPolicy::WriteInvalidate,
};

/**
 * Shared implementation of Figures 13-16.  For each no-fetch policy,
 * the reduction in counted misses relative to fetch-on-write is
 * normalized by the fetch-on-write write-miss count (write_basis =
 * true; Figures 13/15) or total-miss count (Figures 14/16).
 *
 * One batch replays all four policies per (trace, x) point through
 * the unified engine — the fetch-on-write baseline runs once and is
 * shared by the three reduction figures by construction (the one-pass
 * engine dedupes it into a single lane per trace pass), where the
 * serial version re-ran it per policy.
 */
template <typename X>
std::vector<FigureData>
missReductionSweep(const std::string& figure_name,
                   const std::string& x_axis, const std::vector<X>& xs,
                   const std::function<std::string(X)>& x_label,
                   const TraceSet& traces, bool write_basis,
                   const std::function<CacheConfig(X,
                                                   WriteMissPolicy)>&
                       config_for)
{
    // Grid: trace-major, then x, then policy (baseline + the three
    // no-fetch policies).
    std::vector<WriteMissPolicy> policies{
        WriteMissPolicy::FetchOnWrite};
    policies.insert(policies.end(), kNoFetchPolicies.begin(),
                    kNoFetchPolicies.end());
    std::vector<Request> requests;
    for (const trace::Trace& t : traces.traces()) {
        for (X x : xs) {
            for (WriteMissPolicy p : policies)
                requests.push_back({&t, config_for(x, p), false});
        }
    }
    BatchOutcome outcome = runBatch(requests);
    if (!outcome.ok())
        fatal("miss-reduction sweep failed: " +
              outcome.report.failures.front().message);

    std::size_t np = policies.size();
    std::size_t nx = xs.size();
    auto at = [&](std::size_t ti, std::size_t xi,
                  std::size_t pi) -> const RunResult& {
        return outcome.results[ti * nx * np + xi * np + pi];
    };

    std::vector<FigureData> result;
    for (std::size_t pi = 1; pi < np; ++pi) {
        FigureData figure;
        figure.title = figure_name + " — " +
                       core::name(policies[pi]);
        figure.xAxis = x_axis;
        for (X x : xs)
            figure.xLabels.push_back(x_label(x));

        for (std::size_t ti = 0; ti < traces.size(); ++ti) {
            Series series;
            series.label = traces.traces()[ti].name();
            for (std::size_t xi = 0; xi < nx; ++xi) {
                const RunResult& base = at(ti, xi, 0);
                const RunResult& alt = at(ti, xi, pi);
                Count basis = write_basis
                    ? base.cache.writeMisses
                    : base.cache.countedMisses();
                double delta =
                    static_cast<double>(base.cache.countedMisses()) -
                    static_cast<double>(alt.cache.countedMisses());
                series.values.push_back(
                    basis ? 100.0 * delta /
                                static_cast<double>(basis)
                          : 0.0);
            }
            figure.series.push_back(std::move(series));
        }
        appendAverage(figure);
        result.push_back(std::move(figure));
    }
    return result;
}

/** Per-trace write-cache merge curves, one task per trace. */
std::vector<core::MergeCurve>
mergeCurves(const TraceSet& traces)
{
    const std::vector<trace::Trace>& ts = traces.traces();
    std::vector<core::MergeCurve> curves(ts.size());
    fanOut("write-cache merge curve", ts.size(), [&](std::size_t i) {
        curves[i] = core::mergeCurve(ts[i]);
    });
    return curves;
}

/**
 * Percent of writes a direct-mapped write-back cache removes (=
 * writes to already-dirty lines, whole-line write-backs): one series
 * per trace over `sizes`, then the average, from one batch.
 */
FigureData
writeBackRemoval(const TraceSet& traces, const std::vector<Count>& sizes)
{
    return resultSweep<Count>(
        "write-back removal", "cache size", sizes, sizeLabel(), traces,
        wbBySize(), [](const RunResult& r) {
            return r.percentWritesToDirtyLines();
        });
}

/**
 * Per-benchmark series over write-cache entry counts 0-16;
 * value(trace index, entries) -> y.
 */
FigureData
entrySweep(const std::string& title, const TraceSet& traces,
           const std::function<double(std::size_t, unsigned)>& value)
{
    FigureData figure;
    figure.title = title;
    figure.xAxis = "write-cache entries (8B)";
    for (unsigned n = 0; n <= core::MergeCurve::kMaxEntries; ++n)
        figure.xLabels.push_back(std::to_string(n));
    for (std::size_t ti = 0; ti < traces.size(); ++ti) {
        Series series;
        series.label = traces.traces()[ti].name();
        for (unsigned n = 0; n <= core::MergeCurve::kMaxEntries; ++n)
            series.values.push_back(value(ti, n));
        figure.series.push_back(std::move(series));
    }
    appendAverage(figure);
    return figure;
}

} // namespace

const Series&
FigureData::get(const std::string& label) const
{
    for (const Series& s : series) {
        if (s.label == label)
            return s;
    }
    fatal("figure '" + title + "' has no series '" + label + "'");
}

void
appendAverage(FigureData& figure)
{
    if (figure.series.empty())
        return;
    Series average;
    average.label = "average";
    std::size_t points = figure.series.front().values.size();
    for (std::size_t i = 0; i < points; ++i) {
        double sum = 0.0;
        for (const Series& s : figure.series)
            sum += s.values[i];
        average.values.push_back(
            sum / static_cast<double>(figure.series.size()));
    }
    figure.series.push_back(std::move(average));
}

FigureData
figure1WritesToDirtyVsLineSize(const TraceSet& traces)
{
    return resultSweep<unsigned>(
        "Figure 1: writes to already-dirty lines, 8KB write-back "
        "caches",
        "line size", standardLineSizes(), lineLabel(), traces,
        wbByLine(), [](const RunResult& r) {
            return r.percentWritesToDirtyLines();
        });
}

FigureData
figure2WritesToDirtyVsCacheSize(const TraceSet& traces)
{
    return resultSweep<Count>(
        "Figure 2: writes to already-dirty lines, 16B lines",
        "cache size", standardCacheSizes(), sizeLabel(), traces,
        wbBySize(), [](const RunResult& r) {
            return r.percentWritesToDirtyLines();
        });
}

FigureData
storePipelineComparison(const TraceSet& traces)
{
    FigureData figure;
    figure.title = "Figures 3/4: store-scheme CPI overhead, 8KB/16B";
    figure.xAxis = "benchmark";
    for (const trace::Trace& t : traces.traces())
        figure.xLabels.push_back(t.name());

    CacheConfig config = makeConfig(kBaseCacheSize, kBaseLineSize,
                                    WriteHitPolicy::WriteBack,
                                    WriteMissPolicy::FetchOnWrite);
    const std::vector<core::StoreScheme> schemes = {
        core::StoreScheme::WriteThroughDirect,
        core::StoreScheme::ProbeThenWrite,
        core::StoreScheme::DelayedWrite,
    };
    // Grid: scheme-major, then trace, so each series is one slice.
    const std::vector<trace::Trace>& ts = traces.traces();
    std::size_t nt = ts.size();
    std::vector<double> overhead(schemes.size() * nt);
    fanOut("store-pipeline comparison", overhead.size(),
           [&](std::size_t i) {
               overhead[i] = core::simulateStorePipeline(
                                 ts[i % nt], config, schemes[i / nt])
                                 .cpiOverhead();
           });
    for (std::size_t si = 0; si < schemes.size(); ++si) {
        Series series;
        series.label = core::name(schemes[si]);
        series.values.assign(overhead.begin() + si * nt,
                             overhead.begin() + (si + 1) * nt);
        figure.series.push_back(std::move(series));
    }
    return figure;
}

FigureData
figure5WriteBufferSweep(const TraceSet& traces)
{
    FigureData figure;
    figure.title = "Figure 5: coalescing write buffer merges vs CPI "
                   "(8 entries x 16B)";
    figure.xAxis = "cycles per write retire";

    std::vector<Cycles> retires;
    for (Cycles n = 0; n <= 48; n += 4)
        retires.push_back(n);
    for (Cycles n : retires)
        figure.xLabels.push_back(std::to_string(n));

    // Grid: retire-interval-major, then trace; the sums below run in
    // trace order, as a serial loop would.
    const std::vector<trace::Trace>& ts = traces.traces();
    std::size_t nt = ts.size();
    std::vector<double> merged_pct(retires.size() * nt);
    std::vector<double> stall_cpi(retires.size() * nt);
    fanOut("write-buffer sweep", merged_pct.size(), [&](std::size_t i) {
        core::WriteBufferConfig config;
        config.entries = 8;
        config.entryBytes = 16;
        config.retireInterval = retires[i / nt];
        core::CoalescingWriteBuffer buffer(config);
        // The paper ignores cache-miss time here: the clock advances
        // one cycle per instruction plus buffer stalls.
        Cycles now = 0;
        Count instructions = 0;
        for (const trace::TraceRecord& record : ts[i % nt]) {
            now += record.instrDelta;
            instructions += record.instrDelta;
            if (record.type == trace::RefType::Write)
                now += buffer.write(record.addr, now);
        }
        merged_pct[i] = 100.0 * buffer.mergeFraction();
        stall_cpi[i] = stats::ratio(buffer.stallCycles(), instructions);
    });

    Series merged{"% merged (8-entry buffer)", {}};
    Series stall{"write buffer full stall CPI", {}};
    auto n_traces = static_cast<double>(nt);
    for (std::size_t ri = 0; ri < retires.size(); ++ri) {
        double merged_sum = 0.0;
        double stall_sum = 0.0;
        for (std::size_t ti = 0; ti < nt; ++ti) {
            merged_sum += merged_pct[ri * nt + ti];
            stall_sum += stall_cpi[ri * nt + ti];
        }
        merged.values.push_back(merged_sum / n_traces);
        stall.values.push_back(stall_sum / n_traces);
    }
    figure.series.push_back(std::move(merged));
    figure.series.push_back(std::move(stall));

    // Reference line: percent merged by a 6-entry write cache.
    double wc_sum = 0.0;
    for (const core::MergeCurve& curve : mergeCurves(traces))
        wc_sum += curve.removalPct(6);
    Series reference{"% merged by 6-entry write cache", {}};
    reference.values.assign(retires.size(), wc_sum / n_traces);
    figure.series.push_back(std::move(reference));
    return figure;
}

FigureData
figure7WriteCacheAbsolute(const TraceSet& traces)
{
    std::vector<core::MergeCurve> curves = mergeCurves(traces);
    return entrySweep(
        "Figure 7: write cache absolute traffic reduction", traces,
        [&](std::size_t ti, unsigned entries) {
            return curves[ti].removalPct(entries);
        });
}

FigureData
figure8WriteCacheRelative(const TraceSet& traces)
{
    std::vector<core::MergeCurve> curves = mergeCurves(traces);
    FigureData wb = writeBackRemoval(traces, {4 * 1024});
    return entrySweep(
        "Figure 8: write cache reduction relative to a 4KB "
        "write-back cache",
        traces, [&](std::size_t ti, unsigned entries) {
            double wb_pct = wb.series[ti].values[0];
            if (wb_pct == 0.0)
                return 0.0;
            return 100.0 * curves[ti].removalPct(entries) / wb_pct;
        });
}

FigureData
figure9WriteCacheVsWbSize(const TraceSet& traces)
{
    FigureData figure;
    figure.title = "Figure 9: relative traffic reduction of a write "
                   "cache vs write-back cache size";
    figure.xAxis = "write-back cache size";
    std::vector<Count> sizes;
    for (Count kb = 1; kb <= 64; kb *= 2)
        sizes.push_back(kb * 1024);
    for (Count s : sizes)
        figure.xLabels.push_back(stats::formatSize(s));

    std::vector<core::MergeCurve> curves = mergeCurves(traces);
    FigureData wb_pcts = writeBackRemoval(traces, sizes);
    for (unsigned entries : {15u, 5u, 1u}) {
        Series series;
        series.label = std::to_string(entries) + " entry write cache";
        for (std::size_t si = 0; si < sizes.size(); ++si) {
            double sum = 0.0;
            for (std::size_t ti = 0; ti < traces.size(); ++ti) {
                double wb = wb_pcts.series[ti].values[si];
                double wc = curves[ti].removalPct(entries);
                sum += wb > 0.0 ? 100.0 * wc / wb : 0.0;
            }
            series.values.push_back(
                sum / static_cast<double>(traces.size()));
        }
        figure.series.push_back(std::move(series));
    }
    return figure;
}

FigureData
figure10WriteMissShareVsCacheSize(const TraceSet& traces)
{
    return resultSweep<Count>(
        "Figure 10: write misses as a percent of all misses, 16B "
        "lines",
        "cache size", standardCacheSizes(), sizeLabel(), traces,
        wbBySize(), [](const RunResult& r) {
            return r.percentWriteMissesOfAllMisses();
        });
}

FigureData
figure11WriteMissShareVsLineSize(const TraceSet& traces)
{
    return resultSweep<unsigned>(
        "Figure 11: write misses as a percent of all misses, 8KB "
        "caches",
        "line size", standardLineSizes(), lineLabel(), traces,
        wbByLine(), [](const RunResult& r) {
            return r.percentWriteMissesOfAllMisses();
        });
}

std::vector<FigureData>
figure13WriteMissReductionVsCacheSize(const TraceSet& traces)
{
    return missReductionSweep<Count>(
        "Figure 13: write miss rate reductions, 16B lines",
        "cache size", standardCacheSizes(), sizeLabel(), traces,
        /*write_basis=*/true,
        [](Count size, WriteMissPolicy miss) {
            return makeConfig(size, kBaseLineSize,
                              WriteHitPolicy::WriteThrough, miss);
        });
}

std::vector<FigureData>
figure14TotalMissReductionVsCacheSize(const TraceSet& traces)
{
    return missReductionSweep<Count>(
        "Figure 14: total miss rate reductions, 16B lines",
        "cache size", standardCacheSizes(), sizeLabel(), traces,
        /*write_basis=*/false,
        [](Count size, WriteMissPolicy miss) {
            return makeConfig(size, kBaseLineSize,
                              WriteHitPolicy::WriteThrough, miss);
        });
}

std::vector<FigureData>
figure15WriteMissReductionVsLineSize(const TraceSet& traces)
{
    return missReductionSweep<unsigned>(
        "Figure 15: write miss rate reductions, 8KB caches",
        "line size", standardLineSizes(), lineLabel(), traces,
        /*write_basis=*/true,
        [](unsigned line, WriteMissPolicy miss) {
            return makeConfig(kBaseCacheSize, line,
                              WriteHitPolicy::WriteThrough, miss);
        });
}

std::vector<FigureData>
figure16TotalMissReductionVsLineSize(const TraceSet& traces)
{
    return missReductionSweep<unsigned>(
        "Figure 16: total miss rate reductions, 8KB caches",
        "line size", standardLineSizes(), lineLabel(), traces,
        /*write_basis=*/false,
        [](unsigned line, WriteMissPolicy miss) {
            return makeConfig(kBaseCacheSize, line,
                              WriteHitPolicy::WriteThrough, miss);
        });
}

bool
verifyFigure17PartialOrder(const TraceSet& traces, Count cache_size,
                           unsigned line_bytes,
                           std::vector<std::string>* violations)
{
    // All four policies per trace in one batch: write-through caches
    // throughout, so every policy is legal and comparisons are
    // policy-only.  Under the one-pass engine each trace is decoded
    // once for its four lanes.
    const std::vector<WriteMissPolicy> policies = {
        WriteMissPolicy::FetchOnWrite,
        WriteMissPolicy::WriteValidate,
        WriteMissPolicy::WriteAround,
        WriteMissPolicy::WriteInvalidate,
    };
    std::vector<Request> requests;
    for (const trace::Trace& t : traces.traces()) {
        for (WriteMissPolicy miss : policies) {
            requests.push_back(
                {&t,
                 makeConfig(cache_size, line_bytes,
                            WriteHitPolicy::WriteThrough, miss),
                 false});
        }
    }
    BatchOutcome outcome = runBatch(requests);
    if (!outcome.ok())
        fatal("figure 17 sweep failed: " +
              outcome.report.failures.front().message);
    auto misses = [&](std::size_t ti, std::size_t pi) {
        return outcome.results[ti * policies.size() + pi]
            .cache.countedMisses();
    };

    bool ok = true;
    for (std::size_t ti = 0; ti < traces.size(); ++ti) {
        const trace::Trace& t = traces.traces()[ti];
        Count fow = misses(ti, 0);
        Count wv = misses(ti, 1);
        Count wa = misses(ti, 2);
        Count wi = misses(ti, 3);
        auto check = [&](bool cond, const std::string& what) {
            if (cond)
                return;
            ok = false;
            if (violations) {
                violations->push_back(
                    t.name() + " @" + stats::formatSize(cache_size) +
                    "/" + std::to_string(line_bytes) + "B: " + what);
            }
        };
        check(wv <= wi, "write-validate > write-invalidate");
        check(wa <= wi, "write-around > write-invalidate");
        check(wi <= fow, "write-invalidate > fetch-on-write");
    }
    return ok;
}

namespace
{

/** Shared implementation of Figures 18/19. */
template <typename X>
FigureData
trafficComponents(const std::string& title, const std::string& x_axis,
                  const std::vector<X>& xs,
                  const std::function<std::string(X)>& x_label,
                  const TraceSet& traces,
                  const std::function<CacheConfig(X,
                                                  WriteHitPolicy)>&
                      config_for)
{
    FigureData figure;
    figure.title = title;
    figure.xAxis = x_axis;
    for (X x : xs)
        figure.xLabels.push_back(x_label(x));

    // Batch: trace-major, then x, then hit policy (WT, WB).
    std::vector<Request> requests;
    for (const trace::Trace& t : traces.traces()) {
        for (X x : xs) {
            requests.push_back(
                {&t, config_for(x, WriteHitPolicy::WriteThrough),
                 false});
            requests.push_back(
                {&t, config_for(x, WriteHitPolicy::WriteBack),
                 false});
        }
    }
    BatchOutcome outcome = runBatch(requests);
    if (!outcome.ok())
        fatal("traffic sweep failed: " +
              outcome.report.failures.front().message);

    std::size_t nx = xs.size();
    Series wt{"write-through", {}};
    Series wb{"write-back", {}};
    Series wm{"write misses", {}};
    Series rm{"read misses", {}};
    for (std::size_t xi = 0; xi < nx; ++xi) {
        double wt_sum = 0, wb_sum = 0, wm_sum = 0, rm_sum = 0;
        for (std::size_t ti = 0; ti < traces.size(); ++ti) {
            const RunResult& r_wt =
                outcome.results[ti * nx * 2 + xi * 2];
            const RunResult& r_wb =
                outcome.results[ti * nx * 2 + xi * 2 + 1];
            wt_sum += r_wt.transactionsPerInstruction();
            wb_sum += r_wb.transactionsPerInstruction();
            wm_sum += stats::ratio(r_wb.cache.writeMissFetches,
                                   r_wb.instructions);
            rm_sum += stats::ratio(r_wb.cache.readMisses,
                                   r_wb.instructions);
        }
        auto n = static_cast<double>(traces.size());
        wt.values.push_back(wt_sum / n);
        wb.values.push_back(wb_sum / n);
        wm.values.push_back(wm_sum / n);
        rm.values.push_back(rm_sum / n);
    }
    figure.series = {std::move(wt), std::move(wb), std::move(wm),
                     std::move(rm)};
    return figure;
}

/** Shared implementation of the dirty-victim sweeps (Figures 20-25). */
template <typename X>
FigureData
victimSweep(const std::string& title, const std::string& x_axis,
            const std::vector<X>& xs,
            const std::function<std::string(X)>& x_label,
            const TraceSet& traces,
            const std::function<CacheConfig(X)>& config_for,
            const std::function<double(const RunResult&)>& metric)
{
    return resultSweep<X>(title, x_axis, xs, x_label, traces,
                          config_for, metric,
                          /*flush_at_end=*/true);
}

} // namespace

FigureData
figure18TrafficVsCacheSize(const TraceSet& traces)
{
    return trafficComponents<Count>(
        "Figure 18: back-side transactions per instruction vs cache "
        "size (16B lines)",
        "cache size", standardCacheSizes(), sizeLabel(), traces,
        [](Count size, WriteHitPolicy hit) {
            return makeConfig(size, kBaseLineSize, hit,
                              WriteMissPolicy::FetchOnWrite);
        });
}

FigureData
figure19TrafficVsLineSize(const TraceSet& traces)
{
    return trafficComponents<unsigned>(
        "Figure 19: back-side transactions per instruction vs line "
        "size (8KB caches)",
        "line size", standardLineSizes(), lineLabel(), traces,
        [](unsigned line, WriteHitPolicy hit) {
            return makeConfig(kBaseCacheSize, line, hit,
                              WriteMissPolicy::FetchOnWrite);
        });
}

FigureData
figure20VictimsDirtyVsCacheSize(const TraceSet& traces,
                                bool flush_stop)
{
    return victimSweep<Count>(
        std::string("Figure 20: percent of victims dirty vs cache "
                    "size, 16B lines (") +
            (flush_stop ? "flush stop)" : "cold stop)"),
        "cache size", standardCacheSizes(), sizeLabel(), traces,
        wbBySize(), [flush_stop](const RunResult& r) {
            return r.percentVictimsDirty(flush_stop);
        });
}

FigureData
figure21BytesDirtyInDirtyVictimVsCacheSize(const TraceSet& traces,
                                           bool flush_stop)
{
    return victimSweep<Count>(
        std::string("Figure 21: percent of bytes dirty in a dirty "
                    "victim vs cache size, 16B lines (") +
            (flush_stop ? "flush stop)" : "cold stop)"),
        "cache size", standardCacheSizes(), sizeLabel(), traces,
        wbBySize(), [flush_stop](const RunResult& r) {
            return r.percentBytesDirtyInDirtyVictims(flush_stop);
        });
}

FigureData
figure22BytesDirtyPerVictimVsCacheSize(const TraceSet& traces)
{
    return victimSweep<Count>(
        "Figure 22: percent of bytes dirty per victim vs cache size, "
        "16B lines (flush stop)",
        "cache size", standardCacheSizes(), sizeLabel(), traces,
        wbBySize(), [](const RunResult& r) {
            return r.percentBytesDirtyPerVictim(true);
        });
}

FigureData
figure23VictimsDirtyVsLineSize(const TraceSet& traces,
                               bool flush_stop)
{
    return victimSweep<unsigned>(
        std::string("Figure 23: percent of victims dirty vs line "
                    "size, 8KB caches (") +
            (flush_stop ? "flush stop)" : "cold stop)"),
        "line size", standardLineSizes(), lineLabel(), traces,
        wbByLine(), [flush_stop](const RunResult& r) {
            return r.percentVictimsDirty(flush_stop);
        });
}

FigureData
figure24BytesDirtyInDirtyVictimVsLineSize(const TraceSet& traces,
                                          bool flush_stop)
{
    return victimSweep<unsigned>(
        std::string("Figure 24: percent of bytes dirty in a dirty "
                    "victim vs line size, 8KB caches (") +
            (flush_stop ? "flush stop)" : "cold stop)"),
        "line size", standardLineSizes(), lineLabel(), traces,
        wbByLine(), [flush_stop](const RunResult& r) {
            return r.percentBytesDirtyInDirtyVictims(flush_stop);
        });
}

FigureData
figure25BytesDirtyPerVictimVsLineSize(const TraceSet& traces)
{
    return victimSweep<unsigned>(
        "Figure 25: percent of bytes dirty per victim vs line size, "
        "8KB caches (flush stop)",
        "line size", standardLineSizes(), lineLabel(), traces,
        wbByLine(), [](const RunResult& r) {
            return r.percentBytesDirtyPerVictim(true);
        });
}

std::vector<std::pair<std::string, trace::TraceSummary>>
table1Characteristics(const TraceSet& traces)
{
    std::vector<std::pair<std::string, trace::TraceSummary>> rows;
    for (const trace::Trace& t : traces.traces())
        rows.emplace_back(t.name(), trace::summarize(t));
    return rows;
}

} // namespace jcache::sim
