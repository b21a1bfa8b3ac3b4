/**
 * @file
 * The `paper` workload: regenerate Table 1, Figures 1-25 and Table 3
 * in-process through sim/experiments and render each with TextTable.
 *
 * The six Table 1 traces are always generated at the library's default
 * seed, so every run reproduces the paper and is gated against the
 * committed digest manifest.  --seed permutes the order in which the
 * figure families run.  (Trace lengths move by up to a third between
 * workload seeds, grr and yacc most, which would put the seed's effect
 * on wall time far outside any useful regression bound.)
 */

#include <algorithm>
#include <functional>
#include <iostream>
#include <map>
#include <random>
#include <sstream>

#include "bench.hh"
#include "core/hw_cost.hh"
#include "measure.hh"
#include "sim/parallel.hh"
#include "spans.hh"
#include "stats/table.hh"

namespace perfbench
{

using namespace jcache;

namespace
{

/** A figure family: its name and how it computes and renders outputs. */
struct Family
{
    std::string name;
    std::function<void(const sim::TraceSet&, PaperOutputs&)> run;
};

/** Render one figure the way the bench binaries print it. */
std::string
renderFigure(const sim::FigureData& figure, int precision)
{
    stats::TextTable table(figure.title);
    std::vector<std::string> header;
    header.push_back(figure.xAxis);
    for (const std::string& x : figure.xLabels)
        header.push_back(x);
    table.setHeader(header);
    for (const sim::Series& s : figure.series) {
        if (s.label == "average")
            table.addSeparator();
        table.addRow(s.label, s.values, precision);
    }
    std::ostringstream os;
    table.print(os);
    return os.str();
}

/** Time `render()` as rendering and append its text as `name`. */
template <typename Render>
void
emit(PaperOutputs& out, const std::string& name, Render&& render)
{
    Scope span("stats.render");
    auto start = Clock::now();
    std::string text = render();
    out.renderSeconds += secondsSince(start);
    out.rendered.emplace_back(name, std::move(text));
}

void
emitFigure(PaperOutputs& out, const std::string& name,
           const sim::FigureData& figure, int precision = 1)
{
    emit(out, name, [&] { return renderFigure(figure, precision); });
}

void
table1(const sim::TraceSet& traces, PaperOutputs& out)
{
    auto rows = [&] {
        Scope span("experiments.table1");
        return sim::table1Characteristics(traces);
    }();
    emit(out, "table1", [&] {
        stats::TextTable table("Table 1: test program characteristics");
        table.setHeader({"program", "dyn. instr", "data reads",
                         "data writes", "total refs", "ld/st",
                         "refs/instr"});
        for (const auto& [name, s] : rows) {
            table.addRow({name, std::to_string(s.instructions),
                          std::to_string(s.reads),
                          std::to_string(s.writes),
                          std::to_string(s.references()),
                          stats::formatFixed(s.loadStoreRatio(), 2),
                          stats::formatFixed(s.refsPerInstruction(), 2)});
        }
        std::ostringstream os;
        table.print(os);
        return os.str();
    });
}

void
figure17(const sim::TraceSet& traces, PaperOutputs& out)
{
    std::vector<std::string> violations;
    unsigned failed = 0;
    {
        Scope span("experiments.fig17");
        for (Count size : sim::standardCacheSizes())
            failed += !sim::verifyFigure17PartialOrder(traces, size, 16,
                                                       &violations);
        for (unsigned line : sim::standardLineSizes())
            failed += !sim::verifyFigure17PartialOrder(
                traces, 8 * 1024, line, &violations);
    }
    emit(out, "fig17", [&] {
        std::string text = "Figure 17: partial order of fetch traffic: ";
        text += failed == 0 ? "ALL HOLD\n" : "VIOLATIONS FOUND\n";
        for (const std::string& v : violations)
            text += "  violation: " + v + "\n";
        return text;
    });
}

void
table3(const sim::TraceSet&, PaperOutputs& out)
{
    std::vector<std::pair<std::string, core::HwCost>> costs;
    {
        Scope span("experiments.table3");
        core::HwCostParams params;
        for (Count kb : {4u, 8u, 16u, 32u}) {
            core::CacheConfig config;
            config.sizeBytes = kb * 1024;
            config.lineBytes = 16;
            std::string label = stats::formatSize(config.sizeBytes);
            costs.emplace_back(label + "/16B WT",
                               core::writeThroughCost(config, params));
            costs.emplace_back(label + "/16B WB",
                               core::writeBackCost(config, params));
        }
    }
    emit(out, "table3", [&] {
        stats::TextTable table("Table 3: storage bits, WT vs WB");
        table.setHeader({"config", "data", "tags", "valid", "dirty",
                         "protect", "buffers", "total", "overhead%"});
        for (const auto& [label, c] : costs) {
            table.addRow({label, std::to_string(c.dataBits),
                          std::to_string(c.tagBits),
                          std::to_string(c.validBits),
                          std::to_string(c.dirtyBits),
                          std::to_string(c.protectionBits),
                          std::to_string(c.bufferBits),
                          std::to_string(c.totalBits()),
                          stats::formatFixed(
                              100.0 * c.overheadFraction(), 1)});
        }
        std::ostringstream os;
        table.print(os);
        return os.str();
    });
}

/** A family made of figure functions, each run under one span. */
template <typename Compute>
Family
figures(const std::string& name, int precision, Compute compute)
{
    return {name, [name, precision, compute](const sim::TraceSet& traces,
                                             PaperOutputs& out) {
                std::vector<std::pair<std::string, sim::FigureData>> figs;
                {
                    Scope span("experiments." + name);
                    figs = compute(traces);
                }
                for (const auto& [label, fig] : figs)
                    emitFigure(out, label, fig, precision);
            }};
}

using Figs = std::vector<std::pair<std::string, sim::FigureData>>;

void
addAll(Figs& figs, const std::string& prefix,
       const std::vector<sim::FigureData>& list)
{
    for (std::size_t i = 0; i < list.size(); ++i)
        figs.emplace_back(prefix + "_" + std::to_string(i + 1), list[i]);
}

const std::vector<Family>&
families()
{
    using TS = sim::TraceSet;
    static const std::vector<Family> kFamilies = {
        {"table1", table1},
        figures("fig01_02", 1,
                [](const TS& t) {
                    return Figs{
                        {"fig01", sim::figure1WritesToDirtyVsLineSize(t)},
                        {"fig02",
                         sim::figure2WritesToDirtyVsCacheSize(t)}};
                }),
        figures("fig03_04", 4,
                [](const TS& t) {
                    return Figs{
                        {"fig03_04", sim::storePipelineComparison(t)}};
                }),
        figures("fig05", 2,
                [](const TS& t) {
                    return Figs{{"fig05", sim::figure5WriteBufferSweep(t)}};
                }),
        figures("fig07_09", 1,
                [](const TS& t) {
                    return Figs{
                        {"fig07", sim::figure7WriteCacheAbsolute(t)},
                        {"fig08", sim::figure8WriteCacheRelative(t)},
                        {"fig09", sim::figure9WriteCacheVsWbSize(t)}};
                }),
        figures("fig10_11", 1,
                [](const TS& t) {
                    return Figs{
                        {"fig10",
                         sim::figure10WriteMissShareVsCacheSize(t)},
                        {"fig11",
                         sim::figure11WriteMissShareVsLineSize(t)}};
                }),
        figures("fig13_16", 1,
                [](const TS& t) {
                    Figs figs;
                    addAll(figs, "fig13",
                           sim::figure13WriteMissReductionVsCacheSize(t));
                    addAll(figs, "fig14",
                           sim::figure14TotalMissReductionVsCacheSize(t));
                    addAll(figs, "fig15",
                           sim::figure15WriteMissReductionVsLineSize(t));
                    addAll(figs, "fig16",
                           sim::figure16TotalMissReductionVsLineSize(t));
                    return figs;
                }),
        {"fig17", figure17},
        figures("fig18_19", 4,
                [](const TS& t) {
                    return Figs{
                        {"fig18", sim::figure18TrafficVsCacheSize(t)},
                        {"fig19", sim::figure19TrafficVsLineSize(t)}};
                }),
        figures("fig20_25", 1,
                [](const TS& t) {
                    return Figs{
                        {"fig20_cold",
                         sim::figure20VictimsDirtyVsCacheSize(t, false)},
                        {"fig20_flush",
                         sim::figure20VictimsDirtyVsCacheSize(t, true)},
                        {"fig21_cold",
                         sim::figure21BytesDirtyInDirtyVictimVsCacheSize(
                             t, false)},
                        {"fig21_flush",
                         sim::figure21BytesDirtyInDirtyVictimVsCacheSize(
                             t, true)},
                        {"fig22",
                         sim::figure22BytesDirtyPerVictimVsCacheSize(t)},
                        {"fig23",
                         sim::figure23VictimsDirtyVsLineSize(t, true)},
                        {"fig24",
                         sim::figure24BytesDirtyInDirtyVictimVsLineSize(
                             t, true)},
                        {"fig25",
                         sim::figure25BytesDirtyPerVictimVsLineSize(t)}};
                }),
        {"table3", table3},
    };
    return kFamilies;
}

/** Seeded family order: the only thing --seed changes for `paper`. */
std::vector<std::size_t>
familyOrder(std::uint64_t seed)
{
    std::vector<std::size_t> order(families().size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::mt19937_64 rng(mixSeed(seed, 1));
    std::shuffle(order.begin(), order.end(), rng);
    return order;
}

std::map<std::string, std::string>
digests(const PaperOutputs& out)
{
    std::map<std::string, std::string> d;
    for (const auto& [name, text] : out.rendered)
        d[name] = digestHex(text);
    return d;
}

/** Build the six-trace set `reps` times; returns the last, times out. */
std::unique_ptr<sim::TraceSet>
buildTraceSet(unsigned reps, std::vector<double>& seconds)
{
    std::unique_ptr<sim::TraceSet> traces;
    for (unsigned i = 0; i < reps; ++i) {
        traces.reset();
        Scope span("workloads.trace_set");
        auto start = Clock::now();
        traces = std::make_unique<sim::TraceSet>();
        seconds.push_back(secondsSince(start));
    }
    return traces;
}

/** The manifest gate: every rendered output matches its digest. */
void
checkManifest(const Options& opt, const PaperOutputs& out, Report& report)
{
    ++report.attempted;
    auto actual = digests(out);
    auto drifted = driftedOutputs(parseManifest(readFile(opt.manifest)),
                                  actual);
    for (const std::string& name : drifted)
        std::cerr << "paper: output drifted from manifest: " << name
                  << "\n";
    report.failed += !drifted.empty();
    report.gate(drifted.empty(),
                std::to_string(drifted.size()) +
                    " paper outputs drifted from the manifest");
}

} // namespace

const std::vector<std::string>&
paperFamilies()
{
    static const std::vector<std::string> kNames = [] {
        std::vector<std::string> names;
        for (const Family& f : families())
            names.push_back(f.name);
        return names;
    }();
    return kNames;
}

PaperOutputs
regeneratePaper(const sim::TraceSet& traces,
                const std::vector<std::size_t>& order)
{
    Scope span("paper.regenerate");
    PaperOutputs out;
    for (std::size_t index : order) {
        const Family& family = families()[index];
        auto start = Clock::now();
        family.run(traces, out);
        out.familySeconds.emplace_back(family.name, secondsSince(start));
    }
    return out;
}

PassFacts
runPaper(const Options& opt, const PassPlan& plan, Report& report)
{
    sim::setDefaultJobs(opt.threads);
    std::vector<double> setup;
    // Half the set-ups before the timed part and half after it, so their
    // median spans the run, not one moment of the host's load.
    auto traces = buildTraceSet((plan.setupReps + 1) / 2, setup);
    auto order = familyOrder(opt.seed);

    PassFacts facts;
    std::vector<double> walls;
    // Seconds of each family, one per regeneration.
    std::map<std::string, std::vector<double>> familySeconds;
    double cpu = processCpuSeconds();
    auto start = Clock::now();
    // Repeat while another regeneration still fits in the plan's time.
    while (walls.empty() ||
           secondsSince(start) + walls.back() <= plan.seconds) {
        auto rep = Clock::now();
        PaperOutputs out = regeneratePaper(*traces, order);
        walls.push_back(secondsSince(rep));
        for (const auto& [name, seconds] : out.familySeconds)
            familySeconds[name].push_back(seconds);
        if (walls.size() == 1) {
            checkManifest(opt, out, report);
            facts.paper = std::move(out);
        } else {
            ++report.attempted;
            bool same = digests(out) == digests(*facts.paper);
            report.failed += !same;
            report.gate(same, "paper outputs differ between repetitions");
        }
    }
    facts.cpuSeconds = processCpuSeconds() - cpu;
    traces.reset();  // one trace set at a time, as a user would hold
    buildTraceSet(plan.setupReps / 2, setup);
    // A regeneration's time is the sum of its families' median times, so
    // a burst of host load that slows one family in one regeneration
    // does not carry the whole regeneration with it.
    facts.wallSeconds = 0.0;
    for (const auto& [name, seconds] : familySeconds)
        facts.wallSeconds += median(seconds);

    std::size_t outputs = facts.paper->rendered.size();
    double wall = facts.wallSeconds;
    report.e2e("setup_s", median(setup), "s", setup.size());
    report.e2e("wall_s", wall, "s", walls.size());
    report.e2e("goodput_rps", static_cast<double>(outputs) / wall, "1/s",
               walls.size());
    report.e2e("peak_rss_mb", peakRssMb(), "MiB", 1);
    std::cerr << "paper: " << outputs << " outputs per regeneration, "
              << walls.size() << " regenerations at " << opt.threads
              << " threads\n";
    return facts;
}

/** Digests of a fresh regeneration, in manifest form. */
std::string
paperManifest(const Options& opt)
{
    sim::setDefaultJobs(opt.threads);
    sim::TraceSet traces;
    return formatManifest(digests(
        regeneratePaper(traces, familyOrder(opt.seed))));
}

} // namespace perfbench
