/**
 * @file
 * Reproduces Table 1: test program characteristics — dynamic
 * instructions, data reads, data writes, total references — for the
 * six reconstructed benchmarks.
 */

#include <iostream>

#include "figure_printer.hh"
#include "sim/experiments.hh"
#include "stats/table.hh"

int
main(int argc, char** argv)
{
    using namespace jcache;

    bench::applyJobsFromArgs(argc, argv);
    const auto& traces = sim::TraceSet::standard();
    auto rows = sim::table1Characteristics(traces);

    stats::TextTable table(
        "Table 1: test program characteristics (reconstructed "
        "workloads)");
    table.setHeader({"program", "dyn. instr", "data reads",
                     "data writes", "total refs", "ld/st", "refs/instr"});

    trace::TraceSummary total;
    for (const auto& [name, summary] : rows) {
        table.addRow({name, std::to_string(summary.instructions),
                      std::to_string(summary.reads),
                      std::to_string(summary.writes),
                      std::to_string(summary.references()),
                      stats::formatFixed(summary.loadStoreRatio(), 2),
                      stats::formatFixed(summary.refsPerInstruction(),
                                         2)});
        total.instructions += summary.instructions;
        total.reads += summary.reads;
        total.writes += summary.writes;
    }
    table.addSeparator();
    table.addRow({"total", std::to_string(total.instructions),
                  std::to_string(total.reads),
                  std::to_string(total.writes),
                  std::to_string(total.references()),
                  stats::formatFixed(total.loadStoreRatio(), 2),
                  stats::formatFixed(total.refsPerInstruction(), 2)});
    table.print(std::cout);

    std::cout << "\nPaper (Table 1): 484.5M instr, 132.8M reads, "
                 "54.8M writes; loads:stores ~2.4:1.\n"
                 "Reconstructed workloads are ~10-100x shorter by "
                 "design; ratios are the comparable quantity.\n";
    return 0;
}
