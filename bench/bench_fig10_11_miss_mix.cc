/**
 * @file
 * Reproduces Figures 10 and 11: write misses as a percentage of all
 * cache misses, versus cache size (16B lines) and versus line size
 * (8KB caches), under the fetch-on-write baseline.
 */

#include <fstream>
#include <iostream>

#include "figure_printer.hh"
#include "sim/experiments.hh"

int
main(int argc, char** argv)
{
    using namespace jcache;

    bench::applyJobsFromArgs(argc, argv);
    const auto& traces = sim::TraceSet::standard();
    sim::FigureData fig10 =
        sim::figure10WriteMissShareVsCacheSize(traces);
    sim::FigureData fig11 =
        sim::figure11WriteMissShareVsLineSize(traces);

    bench::printFigure(fig10);
    bench::printFigure(fig11);

    std::cout <<
        "Paper reference: write misses account for about one third "
        "of all misses on\naverage — stores are about as likely to "
        "miss as loads despite being ~2.4x rarer.\n";

    std::string csv_path = bench::csvPathFromArgs(argc, argv);
    if (!csv_path.empty()) {
        std::ofstream ofs(csv_path);
        bench::writeFigureCsv(fig10, ofs);
        bench::writeFigureCsv(fig11, ofs);
    }
    return 0;
}
