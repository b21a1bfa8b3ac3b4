/**
 * @file
 * Reproduces Figures 1 and 2: the percentage of writes landing on
 * already-dirty lines in a write-back cache — i.e. the write traffic
 * a write-back cache removes relative to write-through.
 *
 * Figure 1: 8KB caches, line size 4B-64B.
 * Figure 2: 16B lines, cache size 1KB-128KB.
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
    sim::FigureData fig1 =
        sim::figure1WritesToDirtyVsLineSize(traces);
    sim::FigureData fig2 =
        sim::figure2WritesToDirtyVsCacheSize(traces);

    bench::printFigure(fig1);
    bench::printFigure(fig2);

    std::cout <<
        "Paper reference: write-back removes the majority of writes "
        "on average;\ngrr/yacc/met reach >=80% at larger sizes while "
        "linpack/liver stay near the\n~50% two-doubles-per-16B-line "
        "spatial ceiling until the matrix fits (>=64KB).\n";

    std::string csv_path = bench::csvPathFromArgs(argc, argv);
    if (!csv_path.empty()) {
        std::ofstream ofs(csv_path);
        bench::writeFigureCsv(fig1, ofs);
        bench::writeFigureCsv(fig2, ofs);
    }
    return 0;
}
