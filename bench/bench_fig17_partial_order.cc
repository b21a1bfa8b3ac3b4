/**
 * @file
 * Verifies Figure 17 empirically: the partial order of fetch traffic
 * among the four write-miss policies —
 *
 *        write-validate <= write-invalidate <= fetch-on-write
 *        write-around   <= write-invalidate
 *
 * checked for every benchmark over the full size and line sweeps
 * (direct-mapped, where write-invalidate's corruption semantics
 * apply).
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
    unsigned checked = 0;
    unsigned failed = 0;
    std::vector<std::string> violations;

    for (Count size : sim::standardCacheSizes()) {
        if (!sim::verifyFigure17PartialOrder(traces, size, 16,
                                             &violations))
            ++failed;
        ++checked;
    }
    for (unsigned line : sim::standardLineSizes()) {
        if (!sim::verifyFigure17PartialOrder(traces, 8 * 1024, line,
                                             &violations))
            ++failed;
        ++checked;
    }

    std::cout << "Figure 17: partial order of fetch traffic\n"
              << "  write-validate <= write-invalidate <= "
                 "fetch-on-write;  write-around <= write-invalidate\n"
              << "  checked " << checked
              << " configurations x 6 benchmarks: "
              << (failed == 0 ? "ALL HOLD" : "VIOLATIONS FOUND")
              << "\n";
    for (const std::string& v : violations)
        std::cout << "  violation: " << v << "\n";

    return failed == 0 ? 0 : 1;
}
