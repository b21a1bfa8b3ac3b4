/**
 * @file
 * Unit tests of the benchmark's own arithmetic (src/measure.*): the
 * tail-percentile choice, goodput, open-loop lateness accounting and
 * the paper digest manifest check.  Run: perfbench_tests (exit 0 = pass).
 */

#include <algorithm>
#include <cmath>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "measure.hh"

using namespace perfbench;

namespace
{

int g_failures = 0;

#define CHECK(cond)                                                        \
    do {                                                                   \
        if (!(cond)) {                                                     \
            std::cerr << __FILE__ << ":" << __LINE__                       \
                      << ": CHECK failed: " #cond "\n";                    \
            ++g_failures;                                                  \
        }                                                                  \
    } while (0)

bool
near(double a, double b)
{
    return std::fabs(a - b) < 1e-9;
}

void
percentileChoice()
{
    // p95 of 200 samples leaves exactly 10 beyond it; of 199, only 9.
    // serve reports p95 of 500 responses: 25 beyond; p99 would need
    // 1000 samples for 10.
    CHECK(samplesBeyond(200, 95) == 10);
    CHECK(samplesBeyond(199, 95) == 9);
    CHECK(samplesBeyond(500, 95) == 25);
    CHECK(samplesBeyond(500, 99) == 5);
    CHECK(samplesBeyond(1000, 99) == 10);
    CHECK(samplesBeyond(10000, 99.9) == 10);  // not 9: no rounding up
    CHECK(samplesBeyond(20, 50) == 10);
    CHECK(samplesBeyond(0, 50) == 0);
    CHECK(samplesBeyond(1, 50) == 0);

    std::vector<double> v;
    for (int i = 1; i <= 200; ++i)
        v.push_back(i);
    CHECK(percentile(v, 95) == 190.0);
    CHECK(percentile(v, 50) == 100.0);
    CHECK(percentile(v, 100) == 200.0);
    CHECK(percentile({}, 50) == 0.0);
    CHECK(median({3.0, 1.0, 2.0}) == 2.0);
    CHECK(median({4.0, 1.0, 2.0, 3.0}) == 2.5);
}

void
goodputArithmetic()
{
    std::vector<Outcome> out = {
        {true, 10.0, true},    // good
        {true, 100.0, true},   // exactly at the limit: good
        {true, 100.5, true},   // late
        {false, 5.0, true},    // refused (busy): a miss however fast
        {false, 0.0, false},   // never answered: a miss
        {true, 0.0, false},    // ok but unanswered cannot happen; a miss
    };
    CHECK(near(goodput(out, 100.0, 2.0), 1.0));
    CHECK(near(goodput(out, 1000.0, 1.0), 3.0));
    CHECK(goodput(out, 100.0, 0.0) == 0.0);
    CHECK(goodput({}, 100.0, 5.0) == 0.0);
}

/** A clock that only moves when told to. */
struct FakeClock
{
    double t = 0.0;
    double now() const { return t; }
    void sleepUntil(double s)
    {
        if (s > t)
            t = s;
    }
};

void
openLoopLateness()
{
    // Sends are due every 10 ms; the second send stalls the sender for
    // 35 ms, so the next sends go out late but stay due on schedule.
    std::vector<double> offsets = {0.000, 0.010, 0.020, 0.030, 0.060};
    FakeClock clock;
    std::vector<std::size_t> order;
    auto ledger = dispatchOpenLoop(offsets, clock, [&](std::size_t i) {
        order.push_back(i);
        if (i == 1)
            clock.t += 0.035;
    });
    CHECK(order.size() == 5);
    CHECK(ledger.size() == 5);
    CHECK(near(ledger[0].lateMs(), 0.0));
    CHECK(near(ledger[1].lateMs(), 0.0));
    CHECK(near(ledger[2].lateMs(), 25.0));  // sent at 45 ms, due at 20
    CHECK(near(ledger[3].lateMs(), 15.0));  // sent at 45 ms, due at 30
    CHECK(near(ledger[4].lateMs(), 0.0));   // schedule caught up
    for (std::size_t i = 0; i < ledger.size(); ++i)
        CHECK(near(ledger[i].scheduledSec, offsets[i]));
    // A response at 50 ms to the request due at 20 ms took 30 ms, not
    // the 5 ms since it was actually sent.
    CHECK(near(latencyFromSchedule(ledger[2], 0.050), 30.0));

    auto a = poissonArrivals(7, 20.0, 10.0);
    auto b = poissonArrivals(7, 20.0, 10.0);
    auto c = poissonArrivals(8, 20.0, 10.0);
    CHECK(a == b);
    CHECK(a != c);
    CHECK(a.size() == 200);
    CHECK(a.front() >= 0.0 && a.back() < 10.0);
    for (std::size_t i = 1; i < a.size(); ++i)
        CHECK(a[i] >= a[i - 1]);
    // Roughly as many arrivals in each half of the run.
    auto half = std::count_if(a.begin(), a.end(),
                              [](double t) { return t < 5.0; });
    CHECK(half > 70 && half < 130);
}

void
manifestCheck()
{
    std::string fig = "Figure 7\n  1 2 3\n";
    std::map<std::string, std::string> actual = {
        {"fig07", digestHex(fig)}, {"table1", digestHex("t1")}};
    auto expected = parseManifest(formatManifest(actual));
    CHECK(expected == actual);
    CHECK(driftedOutputs(expected, actual).empty());
    CHECK(digestHex("") == "cbf29ce484222325");  // FNV-1a-64 offset basis

    // One perturbed digest is named, and only it.
    auto perturbed = expected;
    perturbed["fig07"][0] = perturbed["fig07"][0] == '0' ? '1' : '0';
    auto drift = driftedOutputs(perturbed, actual);
    CHECK(drift.size() == 1 && drift[0] == "fig07");

    // Outputs missing on either side are named too.
    auto fewer = actual;
    fewer.erase("table1");
    CHECK(driftedOutputs(expected, fewer) ==
          std::vector<std::string>{"table1 (missing)"});
    CHECK(driftedOutputs(fewer, actual) ==
          std::vector<std::string>{"table1 (not in manifest)"});

    // Comments and blank lines are skipped; junk is refused.
    auto parsed = parseManifest("# header\n\nfig07 " + digestHex(fig) +
                                "  # trailing\n");
    CHECK(parsed.size() == 1 && parsed["fig07"] == digestHex(fig));
    bool threw = false;
    try {
        parseManifest("fig07 not-a-digest\n");
    } catch (const std::exception&) {
        threw = true;
    }
    CHECK(threw);
    threw = false;
    try {
        parseManifest("a 0123456789abcdef\na 0123456789abcdef\n");
    } catch (const std::exception&) {
        threw = true;
    }
    CHECK(threw);
}

} // namespace

int
main()
{
    percentileChoice();
    goodputArithmetic();
    openLoopLateness();
    manifestCheck();
    if (g_failures != 0) {
        std::cerr << g_failures << " check(s) failed\n";
        return 1;
    }
    std::cout << "perfbench measure tests passed\n";
    return 0;
}
