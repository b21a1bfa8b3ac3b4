/**
 * @file
 * The benchmark's own arithmetic: percentiles, goodput, the open-loop
 * arrival schedule and its lateness ledger, and the paper-figure digest
 * manifest.  Kept free of I/O and of the simulator so the unit tests in
 * perfbench/tests exercise exactly what the benchmark reports.
 */

#ifndef PERFBENCH_MEASURE_HH
#define PERFBENCH_MEASURE_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench
{

/** Samples a percentile must leave beyond it to be reported. */
inline constexpr std::size_t kMinTailSamples = 10;

/** Median of `samples` (mean of the middle two for even counts). */
double median(std::vector<double> samples);

/**
 * Nearest-rank percentile, `p` in [0, 100]: the smallest sample with at
 * least p% of the samples at or below it.  0 for an empty input.
 */
double percentile(std::vector<double> samples, double p);

/** Samples strictly beyond the nearest-rank percentile `p`. */
std::size_t samplesBeyond(std::size_t count, double p);

/** One answered or unanswered request of an open-loop run. */
struct Outcome
{
    /** The daemon answered with ok:true. */
    bool ok = false;
    /** Scheduled send to response; meaningless when !answered. */
    double latencyMs = 0.0;
    /** A response arrived at all (refusals are answered, not ok). */
    bool answered = false;
};

/**
 * Requests answered ok within `limitMs`, per second of `runSeconds`.
 * A failed, refused or unanswered request counts as a miss.
 */
double goodput(const std::vector<Outcome>& outcomes, double limitMs,
               double runSeconds);

/**
 * Seeded Poisson arrival offsets in seconds, sorted, all below
 * `durationSec`: exactly round(ratePerSec x durationSec) of them, each
 * uniform over the duration (a Poisson process given its count).
 */
std::vector<double> poissonArrivals(std::uint64_t seed, double ratePerSec,
                                    double durationSec);

/** When one request was due and when it actually went out. */
struct Dispatch
{
    double scheduledSec = 0.0;
    double sentSec = 0.0;
    /** How far the client ran behind its own schedule. */
    double lateMs() const { return 1000.0 * (sentSec - scheduledSec); }
};

/**
 * Drive an open-loop schedule: for each offset, wait until it is due,
 * then call `send(i)`.  A send that runs long does not shift later
 * offsets; the requests behind it go out late and the ledger records by
 * how much.  `clock` supplies now() in seconds since the schedule began
 * and sleepUntil(seconds); tests substitute a fake.
 */
template <typename Clock, typename Send>
std::vector<Dispatch>
dispatchOpenLoop(const std::vector<double>& offsets, Clock& clock,
                 Send&& send)
{
    std::vector<Dispatch> ledger;
    ledger.reserve(offsets.size());
    for (std::size_t i = 0; i < offsets.size(); ++i) {
        if (clock.now() < offsets[i])
            clock.sleepUntil(offsets[i]);
        Dispatch d;
        d.scheduledSec = offsets[i];
        d.sentSec = clock.now();
        ledger.push_back(d);
        send(i);
    }
    return ledger;
}

/** Latency of a response measured from when its request was due. */
inline double
latencyFromSchedule(const Dispatch& dispatch, double responseSec)
{
    return 1000.0 * (responseSec - dispatch.scheduledSec);
}

/** A steady_clock view in seconds since construction. */
class SteadySeconds
{
  public:
    SteadySeconds() : start_(std::chrono::steady_clock::now()) {}
    double now() const
    {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start_)
            .count();
    }
    void sleepUntil(double seconds) const;

  private:
    std::chrono::steady_clock::time_point start_;
};

/** FNV-1a-64 of `text` as 16 lowercase hex digits. */
std::string digestHex(const std::string& text);

/** Parse "name digest" lines; '#' starts a comment.  Throws on junk. */
std::map<std::string, std::string> parseManifest(const std::string& text);

/** Render a manifest in the form parseManifest() reads. */
std::string formatManifest(const std::map<std::string, std::string>& m);

/**
 * Names whose digest differs from the manifest, plus names present on
 * only one side.  Empty when every output matches.
 */
std::vector<std::string>
driftedOutputs(const std::map<std::string, std::string>& expected,
               const std::map<std::string, std::string>& actual);

} // namespace perfbench

#endif // PERFBENCH_MEASURE_HH
