#include "measure.hh"

#include <algorithm>
#include <cmath>
#include <random>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "util/digest.hh"

namespace perfbench
{

double
median(std::vector<double> samples)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    std::size_t n = samples.size();
    return n % 2 == 1 ? samples[n / 2]
                      : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

namespace
{

/** 1-based nearest rank of percentile `p` among `count` samples. */
std::size_t
nearestRank(std::size_t count, double p)
{
    // The epsilon keeps 99.9% of 10000 at rank 9990, not 9991.
    auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(count) - 1e-9));
    return std::clamp<std::size_t>(rank, 1, std::max<std::size_t>(count, 1));
}

} // namespace

double
percentile(std::vector<double> samples, double p)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    return samples[nearestRank(samples.size(), p) - 1];
}

std::size_t
samplesBeyond(std::size_t count, double p)
{
    return count == 0 ? 0 : count - nearestRank(count, p);
}

double
goodput(const std::vector<Outcome>& outcomes, double limitMs,
        double runSeconds)
{
    if (runSeconds <= 0.0)
        return 0.0;
    std::size_t good = 0;
    for (const Outcome& o : outcomes) {
        if (o.answered && o.ok && o.latencyMs <= limitMs)
            ++good;
    }
    return static_cast<double>(good) / runSeconds;
}

std::vector<double>
poissonArrivals(std::uint64_t seed, double ratePerSec, double durationSec)
{
    // A Poisson process conditioned on its count: round(rate x duration)
    // arrivals, each uniform over the duration.  Every seed then offers
    // the same load, so goodput does not move with the draw's count.
    auto count = static_cast<std::size_t>(
        std::llround(std::max(0.0, ratePerSec * durationSec)));
    std::mt19937_64 rng(seed);
    std::uniform_real_distribution<double> at(0.0, durationSec);
    std::vector<double> offsets(count);
    for (double& t : offsets)
        t = at(rng);
    std::sort(offsets.begin(), offsets.end());
    return offsets;
}

void
SteadySeconds::sleepUntil(double seconds) const
{
    std::this_thread::sleep_until(
        start_ + std::chrono::duration_cast<
                     std::chrono::steady_clock::duration>(
                     std::chrono::duration<double>(seconds)));
}

std::string
digestHex(const std::string& text)
{
    return jcache::util::fnv1aHex(text);
}

std::map<std::string, std::string>
parseManifest(const std::string& text)
{
    std::map<std::string, std::string> out;
    std::istringstream in(text);
    std::string line;
    unsigned lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        auto hash = line.find('#');
        if (hash != std::string::npos)
            line.resize(hash);
        std::istringstream fields(line);
        std::string name;
        std::string digest;
        std::string extra;
        if (!(fields >> name))
            continue;
        if (!(fields >> digest) || (fields >> extra) ||
            digest.size() != 16 ||
            digest.find_first_not_of("0123456789abcdef") !=
                std::string::npos ||
            out.count(name) != 0) {
            throw std::runtime_error("manifest line " +
                                     std::to_string(lineno) +
                                     " is not '<name> <16 hex digits>'");
        }
        out[name] = digest;
    }
    return out;
}

std::string
formatManifest(const std::map<std::string, std::string>& m)
{
    std::string text;
    for (const auto& [name, digest] : m)
        text += name + " " + digest + "\n";
    return text;
}

std::vector<std::string>
driftedOutputs(const std::map<std::string, std::string>& expected,
               const std::map<std::string, std::string>& actual)
{
    std::vector<std::string> drifted;
    for (const auto& [name, digest] : expected) {
        auto it = actual.find(name);
        if (it == actual.end())
            drifted.push_back(name + " (missing)");
        else if (it->second != digest)
            drifted.push_back(name);
    }
    for (const auto& [name, digest] : actual) {
        if (expected.count(name) == 0)
            drifted.push_back(name + " (not in manifest)");
    }
    return drifted;
}

} // namespace perfbench
