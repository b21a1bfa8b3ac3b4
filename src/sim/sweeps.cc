/**
 * @file
 * Implementation of sweep axes, grid builders and the shared trace
 * set.
 */

#include "sim/sweeps.hh"

#include <mutex>

#include "stats/table.hh"
#include "telemetry/trace_writer.hh"
#include "util/logging.hh"

namespace jcache::sim
{

std::vector<Count>
standardCacheSizes()
{
    std::vector<Count> sizes;
    for (Count kb = 1; kb <= 128; kb *= 2)
        sizes.push_back(kb * 1024);
    return sizes;
}

std::vector<unsigned>
standardLineSizes()
{
    return {4, 8, 16, 32, 64};
}

std::vector<std::pair<core::WriteHitPolicy, core::WriteMissPolicy>>
legalPolicyPairs()
{
    using core::WriteHitPolicy;
    using core::WriteMissPolicy;
    return {
        {WriteHitPolicy::WriteBack, WriteMissPolicy::FetchOnWrite},
        {WriteHitPolicy::WriteBack, WriteMissPolicy::WriteValidate},
        {WriteHitPolicy::WriteThrough, WriteMissPolicy::FetchOnWrite},
        {WriteHitPolicy::WriteThrough, WriteMissPolicy::WriteValidate},
        {WriteHitPolicy::WriteThrough, WriteMissPolicy::WriteAround},
        {WriteHitPolicy::WriteThrough,
         WriteMissPolicy::WriteInvalidate},
    };
}

TraceSet::TraceSet(const workloads::WorkloadConfig& config)
    : TraceSet(config, workloads::benchmarkNames())
{}

TraceSet::TraceSet(const workloads::WorkloadConfig& config,
                   const std::vector<std::string>& names)
{
    for (const std::string& name : names) {
        telemetry::Span span("trace.generate", "sim");
        auto workload = workloads::makeWorkload(name, config);
        traces_.push_back(workloads::generateTrace(*workload));
        span.arg("workload", traces_.back().name());
    }
}

const trace::Trace&
TraceSet::get(const std::string& name) const
{
    if (const trace::Trace* t = find(name))
        return *t;
    fatal("no trace named " + name);
}

const trace::Trace*
TraceSet::find(const std::string& name) const
{
    for (const trace::Trace& t : traces_) {
        if (t.name() == name)
            return &t;
    }
    return nullptr;
}

namespace
{

std::once_flag standard_once;
const TraceSet* standard_instance = nullptr;

std::once_flag extended_once;
const TraceSet* extended_instance = nullptr;

} // namespace

const TraceSet&
TraceSet::standard()
{
    // Intentionally leaked: workers may still hold references at
    // static-destruction time, and the set lives for the process
    // anyway.
    std::call_once(standard_once,
                   [] { standard_instance = new TraceSet(); });
    return *standard_instance;
}

const TraceSet&
TraceSet::extended()
{
    // Leaked for the same reason as standard().
    std::call_once(extended_once, [] {
        extended_instance =
            new TraceSet({}, workloads::allWorkloadNames());
    });
    return *extended_instance;
}

AxisPoints
buildAxisPoints(const std::string& axis,
                const core::CacheConfig& base)
{
    AxisPoints points;
    if (axis == "size") {
        for (Count size : standardCacheSizes()) {
            core::CacheConfig c = base;
            c.sizeBytes = size;
            points.configs.push_back(c);
            points.labels.push_back(stats::formatSize(size));
        }
    } else if (axis == "line") {
        for (unsigned line : standardLineSizes()) {
            core::CacheConfig c = base;
            c.lineBytes = line;
            points.configs.push_back(c);
            points.labels.push_back(std::to_string(line) + "B");
        }
    } else if (axis == "assoc") {
        for (unsigned ways : {1u, 2u, 4u, 8u}) {
            core::CacheConfig c = base;
            c.assoc = ways;
            points.configs.push_back(c);
            points.labels.push_back(std::to_string(ways) + "-way");
        }
    } else {
        fatal("unknown sweep axis: " + axis + " (use size|line|assoc)");
    }
    return points;
}

} // namespace jcache::sim
