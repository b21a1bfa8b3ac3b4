/**
 * @file
 * Sweep axes, grid builders and the shared trace set.
 *
 * The paper sweeps two axes: cache size 1KB-128KB at 16B lines, and
 * line size 4B-64B at 8KB.  TraceSet generates the six benchmark
 * traces once and shares them across every experiment in a process
 * (trace generation costs far more than a replay); construction of the
 * shared instance is guarded by std::once_flag so the first use may
 * come from any worker thread of the parallel executor.
 */

#ifndef JCACHE_SIM_SWEEPS_HH
#define JCACHE_SIM_SWEEPS_HH

#include <string>
#include <utility>
#include <vector>

#include "sim/parallel.hh"
#include "trace/trace.hh"
#include "workloads/workload.hh"

namespace jcache::sim
{

/** 1KB..128KB, the paper's cache-size axis (Figures 2, 10, 13, ...). */
std::vector<Count> standardCacheSizes();

/** 4B..64B, the paper's line-size axis (Figures 1, 11, 15, ...). */
std::vector<unsigned> standardLineSizes();

/**
 * Every legal (hit, miss) policy pair: write-back only combines with
 * the allocating miss policies, write-through with all four — six
 * pairs, the full Figure 12 matrix after the paper's exclusions.
 */
std::vector<std::pair<core::WriteHitPolicy, core::WriteMissPolicy>>
legalPolicyPairs();

/**
 * A set of workload traces, generated once.  The default construction
 * covers the six Table 1 benchmarks; a name list selects any
 * registered workloads.
 */
class TraceSet
{
  public:
    explicit TraceSet(const workloads::WorkloadConfig& config = {});

    /** Generate exactly the named workloads, in the given order. */
    TraceSet(const workloads::WorkloadConfig& config,
             const std::vector<std::string>& names);

    const std::vector<trace::Trace>& traces() const { return traces_; }

    /** Trace by benchmark name; throws FatalError if unknown. */
    const trace::Trace& get(const std::string& name) const;

    /** Trace by name, or nullptr when the set holds no such trace. */
    const trace::Trace* find(const std::string& name) const;

    std::size_t size() const { return traces_.size(); }

    /**
     * Process-wide shared instance at scale 1.  Benches and tests use
     * this so the traces are generated exactly once per binary.
     * Thread-safe: construction happens under a std::once_flag, so
     * concurrent first calls from executor workers are well-defined.
     * Holds exactly the six Table 1 benchmarks, so every figure and
     * table reproduces the paper unchanged.
     */
    static const TraceSet& standard();

    /**
     * Process-wide shared instance of all nine registered workloads:
     * the six benchmarks followed by the production generators
     * (kvstore, bfs, marksweep).  The service pregenerates this set
     * so uploaded-trace and built-in requests see the same catalog.
     */
    static const TraceSet& extended();

  private:
    std::vector<trace::Trace> traces_;
};

/** One sweep axis expanded into concrete points with display labels. */
struct AxisPoints
{
    /** One configuration per sweep point, in axis order. */
    std::vector<core::CacheConfig> configs;

    /** Matching table-column labels ("1KB", "16B", "2-way", ...). */
    std::vector<std::string> labels;
};

/**
 * Expand a named sweep axis ("size", "line" or "assoc") from a base
 * configuration into concrete points.  jcache-sweep, jcache-client
 * and the service all expand through this one function so a swept
 * table is identical wherever it is computed.  Throws FatalError for
 * an unknown axis.
 */
AxisPoints buildAxisPoints(const std::string& axis,
                           const core::CacheConfig& base);

} // namespace jcache::sim

#endif // JCACHE_SIM_SWEEPS_HH
