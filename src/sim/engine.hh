/**
 * @file
 * The unified simulation entry point: Request in, Result out.
 *
 * Every caller that wants a replay — the CLI tools, the jcached
 * service, the figure experiments, store-backed sweeps — goes through
 * runOne() / runBatch().  Callers describe *what* to simulate (a
 * Request names a trace, a configuration and the end-of-run flush
 * choice); the engine decides *how*:
 *
 *  - Engine::OnePass (the default) groups a batch's requests by
 *    trace, deduplicates identical cells, and replays each trace once
 *    through all of its configurations via runTracePass() — the
 *    trace is decoded once instead of once per cell.
 *  - Engine::PerCell is the classic one-replay-per-cell path
 *    (runTrace() fanned out by ParallelExecutor).  No tool or service
 *    option selects it; it stays as the library-level reference that
 *    the engine differential tests and benches compare against.
 *
 * Both engines produce byte-identical Results for the same Request.
 */

#ifndef JCACHE_SIM_ENGINE_HH
#define JCACHE_SIM_ENGINE_HH

#include <string>
#include <vector>

#include "core/config.hh"
#include "sim/parallel.hh"
#include "sim/run.hh"
#include "trace/replay.hh"
#include "trace/trace.hh"

namespace jcache::sim
{

/** Which replay strategy executes a request. */
enum class Engine : std::uint8_t
{
    PerCell,  //!< one full trace replay per cell (reference path)
    OnePass,  //!< decode the trace once, feed every cell per block
};

/** The engine used when a caller expresses no preference. */
inline constexpr Engine kDefaultEngine = Engine::OnePass;

/**
 * One simulation request: what to replay, not how.
 *
 * The reference stream comes in one of two forms.  `trace` is the
 * classic in-memory form and is what Engine::PerCell requires.
 * `source` is any block-decodable stream — typically an mmap'd
 * replay cache resolved through TraceRepository — which the one-pass
 * engine replays without materializing the records.  At least one
 * must be set; when both are, they must describe the same records
 * (the one-pass engine prefers `source`).
 */
struct Request
{
    /** In-memory records; must outlive the call when set. */
    const trace::Trace* trace = nullptr;

    core::CacheConfig config;

    /** Drain dirty lines at end of trace (flush-stop statistics). */
    bool flushAtEnd = false;

    /** Block stream to replay; must outlive the call when set. */
    const trace::ReplaySource* source = nullptr;
};

/**
 * What one request produces.  An alias: the redesign unified the
 * entry points, not the result type every renderer already consumes.
 */
using Result = RunResult;

/** Knobs for runBatch(). */
struct BatchOptions
{
    Engine engine = kDefaultEngine;

    /** Worker threads; 0 selects defaultJobs(). */
    unsigned jobs = 0;

    /** Optional completion callback, (done, total) in requests. */
    ProgressFn progress = nullptr;
};

/** Results plus observability of one batch. */
struct BatchOutcome
{
    /** One Result per request, ordered by request index. */
    std::vector<Result> results;

    /**
     * Per-request timings and failures.  Under Engine::OnePass a
     * request's wall time is its share of the pass that computed it
     * (a pass serves many requests at once).
     */
    SweepReport report;

    /** True when every request completed without throwing. */
    bool ok() const { return report.allSucceeded(); }
};

/**
 * Execute one request synchronously on the calling thread.
 *
 * @throws util::FatalError via config validation; any replay
 *         exception propagates.
 */
Result runOne(const Request& request, Engine engine = kDefaultEngine);

/**
 * Execute a batch of requests across a worker pool.
 *
 * Results are keyed by request index, so output is bit-for-bit
 * independent of thread count and engine.  A request whose replay
 * throws fails alone — its slot holds a default Result and the
 * failure is recorded in the report.
 */
BatchOutcome runBatch(const std::vector<Request>& requests,
                      const BatchOptions& options = {});

} // namespace jcache::sim

#endif // JCACHE_SIM_ENGINE_HH
