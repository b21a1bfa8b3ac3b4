/**
 * @file
 * One-pass multi-configuration trace replay.
 *
 * runTrace() decodes the trace once per cache configuration; a sweep
 * over a 32-cell grid therefore decodes the same records 32 times
 * and streams a fresh cache image through memory for every cell.
 * runTracePass() inverts the loop: it walks the trace in blocks
 * (trace/blocks.hh) and feeds each block to every configuration
 * before moving on, so the record stream is read once and all lane
 * state stays hot.
 *
 * Three lane kinds share that outer loop:
 *
 *  - **Size stacks** — fast-lane cells that differ only in size,
 *    under a policy pair for which a smaller direct-mapped cache's
 *    lines are always a subset of a larger one's (WB +
 *    fetch-on-write; WT + fetch-on-write, write-around or
 *    write-invalidate).  One probe walk per piece, smallest size
 *    first, serves every size; the stack reads the block's records
 *    directly, so it needs no decode (docs/ENGINE.md).
 *  - **Fast lanes** — the other direct-mapped, byte-granularity
 *    configurations (write-validate, line-size sweeps, single
 *    sizes).  State is kept as structure-of-arrays (tags / valid
 *    masks / dirty masks), a sentinel tag makes the hit test a single
 *    compare, and the write policies are template parameters so
 *    policy dispatch happens once per block instead of once per
 *    access.  Lanes with the same line
 *    size additionally share one decode of each block into
 *    line-aligned pieces, and lanes that also share a write policy
 *    replay in vector batches: four lanes at a time, with the tag
 *    compare / valid test / hot counters as AVX2 vector operations
 *    (util/simd.hh; a byte-identical scalar path serves non-AVX2
 *    hardware, JCACHE_NO_AVX2, and the remainder lanes).
 *  - **Generic lanes** — anything else (assoc > 1, or a valid-bit
 *    granularity above one byte) falls back to the reference
 *    DataCache fed record by record, so runTracePass() accepts every
 *    configuration runTrace() does.
 *
 * The record stream itself comes from a trace::ReplaySource: either
 * zero-copy views into an in-memory Trace, or blocks decoded lazily
 * from an mmap'd replay cache file (trace/replay_cache.hh), so
 * sweeps can replay from disk without regenerating workloads.
 *
 * All paths reproduce DataCache's counter and traffic accounting
 * exactly; tests/test_engine_differential.cc holds the engine to
 * byte-identical RunResults against runTrace(), across scalar vs
 * vector replay and in-memory vs mapped sources.
 */

#ifndef JCACHE_SIM_MULTICONFIG_HH
#define JCACHE_SIM_MULTICONFIG_HH

#include <cstddef>
#include <vector>

#include "core/config.hh"
#include "sim/run.hh"
#include "trace/blocks.hh"
#include "trace/replay.hh"
#include "trace/trace.hh"

namespace jcache::sim
{

/** One lane of a one-pass replay: a configuration plus its flush. */
struct LaneSpec
{
    core::CacheConfig config;

    /** Drain dirty lines at end of trace (flush-stop statistics). */
    bool flushAtEnd = false;
};

/**
 * Can this configuration use the specialized fast lane?
 *
 * True for direct-mapped caches with byte-granularity valid bits —
 * the combination every figure in the paper sweeps.  Other
 * configurations still run, via the generic DataCache lane.
 */
bool fastLaneEligible(const core::CacheConfig& config);

/** How the lanes of one pass replay: as size stacks or alone. */
struct LanePlan
{
    /**
     * Lane indices of each size stack: fast-lane cells that share
     * line size, hit policy and an inclusive miss policy (WB +
     * fetch-on-write; WT + fetch-on-write, write-around or
     * write-invalidate) and span at least two sizes.
     */
    std::vector<std::vector<std::size_t>> stacks;

    /** Every other lane index, ascending: fast or generic lanes. */
    std::vector<std::size_t> alone;
};

/**
 * Split `lanes` into size stacks and lanes that replay alone.
 * runTracePass() replays each stack with one probe walk per piece;
 * runBatch() gives each stack its own pass.
 */
LanePlan planLanes(const std::vector<LaneSpec>& lanes);

/**
 * Replay `source` once through every lane.
 *
 * @param source        where the blocks come from; sources with a
 *                      fixed on-disk block size (MappedReplayCache)
 *                      ignore `blockRecords`.
 * @param lanes         configurations to simulate; each is validated.
 * @param blockRecords  preferred records per block of the outer walk;
 *                      the default is tuned, see
 *                      trace::kDefaultBlockRecords.
 * @return one RunResult per lane, in `lanes` order, byte-identical to
 *         runTrace(trace, lanes[i].config, lanes[i].flushAtEnd).
 *
 * Emits `sweep.trace_pass` and, when fast lanes need a decode,
 * per-block `sweep.block_decode` spans, and advances the
 * `jcache_engine_records_total` and `jcache_engine_blocks_total`
 * counters when telemetry is armed.
 */
std::vector<RunResult>
runTracePass(const trace::ReplaySource& source,
             const std::vector<LaneSpec>& lanes,
             std::size_t blockRecords = trace::kDefaultBlockRecords);

/** Replay an in-memory `trace`: wraps it in a TraceReplaySource. */
std::vector<RunResult>
runTracePass(const trace::Trace& trace,
             const std::vector<LaneSpec>& lanes,
             std::size_t blockRecords = trace::kDefaultBlockRecords);

} // namespace jcache::sim

#endif // JCACHE_SIM_MULTICONFIG_HH
