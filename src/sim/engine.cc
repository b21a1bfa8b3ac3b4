/**
 * @file
 * Implementation of the unified simulation entry point.
 *
 * The one-pass batch path does the request bookkeeping runTracePass()
 * stays out of: grouping by trace, deduplicating identical cells,
 * giving each size stack a pass of its own, and chunking the other
 * lanes so the executor can run passes in parallel without any
 * pass's lane state outgrowing the cache hierarchy.
 */

#include "sim/engine.hh"

#include <algorithm>
#include <iterator>
#include <mutex>
#include <utility>

#include "sim/multiconfig.hh"
#include "util/logging.hh"

namespace jcache::sim
{

namespace
{

/**
 * Lanes per one-pass chunk when a worker pool runs chunks in
 * parallel.  Enough that a pass amortizes the decode across many
 * cells, few enough that a chunk's SoA lane state stays resident
 * while a block streams through it — and that a typical figure grid
 * still splits into several chunks for the pool.
 */
constexpr std::size_t kLanesPerChunk = 16;

/**
 * Lanes per chunk when a single worker runs the batch.  Splitting
 * buys nothing serially and costs a fresh decode of every block per
 * chunk, so chunks grow until lane state (not the decode) dominates.
 */
constexpr std::size_t kLanesPerChunkSerial = 32;

/** All requests against one reference stream, deduplicated. */
struct TraceGroup
{
    const trace::Trace* trace = nullptr;
    const trace::ReplaySource* source = nullptr;

    /** Distinct (config, flush) cells, in first-seen order. */
    std::vector<LaneSpec> lanes;

    /** For each distinct lane, the request indices it serves. */
    std::vector<std::vector<std::size_t>> covers;
};

/** Some of one group's lanes, run as one pass. */
struct Chunk
{
    const TraceGroup* group = nullptr;
    std::vector<std::size_t> lanes;  //!< lane indices within the group
};

BatchOutcome
runBatchPerCell(const std::vector<Request>& requests,
                const BatchOptions& options)
{
    std::vector<SweepJob> grid;
    grid.reserve(requests.size());
    for (const Request& request : requests)
        grid.push_back(
            SweepJob{request.trace, request.config, request.flushAtEnd});

    ParallelExecutor executor(options.jobs, options.progress);
    SweepOutcome outcome = executor.run(grid);
    return BatchOutcome{std::move(outcome.results),
                        std::move(outcome.report)};
}

BatchOutcome
runBatchOnePass(const std::vector<Request>& requests,
                const BatchOptions& options)
{
    // Group requests by reference stream (first-seen order),
    // deduplicating identical (config, flush) cells within each
    // group.  Both pointers participate in the key so a trace and a
    // mapped source over the same records stay separate passes.
    std::vector<TraceGroup> groups;
    for (std::size_t i = 0; i < requests.size(); ++i) {
        const Request& request = requests[i];
        TraceGroup* group = nullptr;
        for (TraceGroup& g : groups)
            if (g.trace == request.trace &&
                g.source == request.source) {
                group = &g;
                break;
            }
        if (!group) {
            groups.push_back(
                TraceGroup{request.trace, request.source, {}, {}});
            group = &groups.back();
        }
        std::size_t lane = group->lanes.size();
        for (std::size_t j = 0; j < group->lanes.size(); ++j)
            if (group->lanes[j].config == request.config &&
                group->lanes[j].flushAtEnd == request.flushAtEnd) {
                lane = j;
                break;
            }
        if (lane == group->lanes.size()) {
            group->lanes.push_back(
                LaneSpec{request.config, request.flushAtEnd});
            group->covers.emplace_back();
        }
        group->covers[lane].push_back(i);
    }

    // Each size stack is a pass of its own; the other lanes are
    // chunked so the pool can overlap passes.  Stacks go last: they
    // are the cheapest passes, so they fill in behind the chunks.
    const unsigned jobs =
        options.jobs == 0 ? defaultJobs() : options.jobs;
    const std::size_t lanes_per_chunk =
        jobs == 1 ? kLanesPerChunkSerial : kLanesPerChunk;
    std::vector<Chunk> chunks;
    std::vector<Chunk> stacks;
    for (const TraceGroup& group : groups) {
        LanePlan plan = planLanes(group.lanes);
        for (std::size_t first = 0; first < plan.alone.size();
             first += lanes_per_chunk) {
            auto begin = plan.alone.begin() + first;
            chunks.push_back(Chunk{
                &group,
                {begin, begin + std::min(lanes_per_chunk,
                                         plan.alone.size() - first)}});
        }
        for (std::vector<std::size_t>& stack : plan.stacks)
            stacks.push_back(Chunk{&group, std::move(stack)});
    }
    chunks.insert(chunks.end(), std::make_move_iterator(stacks.begin()),
                  std::make_move_iterator(stacks.end()));

    BatchOutcome outcome;
    outcome.results.assign(requests.size(), Result{});
    std::vector<JobTiming> timings(requests.size());
    std::vector<double> chunkWall(chunks.size(), 0.0);

    std::mutex progress_mutex;
    std::size_t done = 0;

    ParallelExecutor executor(options.jobs);
    SweepReport chunk_report = executor.runTasks(
        chunks.size(), [&](std::size_t ci) -> Count {
            const Chunk& chunk = chunks[ci];
            const TraceGroup& group = *chunk.group;
            std::vector<LaneSpec> lanes;
            for (std::size_t lane : chunk.lanes)
                lanes.push_back(group.lanes[lane]);
            std::vector<Result> results =
                group.source ? runTracePass(*group.source, lanes)
                             : runTracePass(*group.trace, lanes);
            Count replayed = 0;
            for (std::size_t k = 0; k < results.size(); ++k) {
                replayed = results[k].instructions;
                for (std::size_t ri : group.covers[chunk.lanes[k]]) {
                    outcome.results[ri] = results[k];
                    timings[ri].instructions = results[k].instructions;
                }
            }
            if (options.progress) {
                std::size_t covered = 0;
                for (std::size_t lane : chunk.lanes)
                    covered += group.covers[lane].size();
                std::lock_guard<std::mutex> lock(progress_mutex);
                done += covered;
                options.progress(done, requests.size());
            }
            return replayed;
        });

    // Re-key the chunk-level report to request granularity: a chunk's
    // wall time is shared evenly by the requests it served, and a
    // chunk failure fails every request it covered.
    for (std::size_t ci = 0; ci < chunks.size(); ++ci)
        if (ci < chunk_report.timings.size())
            chunkWall[ci] = chunk_report.timings[ci].wallSeconds;

    outcome.report.threads = chunk_report.threads;
    outcome.report.wallSeconds = chunk_report.wallSeconds;
    for (std::size_t ci = 0; ci < chunks.size(); ++ci) {
        const Chunk& chunk = chunks[ci];
        const TraceGroup& group = *chunk.group;
        std::size_t covered = 0;
        for (std::size_t lane : chunk.lanes)
            covered += group.covers[lane].size();
        if (covered == 0)
            continue;
        double share = chunkWall[ci] / static_cast<double>(covered);
        for (std::size_t lane : chunk.lanes)
            for (std::size_t ri : group.covers[lane])
                timings[ri].wallSeconds = share;
    }
    for (const JobFailure& failure : chunk_report.failures) {
        const Chunk& chunk = chunks[failure.index];
        const TraceGroup& group = *chunk.group;
        for (std::size_t lane : chunk.lanes)
            for (std::size_t ri : group.covers[lane])
                outcome.report.failures.push_back(
                    JobFailure{ri, failure.message});
    }
    std::sort(outcome.report.failures.begin(),
              outcome.report.failures.end(),
              [](const JobFailure& a, const JobFailure& b) {
                  return a.index < b.index;
              });
    outcome.report.timings = std::move(timings);
    return outcome;
}

} // namespace

Result
runOne(const Request& request, Engine engine)
{
    fatalIf(request.trace == nullptr && request.source == nullptr,
            "simulation request names no trace");
    if (engine == Engine::PerCell) {
        fatalIf(request.trace == nullptr,
                "the per-cell engine needs an in-memory trace");
        return runTrace(*request.trace, request.config,
                        request.flushAtEnd);
    }
    const LaneSpec lane{request.config, request.flushAtEnd};
    if (request.source)
        return runTracePass(*request.source, {lane}).front();
    return runTracePass(*request.trace, {lane}).front();
}

BatchOutcome
runBatch(const std::vector<Request>& requests,
         const BatchOptions& options)
{
    for (const Request& request : requests) {
        fatalIf(request.trace == nullptr && request.source == nullptr,
                "simulation request names no trace");
        fatalIf(options.engine == Engine::PerCell &&
                    request.trace == nullptr,
                "the per-cell engine needs an in-memory trace");
    }
    if (options.engine == Engine::PerCell)
        return runBatchPerCell(requests, options);
    return runBatchOnePass(requests, options);
}

} // namespace jcache::sim
