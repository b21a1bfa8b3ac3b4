/**
 * @file
 * The benchmark's own span recorder.  Spans wrap the benchmark's calls
 * into the library from outside (name, start, end, parent); they live
 * in memory while the traced run lasts, are written out as Chrome
 * trace-event JSON when it ends, and roll up into a per-layer self-time
 * table.  A span's layer is its name up to the first '.'.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <chrono>
#include <cstdint>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench
{

struct SpanRecord
{
    std::string name;
    double startUs = 0.0;
    double endUs = 0.0;
    std::uint64_t id = 0;
    /** 0 for a root span. */
    std::uint64_t parent = 0;
    std::uint64_t thread = 0;
};

/** One layer's row of the roll-up. */
struct LayerTime
{
    std::string layer;
    double selfMs = 0.0;
    std::size_t spans = 0;
};

class Tracer
{
  public:
    Tracer();
    Tracer(const Tracer&) = delete;
    Tracer& operator=(const Tracer&) = delete;

    /** Microseconds since the tracer was created. */
    double nowUs() const;

    /** Reserve an id for a span whose end is recorded later. */
    std::uint64_t nextId();

    /** Store a finished span. */
    void record(SpanRecord span);

    std::vector<SpanRecord> spans() const;

    /** Chrome trace-event JSON of every span ("ph":"X" events). */
    void writeChrome(std::ostream& os) const;

    /**
     * Per-layer self time: each span's duration minus the part of its
     * interval that its children cover, summed by layer, largest first.
     */
    std::vector<LayerTime> rollUp() const;

  private:
    std::chrono::steady_clock::time_point origin_;
    mutable std::mutex mutex_;
    std::vector<SpanRecord> spans_;
    std::uint64_t nextId_ = 1;
};

/** The tracer spans go to, or nullptr when tracing is off. */
Tracer* activeTracer();

/** Install or clear (nullptr) the process-wide tracer. */
void setActiveTracer(Tracer* tracer);

/**
 * RAII span on the current thread; nests under the innermost open
 * Scope of the same thread.  Costs nothing but a null test when no
 * tracer is active.
 */
class Scope
{
  public:
    explicit Scope(const char* name);
    explicit Scope(const std::string& name) : Scope(name.c_str()) {}
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    /** Id of the innermost open Scope on this thread (0 if none). */
    static std::uint64_t current();

  private:
    Tracer* tracer_;
    SpanRecord span_;
    std::uint64_t saved_ = 0;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
