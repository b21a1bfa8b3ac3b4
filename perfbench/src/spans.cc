#include "spans.hh"

#include <algorithm>
#include <atomic>
#include <functional>
#include <map>
#include <thread>
#include <unordered_map>

#include "stats/json.hh"

namespace perfbench
{

namespace
{

std::atomic<Tracer*> g_tracer{nullptr};
thread_local std::uint64_t t_current = 0;

std::uint64_t
threadTag()
{
    return std::hash<std::thread::id>{}(std::this_thread::get_id()) %
        100000;
}

std::string
layerOf(const std::string& name)
{
    return name.substr(0, name.find('.'));
}

} // namespace

Tracer::Tracer() : origin_(std::chrono::steady_clock::now()) {}

double
Tracer::nowUs() const
{
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - origin_)
        .count();
}

std::uint64_t
Tracer::nextId()
{
    std::lock_guard<std::mutex> lock(mutex_);
    return nextId_++;
}

void
Tracer::record(SpanRecord span)
{
    if (span.thread == 0)
        span.thread = threadTag();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(std::move(span));
}

std::vector<SpanRecord>
Tracer::spans() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
}

void
Tracer::writeChrome(std::ostream& os) const
{
    std::vector<SpanRecord> all = spans();
    jcache::stats::JsonWriter json(os);
    json.beginObject();
    json.beginArray("traceEvents");
    for (const SpanRecord& s : all) {
        json.beginObject();
        json.field("name", s.name);
        json.field("cat", layerOf(s.name));
        json.field("ph", "X");
        json.field("ts", s.startUs);
        json.field("dur", s.endUs - s.startUs);
        json.field("pid", 1.0);
        json.field("tid", static_cast<double>(s.thread));
        json.beginObject("args");
        json.field("id", static_cast<double>(s.id));
        json.field("parent", static_cast<double>(s.parent));
        json.endObject();
        json.endObject();
    }
    json.endArray();
    json.endObject();
    os << "\n";
}

std::vector<LayerTime>
Tracer::rollUp() const
{
    std::vector<SpanRecord> all = spans();
    std::unordered_map<std::uint64_t, std::vector<const SpanRecord*>>
        children;
    for (const SpanRecord& s : all)
        children[s.parent].push_back(&s);

    std::map<std::string, LayerTime> layers;
    for (const SpanRecord& s : all) {
        // Union of the children's intervals, clipped to this span.
        std::vector<std::pair<double, double>> cover;
        for (const SpanRecord* c : children[s.id]) {
            double a = std::max(c->startUs, s.startUs);
            double b = std::min(c->endUs, s.endUs);
            if (b > a)
                cover.emplace_back(a, b);
        }
        std::sort(cover.begin(), cover.end());
        double covered = 0.0;
        double reach = s.startUs;
        for (const auto& [a, b] : cover) {
            double from = std::max(a, reach);
            if (b > from)
                covered += b - from;
            reach = std::max(reach, b);
        }
        LayerTime& row = layers[layerOf(s.name)];
        row.layer = layerOf(s.name);
        row.selfMs += (s.endUs - s.startUs - covered) / 1000.0;
        ++row.spans;
    }
    std::vector<LayerTime> rows;
    for (auto& [name, row] : layers)
        rows.push_back(row);
    std::sort(rows.begin(), rows.end(),
              [](const LayerTime& a, const LayerTime& b) {
                  return a.selfMs > b.selfMs;
              });
    return rows;
}

Tracer*
activeTracer()
{
    return g_tracer.load(std::memory_order_acquire);
}

void
setActiveTracer(Tracer* tracer)
{
    g_tracer.store(tracer, std::memory_order_release);
}

Scope::Scope(const char* name) : tracer_(activeTracer())
{
    if (tracer_ == nullptr)
        return;
    span_.name = name;
    span_.id = tracer_->nextId();
    span_.parent = t_current;
    saved_ = t_current;
    t_current = span_.id;
    span_.startUs = tracer_->nowUs();
}

Scope::~Scope()
{
    if (tracer_ == nullptr)
        return;
    span_.endUs = tracer_->nowUs();
    t_current = saved_;
    tracer_->record(std::move(span_));
}

std::uint64_t
Scope::current()
{
    return t_current;
}

} // namespace perfbench
