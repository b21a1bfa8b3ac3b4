/**
 * @file
 * Implementation of WriteCache.
 */

#include "core/write_cache.hh"

#include <algorithm>

#include "util/bitops.hh"
#include "util/logging.hh"

namespace jcache::core
{

WriteCache::WriteCache(unsigned entries, unsigned entry_bytes,
                       mem::MemLevel* next)
    : entryBytes_(entry_bytes), next_(next), entries_(entries)
{
    fatalIf(!isPowerOfTwo(entry_bytes) || entry_bytes > 64,
            "write cache entry width must be a power of two <= 64");
}

WriteCache::Entry*
WriteCache::find(Addr entry_addr)
{
    for (Entry& e : entries_) {
        if (e.dirty != 0 && e.addr == entry_addr)
            return &e;
    }
    return nullptr;
}

void
WriteCache::drainEntry(Entry& entry)
{
    if (entry.dirty == 0)
        return;
    if (next_)
        next_->writeThrough(entry.addr, popcount(entry.dirty));
    entry.dirty = 0;
}

void
WriteCache::writeThrough(Addr addr, unsigned bytes)
{
    ++writesIn_;
    ++useCounter_;

    if (entries_.empty()) {
        if (next_)
            next_->writeThrough(addr, bytes);
        return;
    }

    // A write wider than an entry cannot occur with the paper's 8B
    // entries, but split defensively for narrower configurations.
    Addr entry_addr = alignDown(addr, entryBytes_);
    unsigned offset = static_cast<unsigned>(addr - entry_addr);
    fatalIf(offset + bytes > entryBytes_,
            "write cache writes must not straddle entries");
    ByteMask mask = byteMaskFor(offset, bytes);

    if (Entry* hit = find(entry_addr)) {
        hit->dirty |= mask;
        hit->lastUse = useCounter_;
        ++merges_;
        return;
    }

    // Miss: claim a free slot, or evict the LRU entry to the next
    // level to make room (Figure 6).
    Entry* slot = nullptr;
    for (Entry& e : entries_) {
        if (e.dirty == 0) {
            slot = &e;
            break;
        }
        if (!slot || e.lastUse < slot->lastUse)
            slot = &e;
    }
    if (slot->dirty != 0) {
        drainEntry(*slot);
        ++evictions_;
    }
    slot->addr = entry_addr;
    slot->dirty = mask;
    slot->lastUse = useCounter_;
}

void
WriteCache::fetchLine(Addr addr, unsigned bytes)
{
    // Flush overlapping dirty entries first so the fetch returns data
    // that includes them.
    Addr line_end = addr + bytes;
    for (Entry& e : entries_) {
        if (e.dirty != 0 && e.addr >= addr && e.addr < line_end) {
            drainEntry(e);
            ++fetchFlushes_;
        }
    }
    if (next_)
        next_->fetchLine(addr, bytes);
}

void
WriteCache::writeBack(Addr addr, unsigned line_bytes,
                      unsigned dirty_bytes, bool is_flush)
{
    if (next_)
        next_->writeBack(addr, line_bytes, dirty_bytes, is_flush);
}

void
WriteCache::flush()
{
    for (Entry& e : entries_)
        drainEntry(e);
}

unsigned
WriteCache::occupancy() const
{
    return static_cast<unsigned>(
        std::count_if(entries_.begin(), entries_.end(),
                      [](const Entry& e) { return e.dirty != 0; }));
}

double
WriteCache::fractionRemoved() const
{
    if (writesIn_ == 0)
        return 0.0;
    return static_cast<double>(merges_) /
           static_cast<double>(writesIn_);
}

double
MergeCurve::removalPct(unsigned entries) const
{
    if (entries == 0 || writes == 0)
        return 0.0;
    return 100.0 * (static_cast<double>(merged.at(entries)) /
                    static_cast<double>(writes));
}

MergeCurve
mergeCurve(const trace::Trace& trace)
{
    constexpr unsigned kDepth = MergeCurve::kMaxEntries;
    constexpr unsigned kWidth = MergeCurve::kEntryBytes;

    // stack[0] is the most recently written entry address; writes at
    // depth >= kDepth merge in no cache on the curve, so deeper
    // entries are dropped.
    std::array<Addr, kDepth> stack{};
    unsigned depth = 0;
    std::array<Count, kDepth> at_depth{};
    MergeCurve curve;
    for (const trace::TraceRecord& record : trace) {
        if (record.type != trace::RefType::Write)
            continue;
        ++curve.writes;
        Addr entry_addr = alignDown(record.addr, kWidth);
        fatalIf(record.addr - entry_addr + record.size > kWidth,
                "write cache writes must not straddle entries");
        unsigned d = 0;
        while (d < depth && stack[d] != entry_addr)
            ++d;
        if (d < depth)
            ++at_depth[d];
        else if (depth < kDepth)
            ++depth;
        else
            d = kDepth - 1;  // the deepest entry falls off the stack
        for (; d > 0; --d)
            stack[d] = stack[d - 1];
        stack[0] = entry_addr;
    }
    for (unsigned n = 1; n <= kDepth; ++n)
        curve.merged[n] = curve.merged[n - 1] + at_depth[n - 1];
    return curve;
}

void
WriteCache::reset()
{
    for (Entry& e : entries_)
        e = Entry{};
    useCounter_ = 0;
    writesIn_ = 0;
    merges_ = 0;
    evictions_ = 0;
    fetchFlushes_ = 0;
}

} // namespace jcache::core
