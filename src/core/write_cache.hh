/**
 * @file
 * Write cache (paper Section 3.2, Figures 6-9).
 *
 * The paper's proposal: a small fully-associative cache of 8B lines
 * placed behind a write-through data cache and in front of the write
 * buffer.  Stores that hit an entry coalesce (removing traffic); a
 * store that misses evicts the LRU entry into the write buffer.
 *
 * WriteCache implements MemLevel so it can be stacked directly behind
 * a DataCache: the data cache's write-through stream feeds it, and
 * line fetches pass through (after flushing any overlapping dirty
 * entries downstream, preserving memory ordering).
 */

#ifndef JCACHE_CORE_WRITE_CACHE_HH
#define JCACHE_CORE_WRITE_CACHE_HH

#include <array>
#include <vector>

#include "mem/mem_level.hh"
#include "trace/trace.hh"
#include "util/types.hh"

namespace jcache::core
{

/**
 * Small fully-associative coalescing cache for store traffic.
 */
class WriteCache : public mem::MemLevel
{
  public:
    /**
     * @param entries     number of entries (0 = pass-through).
     * @param entry_bytes entry width; the paper uses 8B because no
     *                    write is larger and off-chip write paths are
     *                    often 8B wide.
     * @param next        downstream level (write buffer or memory);
     *                    may be null.
     */
    WriteCache(unsigned entries, unsigned entry_bytes = 8,
               mem::MemLevel* next = nullptr);

    /** Stores arriving from the write-through cache above. */
    void writeThrough(Addr addr, unsigned bytes) override;

    /**
     * Fetches pass through; overlapping dirty entries are flushed
     * downstream first so the fetched line observes them.
     */
    void fetchLine(Addr addr, unsigned bytes) override;

    /** Write-backs pass through (a WT cache above never sends any). */
    void writeBack(Addr addr, unsigned line_bytes, unsigned dirty_bytes,
                   bool is_flush) override;

    /** Drain every entry downstream. */
    void flush();

    Count writesIn() const { return writesIn_; }

    /** Stores absorbed by an existing entry (traffic removed). */
    Count merges() const { return merges_; }

    /** Entries evicted downstream by LRU replacement. */
    Count evictions() const { return evictions_; }

    /** Entries flushed because a fetch overlapped them. */
    Count fetchFlushes() const { return fetchFlushes_; }

    unsigned occupancy() const;

    /** Fraction of incoming stores removed (Figure 7's y-axis). */
    double fractionRemoved() const;

    void reset();

  private:
    struct Entry
    {
        Addr addr = 0;        //!< entry-aligned base address
        ByteMask dirty = 0;   //!< bytes written (0 = free slot)
        Count lastUse = 0;
    };

    Entry* find(Addr entry_addr);
    void drainEntry(Entry& entry);

    unsigned entryBytes_;
    mem::MemLevel* next_;
    std::vector<Entry> entries_;
    Count useCounter_ = 0;
    Count writesIn_ = 0;
    Count merges_ = 0;
    Count evictions_ = 0;
    Count fetchFlushes_ = 0;
};

/**
 * Writes merged by a write cache of 8B entries, for every size from 0
 * to kMaxEntries entries, from one pass over a trace (Figures 5, 7-9).
 *
 * A WriteCache fills free slots before it evicts and replaces the
 * least recently written entry, so an n-entry cache always holds the
 * n most recently written entry addresses: it has LRU's inclusion
 * property.  A write whose entry sits at depth d of the LRU stack
 * (d distinct entries written since) merges in every cache with more
 * than d entries, so one stack pass gives every size exactly.
 */
struct MergeCurve
{
    /** Largest entry count on the curve (Figure 7's x-axis). */
    static constexpr unsigned kMaxEntries = 16;

    /** Entry width, the paper's 8B. */
    static constexpr unsigned kEntryBytes = 8;

    /** Writes in the trace. */
    Count writes = 0;

    /** merged[n]: writes an n-entry write cache merges. */
    std::array<Count, kMaxEntries + 1> merged{};

    /**
     * Percent of writes an n-entry cache removes; bit-identical to
     * 100 * WriteCache(n).fractionRemoved() over the same writes.
     */
    double removalPct(unsigned entries) const;
};

/**
 * The merge curve of a trace's writes.  Throws FatalError on a write
 * that straddles an entry, as WriteCache::writeThrough does.
 */
MergeCurve mergeCurve(const trace::Trace& trace);

} // namespace jcache::core

#endif // JCACHE_CORE_WRITE_CACHE_HH
