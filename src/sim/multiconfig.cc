/**
 * @file
 * Implementation of the one-pass multi-configuration engine.
 *
 * The fast-lane replay mirrors DataCache::readPiece / writePiece /
 * evict / flush counter for counter; any change to those must be
 * reflected here (the differential test will catch a divergence).
 *
 * Two replay paths implement those semantics:
 *
 *  - applyPiece() — the scalar reference kernel, one lane at a time.
 *  - replayTileAvx2() — four lanes of one policy group at once: the
 *    tag compare, valid-mask test and hot counter increments run as
 *    256-bit vector operations (tags gathered from the four lanes'
 *    SoA arrays with 64-bit gathers), and any lane that falls off the
 *    all-hit fast path is handed to applyPiece() for that one access.
 *
 * Byte identity between the two is structural: the vector path only
 * ever (a) performs the exact state updates the scalar kernel would
 * and (b) accumulates the same counter increments in a different
 * order, and counter accumulation is integer addition, which is
 * associative and commutative.  tests/test_simd.cc and the engine
 * differential suite verify the equivalence on adversarial traces.
 *
 * SizeStack replays cells that differ only in size with one probe
 * walk per piece; its counters follow from the inclusion properties
 * docs/ENGINE.md proves, and the engine differential suite holds it
 * to the per-cell engine on random stacks.
 */

#include "sim/multiconfig.hh"

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "core/data_cache.hh"
#include "core/geometry.hh"
#include "mem/traffic_meter.hh"
#include "telemetry/metrics.hh"
#include "telemetry/trace_writer.hh"
#include "util/bitops.hh"
#include "util/simd.hh"

namespace jcache::sim
{

namespace
{

using core::WriteMissPolicy;

/** Sentinel "no line here" tag; also doubles as the invalid state. */
constexpr Addr kNoTag = ~Addr{0};

/** Accumulated back-side traffic of one class, lane-local. */
struct Traffic
{
    Count txns = 0;
    Count bytes = 0;

    mem::TrafficClass toClass() const
    {
        mem::TrafficClass c;
        c.transactions = txns;
        c.bytes = bytes;
        return c;
    }
};

/** One line-aligned piece of a decoded trace record. */
struct Piece
{
    Addr la;             //!< line address (addr >> lineShift)
    ByteMask mask;       //!< byte mask within the line
    std::uint32_t size;  //!< piece size in bytes
    std::uint32_t read;  //!< 1 = read, 0 = write
};

/**
 * Decode a block of records into line-aligned pieces for one line
 * size.  Shared by every fast lane with that line size.
 */
void
decodeBlock(const trace::TraceRecord* recs, std::size_t n,
            unsigned lineBytes, unsigned lineShift,
            std::vector<Piece>& out)
{
    out.clear();
    const Addr lm = lineBytes - 1;
    for (std::size_t k = 0; k < n; ++k) {
        const trace::TraceRecord& r = recs[k];
        Addr addr = r.addr;
        unsigned size = r.size;
        const std::uint32_t is_read =
            r.type == trace::RefType::Read ? 1 : 0;
        while (true) {
            unsigned off = static_cast<unsigned>(addr & lm);
            unsigned room = lineBytes - off;
            unsigned piece = size < room ? size : room;
            out.push_back(Piece{addr >> lineShift,
                                byteMaskFor(off, piece), piece,
                                is_read});
            size -= piece;
            if (size == 0)
                break;
            addr += piece;
        }
    }
}

/**
 * Counters one lane accumulates over one block, flushed into the
 * lane's persistent stats once per block.  Field names mirror the
 * CacheStats / traffic fields they feed.
 */
struct BlockCounters
{
    Count reads = 0, readHits = 0, readMisses = 0, partial = 0;
    Count writes = 0, writeHits = 0, writeMisses = 0;
    Count fetched = 0, wmFetch = 0, wtCount = 0, inval = 0;
    Count victims = 0, dirtyVictims = 0, dvBytes = 0;
    Count dirtyWrites = 0;
    Count fetchTx = 0, fetchBytes = 0, wtTx = 0, wtBytes = 0;
    Count wbTx = 0, wbBytes = 0;
};

/** Raw SoA state of one fast lane, as the replay kernels see it. */
struct LaneView
{
    Addr* T;                //!< tag per line (kNoTag = empty)
    ByteMask* V;            //!< valid byte mask per line
    ByteMask* D;            //!< dirty byte mask per line
    std::uint64_t im;       //!< set index mask
    ByteMask full;          //!< full-line byte mask
    unsigned lineBytes;     //!< line size in bytes
};

/** Evict the line at `idx` (no-op when empty), as DataCache::evict. */
template <bool WB>
[[gnu::always_inline]] inline void
evictLine(const LaneView& s, BlockCounters& c, std::uint64_t idx)
{
    if (s.T[idx] == kNoTag)
        return;
    ++c.victims;
    if (WB && s.D[idx] != 0) {
        ++c.dirtyVictims;
        unsigned db = popcount(s.D[idx]);
        c.dvBytes += db;
        ++c.wbTx;
        c.wbBytes += db;
        s.D[idx] = 0;
    }
    s.T[idx] = kNoTag;
    s.V[idx] = 0;
}

/**
 * The scalar reference kernel, read half: apply one decoded read
 * piece to one lane.  Reads never consult the write-miss policy, so
 * the vector tiles' read fallback dispatches straight here with no
 * policy switch.
 */
template <bool WB>
[[gnu::always_inline]] inline void
applyRead(const LaneView& s, BlockCounters& c, const Piece& p)
{
    const Addr la = p.la;
    const ByteMask mask = p.mask;
    const std::uint64_t idx = la & s.im;
    Addr* const T = s.T;
    ByteMask* const V = s.V;
    ++c.reads;
    if (T[idx] == la && (V[idx] & mask) == mask) [[likely]] {
        ++c.readHits;
    } else if (T[idx] == la) {
        // Tag hit on invalid bytes: fetch fills the line.
        ++c.readMisses;
        ++c.partial;
        ++c.fetched;
        ++c.fetchTx;
        c.fetchBytes += s.lineBytes;
        V[idx] = s.full;
    } else {
        ++c.readMisses;
        evictLine<WB>(s, c, idx);
        ++c.fetched;
        ++c.fetchTx;
        c.fetchBytes += s.lineBytes;
        T[idx] = la;
        V[idx] = s.full;
        if (WB)
            s.D[idx] = 0;
    }
}

/** The scalar reference kernel, write half. */
template <bool WB, WriteMissPolicy MP>
[[gnu::always_inline]] inline void
applyWrite(const LaneView& s, BlockCounters& c, const Piece& p)
{
    const Addr la = p.la;
    const ByteMask mask = p.mask;
    const std::uint64_t idx = la & s.im;
    Addr* const T = s.T;
    ByteMask* const V = s.V;
    ByteMask* const D = s.D;
    ++c.writes;
    if (T[idx] == la) [[likely]] {
        ++c.writeHits;
        if (WB) {
            if (D[idx] != 0)
                ++c.dirtyWrites;
            D[idx] |= mask;
            V[idx] |= mask;
        } else {
            V[idx] |= mask;
            ++c.wtCount;
            ++c.wtTx;
            c.wtBytes += p.size;
        }
    } else {
        ++c.writeMisses;
        if (MP == WriteMissPolicy::FetchOnWrite) {
            evictLine<WB>(s, c, idx);
            ++c.fetched;
            ++c.wmFetch;
            ++c.fetchTx;
            c.fetchBytes += s.lineBytes;
            T[idx] = la;
            V[idx] = s.full;
            if (WB) {
                D[idx] = mask;
            } else {
                ++c.wtCount;
                ++c.wtTx;
                c.wtBytes += p.size;
            }
        } else if (MP == WriteMissPolicy::WriteValidate) {
            evictLine<WB>(s, c, idx);
            T[idx] = la;
            V[idx] = mask;
            if (WB) {
                D[idx] = mask;
            } else {
                ++c.wtCount;
                ++c.wtTx;
                c.wtBytes += p.size;
            }
        } else if (MP == WriteMissPolicy::WriteAround) {
            ++c.wtCount;
            ++c.wtTx;
            c.wtBytes += p.size;
        } else {  // WriteInvalidate (direct-mapped)
            ++c.wtCount;
            ++c.wtTx;
            c.wtBytes += p.size;
            if (T[idx] != kNoTag) {
                T[idx] = kNoTag;
                V[idx] = 0;
                if (WB)
                    D[idx] = 0;
                ++c.inval;
            }
        }
    }
}

/**
 * The scalar reference kernel: apply one decoded piece to one lane.
 * This is the single source of truth for fast-lane semantics; the
 * vector path delegates every non-fast-path access here.
 */
template <bool WB, WriteMissPolicy MP>
[[gnu::always_inline]] inline void
applyPiece(const LaneView& s, BlockCounters& c, const Piece& p)
{
    if (p.read)
        applyRead<WB>(s, c, p);
    else
        applyWrite<WB, MP>(s, c, p);
}

/**
 * applyWrite with the miss policy chosen at run time.  The vector
 * tiles group lanes by (line size, hit policy) only — the fast paths
 * they retire never consult the miss policy — so when a lane falls
 * off the fast path on a write its miss policy is dispatched here,
 * per access.  Write misses are the minority on every workload, so
 * the switch stays off the hot path.
 */
template <bool WB>
[[gnu::always_inline]] inline void
applyWriteDyn(WriteMissPolicy mp, const LaneView& s, BlockCounters& c,
              const Piece& p)
{
    switch (mp) {
      case WriteMissPolicy::FetchOnWrite:
        applyWrite<WB, WriteMissPolicy::FetchOnWrite>(s, c, p);
        break;
      case WriteMissPolicy::WriteValidate:
        applyWrite<WB, WriteMissPolicy::WriteValidate>(s, c, p);
        break;
      case WriteMissPolicy::WriteAround:
        applyWrite<WB, WriteMissPolicy::WriteAround>(s, c, p);
        break;
      case WriteMissPolicy::WriteInvalidate:
        applyWrite<WB, WriteMissPolicy::WriteInvalidate>(s, c, p);
        break;
    }
}

/**
 * Specialized lane: direct-mapped, byte-granularity valid bits.
 *
 * Structure-of-arrays line state with a sentinel tag, policy choices
 * lifted to template parameters, counters accumulated in
 * BlockCounters and flushed to members once per block.
 */
class FastLane
{
  public:
    explicit FastLane(const core::CacheConfig& c) : config_(c)
    {
        core::CacheGeometry g(c);
        tags_.assign(g.numLines(), kNoTag);
        valid_.assign(g.numLines(), 0);
        dirty_.assign(g.numLines(), 0);
        lineShift_ = 0;
        while ((1u << lineShift_) < c.lineBytes)
            ++lineShift_;
        indexMask_ = g.numSets() - 1;
        fullMask_ = maskBits(c.lineBytes);
    }

    unsigned lineBytes() const { return config_.lineBytes; }
    unsigned lineShift() const { return lineShift_; }

    bool writeBack() const
    {
        return config_.hitPolicy == core::WriteHitPolicy::WriteBack;
    }

    WriteMissPolicy missPolicy() const { return config_.missPolicy; }

    /** This lane's state as the kernels address it. */
    LaneView view()
    {
        return LaneView{tags_.data(), valid_.data(), dirty_.data(),
                        indexMask_, fullMask_, config_.lineBytes};
    }

    /** Fold one block's counters into the persistent stats. */
    void absorb(const BlockCounters& c)
    {
        stats_.reads += c.reads;
        stats_.readHits += c.readHits;
        stats_.readMisses += c.readMisses;
        stats_.partialValidReadMisses += c.partial;
        stats_.writes += c.writes;
        stats_.writeHits += c.writeHits;
        stats_.writeMisses += c.writeMisses;
        stats_.linesFetched += c.fetched;
        stats_.writeMissFetches += c.wmFetch;
        stats_.writeThroughs += c.wtCount;
        stats_.invalidations += c.inval;
        stats_.victims += c.victims;
        stats_.dirtyVictims += c.dirtyVictims;
        stats_.dirtyVictimDirtyBytes += c.dvBytes;
        stats_.writesToDirtyLines += c.dirtyWrites;
        fetch_.txns += c.fetchTx;
        fetch_.bytes += c.fetchBytes;
        wt_.txns += c.wtTx;
        wt_.bytes += c.wtBytes;
        wb_.txns += c.wbTx;
        wb_.bytes += c.wbBytes;
    }

    /** Replay one decoded block through this lane, scalar. */
    template <bool WB, WriteMissPolicy MP>
    void replayScalar(const Piece* P, std::size_t n)
    {
        const LaneView s = view();
        BlockCounters c;
        for (std::size_t k = 0; k < n; ++k)
            applyPiece<WB, MP>(s, c, P[k]);
        absorb(c);
    }

    /**
     * Drain dirty lines, mirroring DataCache::flush(): every valid
     * line counts as flushed; dirty ones write their dirty bytes as
     * flush traffic and become clean but stay valid.
     */
    void flush()
    {
        const bool wb = writeBack();
        for (std::size_t i = 0; i < tags_.size(); ++i) {
            if (tags_[i] == kNoTag)
                continue;
            ++stats_.flushedValidLines;
            if (wb && dirty_[i] != 0) {
                ++stats_.flushedDirtyLines;
                unsigned dirty_bytes = popcount(dirty_[i]);
                stats_.flushedDirtyBytes += dirty_bytes;
                ++flush_.txns;
                flush_.bytes += dirty_bytes;
                dirty_[i] = 0;
            }
        }
    }

    RunResult result(Count instructions) const
    {
        RunResult r;
        r.config = config_;
        r.cache = stats_;
        r.fetchTraffic = fetch_.toClass();
        r.writeThroughTraffic = wt_.toClass();
        r.writeBackTraffic = wb_.toClass();
        r.flushTraffic = flush_.toClass();
        r.instructions = instructions;
        return r;
    }

  private:
    core::CacheConfig config_;
    std::vector<Addr> tags_;
    std::vector<ByteMask> valid_;
    std::vector<ByteMask> dirty_;
    unsigned lineShift_;
    std::uint64_t indexMask_;
    ByteMask fullMask_;
    core::CacheStats stats_;
    Traffic fetch_, wt_, wb_, flush_;
};

#if JCACHE_SIMD_AVX2

/** Store a 64-bit-per-lane vector into a 32-byte-aligned array. */
JCACHE_TARGET_AVX2 inline void
storeLanes(std::uint64_t out[4], __m256i v)
{
    _mm256_store_si256(reinterpret_cast<__m256i*>(out), v);
}

/** A pointer as a 64-bit gather "index" (absolute address, scale 1). */
inline long long
gatherAddr(const void* p)
{
    return static_cast<long long>(reinterpret_cast<std::uintptr_t>(p));
}

/**
 * Replay one decoded block through NV×4 lanes of one hit-policy
 * group at once (NV = 1 or 2 vectors of four lanes; the wider tile
 * shares each piece's load, read/write branch and broadcasts across
 * eight lanes).
 *
 * Per piece, each vector's four tags (and, when needed, valid and
 * dirty masks) are fetched with one 64-bit gather, using absolute
 * addresses as gather indices so the lanes may have different array
 * bases and different index masks (different cache sizes).  Lanes on
 * the common fast paths — a full read hit, or a write tag hit — are
 * retired entirely with vector compare/accumulate (plus a scalar
 * mask store for write hits); each remaining lane falls back to the
 * scalar reference kernel for that one access, with its own miss
 * policy dispatched at run time (the fast paths never consult it).
 * Counters meet in BlockCounters either way, so regrouping cannot
 * change results.
 *
 * The fast paths increment several counters by the same amount — a
 * full read hit bumps reads and readHits together; a write-through
 * tag hit bumps writes, writeHits, writeThroughs and write-through
 * transactions together — so each path keeps one accumulator vector
 * and fans it out into BlockCounters once per block.
 */
template <bool WB, unsigned NV>
JCACHE_TARGET_AVX2 void
replayTileAvx2(FastLane* const* lanes, const Piece* P, std::size_t n)
{
    constexpr unsigned NL = NV * 4;
    LaneView s[NL];
    BlockCounters c[NL];
    WriteMissPolicy mp[NL];
    for (unsigned i = 0; i < NL; ++i) {
        s[i] = lanes[i]->view();
        mp[i] = lanes[i]->missPolicy();
    }

    const auto* base0 = static_cast<const long long*>(nullptr);
    __m256i tbase[NV], vbase[NV], dbase[NV], im_v[NV];
    for (unsigned v = 0; v < NV; ++v) {
        const LaneView* q = s + 4 * v;
        tbase[v] = _mm256_set_epi64x(
            gatherAddr(q[3].T), gatherAddr(q[2].T),
            gatherAddr(q[1].T), gatherAddr(q[0].T));
        vbase[v] = _mm256_set_epi64x(
            gatherAddr(q[3].V), gatherAddr(q[2].V),
            gatherAddr(q[1].V), gatherAddr(q[0].V));
        dbase[v] = _mm256_set_epi64x(
            gatherAddr(q[3].D), gatherAddr(q[2].D),
            gatherAddr(q[1].D), gatherAddr(q[0].D));
        im_v[v] = _mm256_set_epi64x(
            static_cast<long long>(q[3].im),
            static_cast<long long>(q[2].im),
            static_cast<long long>(q[1].im),
            static_cast<long long>(q[0].im));
    }
    const __m256i ones = _mm256_set1_epi64x(1);
    const __m256i zero = _mm256_setzero_si256();

    // One accumulator per fast path (see the function comment), plus
    // the path-specific extra: dirty-write hits (WB) or the summed
    // write-through bytes (WT).
    __m256i read_full_v[NV], write_hit_v[NV], extra_v[NV];
    for (unsigned v = 0; v < NV; ++v)
        read_full_v[v] = write_hit_v[v] = extra_v[v] = zero;

    // Single-entry line cache over the gathered state.  A read that
    // fully hits every lane changes no state, so while consecutive
    // reads stay on one line address the gathered tag/valid vectors
    // are still exact and the gathers (and index math) can be
    // skipped — the common case for stride-1 walks, where every line
    // is read piece by piece.  Any write or any scalar fallback may
    // mutate lane state, so either invalidates the entry.
    Addr cached_la = 0;
    bool cache_ok = false;
    __m256i cached_hit[NV], cached_valid[NV];
    for (unsigned v = 0; v < NV; ++v)
        cached_hit[v] = cached_valid[v] = zero;

    for (std::size_t k = 0; k < n; ++k) {
        const Piece p = P[k];

        if (p.read && cache_ok && p.la == cached_la) {
            const __m256i m_v =
                _mm256_set1_epi64x(static_cast<long long>(p.mask));
            for (unsigned v = 0; v < NV; ++v) {
                const __m256i vok = _mm256_cmpeq_epi64(
                    _mm256_and_si256(cached_valid[v], m_v), m_v);
                const __m256i full_hit =
                    _mm256_and_si256(cached_hit[v], vok);
                const int fm = _mm256_movemask_pd(
                    _mm256_castsi256_pd(full_hit));
                read_full_v[v] = _mm256_add_epi64(
                    read_full_v[v], _mm256_and_si256(full_hit, ones));
                if (fm != 0xf) {
                    cache_ok = false;
                    for (unsigned i = 0; i < 4; ++i)
                        if (!(fm & (1u << i)))
                            applyRead<WB>(s[4 * v + i], c[4 * v + i],
                                          p);
                }
            }
            continue;
        }

        const __m256i la_v =
            _mm256_set1_epi64x(static_cast<long long>(p.la));
        __m256i idx[NV], bofs[NV], tag_hit[NV];
        int hm[NV];
        for (unsigned v = 0; v < NV; ++v) {
            idx[v] = _mm256_and_si256(la_v, im_v[v]);
            bofs[v] = _mm256_slli_epi64(idx[v], 3);
            const __m256i tags = _mm256_i64gather_epi64(
                base0, _mm256_add_epi64(tbase[v], bofs[v]), 1);
            tag_hit[v] = _mm256_cmpeq_epi64(tags, la_v);
            hm[v] =
                _mm256_movemask_pd(_mm256_castsi256_pd(tag_hit[v]));
        }

        if (p.read) {
            const __m256i m_v =
                _mm256_set1_epi64x(static_cast<long long>(p.mask));
            bool all_full = true;
            for (unsigned v = 0; v < NV; ++v) {
                int fm = 0;
                if (hm[v] != 0) {
                    const __m256i valid = _mm256_i64gather_epi64(
                        base0, _mm256_add_epi64(vbase[v], bofs[v]),
                        1);
                    cached_hit[v] = tag_hit[v];
                    cached_valid[v] = valid;
                    const __m256i vok = _mm256_cmpeq_epi64(
                        _mm256_and_si256(valid, m_v), m_v);
                    const __m256i full_hit =
                        _mm256_and_si256(tag_hit[v], vok);
                    fm = _mm256_movemask_pd(
                        _mm256_castsi256_pd(full_hit));
                    read_full_v[v] = _mm256_add_epi64(
                        read_full_v[v],
                        _mm256_and_si256(full_hit, ones));
                }
                if (fm != 0xf) {
                    all_full = false;
                    for (unsigned i = 0; i < 4; ++i)
                        if (!(fm & (1u << i)))
                            applyRead<WB>(s[4 * v + i], c[4 * v + i],
                                          p);
                }
            }
            cached_la = p.la;
            cache_ok = all_full;
        } else {
            cache_ok = false;
            for (unsigned v = 0; v < NV; ++v) {
                if (hm[v] != 0) {
                    write_hit_v[v] = _mm256_add_epi64(
                        write_hit_v[v],
                        _mm256_and_si256(tag_hit[v], ones));
                    alignas(32) std::uint64_t idxs[4];
                    storeLanes(idxs, idx[v]);
                    // Branchless mask update: per lane, OR in the
                    // piece mask gated by that lane's hit mask
                    // (all-ones or zero) — OR-ing zero into the
                    // line a missing lane indexes is a no-op.
                    alignas(32) std::uint64_t gate[4];
                    storeLanes(gate, tag_hit[v]);
                    if (WB) {
                        const __m256i dirty = _mm256_i64gather_epi64(
                            base0,
                            _mm256_add_epi64(dbase[v], bofs[v]), 1);
                        const __m256i dz =
                            _mm256_cmpeq_epi64(dirty, zero);
                        const __m256i dirty_hit =
                            _mm256_andnot_si256(dz, tag_hit[v]);
                        extra_v[v] = _mm256_add_epi64(
                            extra_v[v],
                            _mm256_and_si256(dirty_hit, ones));
                        for (unsigned i = 0; i < 4; ++i) {
                            const ByteMask gm = p.mask & gate[i];
                            s[4 * v + i].D[idxs[i]] |= gm;
                            s[4 * v + i].V[idxs[i]] |= gm;
                        }
                    } else {
                        extra_v[v] = _mm256_add_epi64(
                            extra_v[v],
                            _mm256_and_si256(
                                tag_hit[v],
                                _mm256_set1_epi64x(
                                    static_cast<long long>(p.size))));
                        for (unsigned i = 0; i < 4; ++i)
                            s[4 * v + i].V[idxs[i]] |=
                                p.mask & gate[i];
                    }
                }
                if (hm[v] != 0xf) {
                    for (unsigned i = 0; i < 4; ++i)
                        if (!(hm[v] & (1u << i)))
                            applyWriteDyn<WB>(mp[4 * v + i],
                                              s[4 * v + i],
                                              c[4 * v + i], p);
                }
            }
        }
    }

    alignas(32) std::uint64_t t[4];
    for (unsigned v = 0; v < NV; ++v) {
        BlockCounters* cv = c + 4 * v;
        storeLanes(t, read_full_v[v]);
        for (unsigned i = 0; i < 4; ++i) {
            cv[i].reads += t[i];
            cv[i].readHits += t[i];
        }
        storeLanes(t, write_hit_v[v]);
        for (unsigned i = 0; i < 4; ++i) {
            cv[i].writes += t[i];
            cv[i].writeHits += t[i];
            if (!WB) {
                cv[i].wtCount += t[i];
                cv[i].wtTx += t[i];
            }
        }
        storeLanes(t, extra_v[v]);
        for (unsigned i = 0; i < 4; ++i) {
            if (WB)
                cv[i].dirtyWrites += t[i];
            else
                cv[i].wtBytes += t[i];
        }
    }
    for (unsigned i = 0; i < NL; ++i)
        lanes[i]->absorb(c[i]);
}

#endif // JCACHE_SIMD_AVX2

/** One lane's scalar block replay, miss policy chosen once here. */
template <bool WB>
void
replayScalarLane(FastLane* lane, const Piece* P, std::size_t n)
{
    switch (lane->missPolicy()) {
      case WriteMissPolicy::FetchOnWrite:
        lane->replayScalar<WB, WriteMissPolicy::FetchOnWrite>(P, n);
        break;
      case WriteMissPolicy::WriteValidate:
        lane->replayScalar<WB, WriteMissPolicy::WriteValidate>(P, n);
        break;
      case WriteMissPolicy::WriteAround:
        lane->replayScalar<WB, WriteMissPolicy::WriteAround>(P, n);
        break;
      case WriteMissPolicy::WriteInvalidate:
        lane->replayScalar<WB, WriteMissPolicy::WriteInvalidate>(P, n);
        break;
    }
}

/**
 * Replay one decoded block through every lane of one hit-policy
 * group: vector tiles of four lanes when AVX2 is available, the
 * scalar kernel for the remainder (and for everything when it is
 * not).
 */
template <bool WB>
void
replayGroupT(const std::vector<FastLane*>& lanes, const Piece* P,
             std::size_t n)
{
    std::size_t i = 0;
#if JCACHE_SIMD_AVX2
    if (simd::avx2Enabled()) {
        for (; i + simd::kLanesPerVector <= lanes.size();
             i += simd::kLanesPerVector)
            replayTileAvx2<WB, 1>(&lanes[i], P, n);
    }
#endif
    for (; i < lanes.size(); ++i)
        replayScalarLane<WB>(lanes[i], P, n);
}

/** Dispatch one hit-policy group's block replay to its template. */
void
replayGroup(bool wb, const std::vector<FastLane*>& lanes,
            const Piece* P, std::size_t n)
{
    wb ? replayGroupT<true>(lanes, P, n)
       : replayGroupT<false>(lanes, P, n);
}

/**
 * Fallback lane: the reference DataCache behind a terminal traffic
 * meter.  Handles assoc > 1 and coarse valid-bit granularities.
 */
class GenericLane
{
  public:
    explicit GenericLane(const core::CacheConfig& c)
        : meter_(nullptr), cache_(c, meter_)
    {
    }

    void replay(const trace::TraceRecord* recs, std::size_t n)
    {
        for (std::size_t k = 0; k < n; ++k)
            cache_.access(recs[k]);
    }

    void flush() { cache_.flush(); }

    RunResult result(Count instructions) const
    {
        RunResult r;
        r.config = cache_.config();
        r.cache = cache_.stats();
        r.fetchTraffic = meter_.fetches();
        r.writeThroughTraffic = meter_.writeThroughs();
        r.writeBackTraffic = meter_.writeBacks();
        r.flushTraffic = meter_.flushBacks();
        r.instructions = instructions;
        return r;
    }

  private:
    mem::TrafficMeter meter_;
    core::DataCache cache_;
};

/** Fast lanes sharing one line size, split by hit policy. */
struct DecodeGroup
{
    unsigned lineShift = 0;
    std::vector<Piece> pieces;

    /** Write-back lanes and write-through lanes, tiled separately. */
    std::vector<FastLane*> wbLanes;
    std::vector<FastLane*> wtLanes;

    void add(FastLane* lane)
    {
        (lane->writeBack() ? wbLanes : wtLanes).push_back(lane);
    }
};

/** Can this fast-lane configuration join a size stack? */
bool
stackable(const core::CacheConfig& c)
{
    if (!fastLaneEligible(c))
        return false;
    if (c.hitPolicy == core::WriteHitPolicy::WriteBack)
        return c.missPolicy == WriteMissPolicy::FetchOnWrite;
    return c.missPolicy != WriteMissPolicy::WriteValidate;
}

/**
 * A size stack: direct-mapped, byte-granular caches that share the
 * trace, line size, hit policy and one of the four inclusive policy
 * pairs (WB + fetch-on-write; WT + fetch-on-write, write-around or
 * write-invalidate), one level per size, smallest first.
 *
 * Under those policies a line resident in one level is resident in
 * every larger level, a resident line is fully valid, and under WB
 * a level's dirty mask for a line contains every smaller level's
 * (docs/ENGINE.md proves all three).  So per piece the stack probes
 * levels from the smallest up and stops at the first tag hit k*:
 * every level from k* up hits, which is counted once in a histogram
 * over k*; only the levels below k* run miss handling.  Hit, miss,
 * fetch and write-through counts follow from the histograms when a
 * result is read; victims, dirty victims and invalidations are
 * counted per level as they happen.  No level keeps valid masks.
 */
class SizeStack
{
  public:
    /** `sizes` ascending and distinct; `base` supplies the rest. */
    SizeStack(const core::CacheConfig& base,
              const std::vector<Count>& sizes)
        : base_(base), wb_(base.hitPolicy == core::WriteHitPolicy::WriteBack),
          levels_(sizes.size()), readHist_(sizes.size() + 1, 0),
          writeHist_(sizes.size() + 1, 0), dirtyHist_(sizes.size() + 1, 0)
    {
        while ((1u << lineShift_) < base.lineBytes)
            ++lineShift_;
        for (std::size_t j = 0; j < sizes.size(); ++j) {
            const std::size_t lines = sizes[j] / base.lineBytes;
            levels_[j].tags.assign(lines, kNoTag);
            if (wb_)
                levels_[j].dirty.assign(lines, 0);
        }
    }

    /** Replay one block of records, policy chosen once here. */
    void replay(const trace::TraceRecord* recs, std::size_t n)
    {
        if (wb_) {
            replayT<true, WriteMissPolicy::FetchOnWrite>(recs, n);
            return;
        }
        switch (base_.missPolicy) {
          case WriteMissPolicy::FetchOnWrite:
            replayT<false, WriteMissPolicy::FetchOnWrite>(recs, n);
            break;
          case WriteMissPolicy::WriteAround:
            replayT<false, WriteMissPolicy::WriteAround>(recs, n);
            break;
          case WriteMissPolicy::WriteInvalidate:
            replayT<false, WriteMissPolicy::WriteInvalidate>(recs, n);
            break;
          case WriteMissPolicy::WriteValidate:
            break;  // never stacked: valid masks break inclusion
        }
    }

    /**
     * Level `j`'s result under `config` (a cell at that size), with
     * the end-of-trace flush of FastLane::flush() when `flush`.
     */
    RunResult result(std::size_t j, const core::CacheConfig& config,
                     bool flush, Count instructions) const
    {
        const bool fow =
            base_.missPolicy == WriteMissPolicy::FetchOnWrite;
        Count reads = 0, writes = 0, readHits = 0, writeHits = 0;
        Count dirtyWrites = 0;
        for (std::size_t k = 0; k < readHist_.size(); ++k) {
            reads += readHist_[k];
            writes += writeHist_[k];
            if (k <= j) {
                readHits += readHist_[k];
                writeHits += writeHist_[k];
                dirtyWrites += dirtyHist_[k];
            }
        }
        const Level& level = levels_[j];
        RunResult r;
        r.config = config;
        r.instructions = instructions;
        core::CacheStats& s = r.cache;
        s.reads = reads;
        s.readHits = readHits;
        s.readMisses = reads - readHits;
        s.writes = writes;
        s.writeHits = writeHits;
        s.writeMisses = writes - writeHits;
        s.writeMissFetches = fow ? s.writeMisses : 0;
        s.linesFetched = s.readMisses + s.writeMissFetches;
        s.writesToDirtyLines = dirtyWrites;
        s.writeThroughs = wb_ ? 0 : writes;
        s.invalidations = level.inval;
        s.victims = level.victims;
        s.dirtyVictims = level.dirtyVictims;
        s.dirtyVictimDirtyBytes = level.dvBytes;
        r.fetchTraffic.transactions = s.linesFetched;
        r.fetchTraffic.bytes = s.linesFetched * base_.lineBytes;
        r.writeThroughTraffic.transactions = s.writeThroughs;
        r.writeThroughTraffic.bytes = wb_ ? 0 : writeBytes_;
        r.writeBackTraffic.transactions = s.dirtyVictims;
        r.writeBackTraffic.bytes = s.dirtyVictimDirtyBytes;
        if (flush) {
            for (std::size_t i = 0; i < level.tags.size(); ++i) {
                if (level.tags[i] == kNoTag)
                    continue;
                ++s.flushedValidLines;
                if (wb_ && level.dirty[i] != 0) {
                    ++s.flushedDirtyLines;
                    s.flushedDirtyBytes += popcount(level.dirty[i]);
                }
            }
            r.flushTraffic.transactions = s.flushedDirtyLines;
            r.flushTraffic.bytes = s.flushedDirtyBytes;
        }
        return r;
    }

  private:
    /**
     * Most levels a stack can hold: sizes are validated powers of two
     * in 64 bits, so there are at most 64 distinct ones.
     */
    static constexpr std::size_t kMaxLevels = 64;

    /** One level's lines and the counters only it can keep. */
    struct Level
    {
        std::vector<Addr> tags;       //!< per line (kNoTag = empty)
        std::vector<ByteMask> dirty;  //!< per line (WB only)
        Count victims = 0, dirtyVictims = 0, dvBytes = 0, inval = 0;
    };

    template <bool WB, WriteMissPolicy MP>
    void replayT(const trace::TraceRecord* recs, std::size_t n)
    {
        // The level arrays and this block's counters live in locals,
        // which stores through the tag arrays cannot alias; they are
        // folded into the members once per block.
        const std::size_t K = levels_.size();
        Addr* T[kMaxLevels];
        ByteMask* D[kMaxLevels];
        std::uint64_t im[kMaxLevels];
        Count victims[kMaxLevels] = {}, dirtyVictims[kMaxLevels] = {};
        Count dvBytes[kMaxLevels] = {}, inval[kMaxLevels] = {};
        Count rh[kMaxLevels + 1] = {}, wh[kMaxLevels + 1] = {};
        Count dh[kMaxLevels + 1] = {};
        for (std::size_t j = 0; j < K; ++j) {
            T[j] = levels_[j].tags.data();
            D[j] = levels_[j].dirty.data();
            im[j] = levels_[j].tags.size() - 1;
        }
        const unsigned lineBytes = base_.lineBytes;
        const unsigned shift = lineShift_;
        const Addr lm = lineBytes - 1;
        Count writeBytes = 0;

        auto piece = [&](Addr la, ByteMask mask, unsigned size,
                         bool read) {
            // Probe from the smallest level up to the first tag hit
            // k*; each level that misses on the way runs its miss
            // handling (DataCache::evict and a fill, or an
            // invalidation).  The counters stay branch-free: an empty
            // line counts as no victim and a clean one adds no bytes.
            std::size_t k = 0;
            for (; k < K; ++k) {
                Addr& tag = T[k][la & im[k]];
                if (tag == la)
                    break;
                if (read || MP == WriteMissPolicy::FetchOnWrite) {
                    victims[k] += tag != kNoTag;
                    if (WB) {
                        ByteMask& dm = D[k][la & im[k]];
                        dirtyVictims[k] += dm != 0;
                        dvBytes[k] += popcount(dm);
                        dm = read ? 0 : mask;
                    }
                    tag = la;
                } else if (MP == WriteMissPolicy::WriteInvalidate) {
                    inval[k] += tag != kNoTag;
                    tag = kNoTag;
                }
            }
            if (read) {
                ++rh[k];
                return;
            }
            ++wh[k];
            writeBytes += size;
            if (WB) {
                // OR the piece into the hit levels' dirty masks,
                // noting the first level already dirty (d*).  A
                // level whose mask covers the piece ends the walk:
                // every larger level's mask contains it.
                std::size_t d = K;
                for (std::size_t j = k; j < K; ++j) {
                    ByteMask& dm = D[j][la & im[j]];
                    if (dm != 0) {
                        if (d == K)
                            d = j;
                        if ((dm & mask) == mask)
                            break;
                    }
                    dm |= mask;
                }
                ++dh[d];
            }
        };

        for (std::size_t r = 0; r < n; ++r) {
            const trace::TraceRecord& rec = recs[r];
            const bool read = rec.type == trace::RefType::Read;
            Addr addr = rec.addr;
            unsigned size = rec.size;
            unsigned off = static_cast<unsigned>(addr & lm);
            if (off + size <= lineBytes) [[likely]] {
                piece(addr >> shift, byteMaskFor(off, size), size, read);
                continue;
            }
            // A line-crossing record: split it as decodeBlock does.
            while (size != 0) {
                off = static_cast<unsigned>(addr & lm);
                const unsigned part =
                    size < lineBytes - off ? size : lineBytes - off;
                piece(addr >> shift, byteMaskFor(off, part), part, read);
                size -= part;
                addr += part;
            }
        }

        for (std::size_t j = 0; j < K; ++j) {
            levels_[j].victims += victims[j];
            levels_[j].dirtyVictims += dirtyVictims[j];
            levels_[j].dvBytes += dvBytes[j];
            levels_[j].inval += inval[j];
        }
        for (std::size_t k = 0; k <= K; ++k) {
            readHist_[k] += rh[k];
            writeHist_[k] += wh[k];
            dirtyHist_[k] += dh[k];
        }
        writeBytes_ += writeBytes;
    }

    core::CacheConfig base_;
    bool wb_;
    unsigned lineShift_ = 0;
    std::vector<Level> levels_;

    /** Pieces by the first level that hit (index K: none did). */
    std::vector<Count> readHist_, writeHist_;

    /** WB write pieces by the first hit level already dirty. */
    std::vector<Count> dirtyHist_;

    /** Bytes of all write pieces (WT write-through bytes). */
    Count writeBytes_ = 0;
};

} // namespace

LanePlan
planLanes(const std::vector<LaneSpec>& lanes)
{
    // Stack candidates keyed by (line size, hit policy, miss policy),
    // in first-seen order; a key with one distinct size stays alone.
    std::vector<std::vector<std::size_t>> candidates;
    std::vector<std::size_t> alone;
    for (std::size_t i = 0; i < lanes.size(); ++i) {
        const core::CacheConfig& c = lanes[i].config;
        if (!stackable(c)) {
            alone.push_back(i);
            continue;
        }
        std::vector<std::size_t>* group = nullptr;
        for (std::vector<std::size_t>& g : candidates) {
            const core::CacheConfig& h = lanes[g.front()].config;
            if (h.lineBytes == c.lineBytes &&
                h.hitPolicy == c.hitPolicy &&
                h.missPolicy == c.missPolicy) {
                group = &g;
                break;
            }
        }
        if (group)
            group->push_back(i);
        else
            candidates.push_back({i});
    }

    LanePlan plan;
    for (std::vector<std::size_t>& g : candidates) {
        bool several_sizes = false;
        for (std::size_t i : g)
            several_sizes |= lanes[i].config.sizeBytes !=
                             lanes[g.front()].config.sizeBytes;
        if (several_sizes)
            plan.stacks.push_back(std::move(g));
        else
            alone.insert(alone.end(), g.begin(), g.end());
    }
    std::sort(alone.begin(), alone.end());
    plan.alone = std::move(alone);
    return plan;
}

bool
fastLaneEligible(const core::CacheConfig& config)
{
    return config.assoc == 1 && config.validGranularity == 1;
}

std::vector<RunResult>
runTracePass(const trace::ReplaySource& source,
             const std::vector<LaneSpec>& lanes,
             std::size_t blockRecords)
{
    telemetry::Span span("sweep.trace_pass", "sim");
    span.arg("trace", source.name());
    span.arg("lanes", std::to_string(lanes.size()));

    struct Slot
    {
        std::unique_ptr<FastLane> fast;
        std::unique_ptr<GenericLane> generic;
        const SizeStack* stack = nullptr;
        std::size_t level = 0;  //!< this lane's level in `stack`
        bool flushAtEnd = false;
    };
    std::vector<Slot> slots(lanes.size());
    for (std::size_t i = 0; i < lanes.size(); ++i) {
        lanes[i].config.validate();
        slots[i].flushAtEnd = lanes[i].flushAtEnd;
    }

    // Each stack gets one level per distinct size; lanes at one size
    // (differing only in flush or replacement) share that level.
    const LanePlan plan = planLanes(lanes);
    std::vector<std::unique_ptr<SizeStack>> stacks;
    for (const std::vector<std::size_t>& members : plan.stacks) {
        std::vector<Count> sizes;
        for (std::size_t i : members)
            sizes.push_back(lanes[i].config.sizeBytes);
        std::sort(sizes.begin(), sizes.end());
        sizes.erase(std::unique(sizes.begin(), sizes.end()),
                    sizes.end());
        stacks.push_back(std::make_unique<SizeStack>(
            lanes[members.front()].config, sizes));
        for (std::size_t i : members) {
            slots[i].stack = stacks.back().get();
            slots[i].level = static_cast<std::size_t>(
                std::lower_bound(sizes.begin(), sizes.end(),
                                 lanes[i].config.sizeBytes) -
                sizes.begin());
        }
    }

    // Fast lanes sharing a line size share one decode of each block;
    // within a line size, lanes of one hit policy replay together so
    // the vector tiles agree on what a write hit does (the miss
    // policy is per-lane, consulted only off the fast path).
    std::map<unsigned, DecodeGroup> groups;
    for (std::size_t i : plan.alone) {
        if (fastLaneEligible(lanes[i].config)) {
            slots[i].fast =
                std::make_unique<FastLane>(lanes[i].config);
            DecodeGroup& group = groups[lanes[i].config.lineBytes];
            group.lineShift = slots[i].fast->lineShift();
            group.pieces.reserve(blockRecords == 0 ? 2
                                                   : blockRecords * 2);
            group.add(slots[i].fast.get());
        } else {
            slots[i].generic =
                std::make_unique<GenericLane>(lanes[i].config);
        }
    }

    Count instructions = 0;
    Count block_count = 0;
    std::unique_ptr<trace::BlockCursor> cursor =
        source.blocks(blockRecords);
    trace::TraceBlock block;
    while (cursor->next(block)) {
        ++block_count;
        for (std::size_t k = 0; k < block.count; ++k)
            instructions += block.records[k].instrDelta;
        for (std::unique_ptr<SizeStack>& stack : stacks)
            stack->replay(block.records, block.count);
        auto decodeAll = [&] {
            for (auto& [line_bytes, group] : groups)
                decodeBlock(block.records, block.count, line_bytes,
                            group.lineShift, group.pieces);
        };
        // Stacks and generic lanes read the records directly; only
        // fast lanes need the decode.
        if (!groups.empty() && telemetry::tracing()) {
            telemetry::Span decode("sweep.block_decode", "sim");
            decode.arg("records", std::to_string(block.count));
            decode.arg("line_sizes", std::to_string(groups.size()));
            decodeAll();
        } else {
            decodeAll();
        }
        for (auto& [line_bytes, group] : groups) {
            if (!group.wbLanes.empty())
                replayGroup(true, group.wbLanes, group.pieces.data(),
                            group.pieces.size());
            if (!group.wtLanes.empty())
                replayGroup(false, group.wtLanes, group.pieces.data(),
                            group.pieces.size());
        }
        for (Slot& slot : slots)
            if (slot.generic)
                slot.generic->replay(block.records, block.count);
    }

    std::vector<RunResult> results;
    results.reserve(lanes.size());
    for (std::size_t i = 0; i < lanes.size(); ++i) {
        Slot& slot = slots[i];
        if (slot.stack) {
            results.push_back(slot.stack->result(
                slot.level, lanes[i].config, slot.flushAtEnd,
                instructions));
        } else if (slot.fast) {
            if (slot.flushAtEnd)
                slot.fast->flush();
            results.push_back(slot.fast->result(instructions));
        } else {
            if (slot.flushAtEnd)
                slot.generic->flush();
            results.push_back(slot.generic->result(instructions));
        }
    }

    if (telemetry::armed()) {
        auto& reg = telemetry::Registry::instance();
        static telemetry::Counter& records = reg.counter(
            "jcache_engine_records_total",
            "Trace records decoded by the one-pass engine");
        static telemetry::Counter& blocks = reg.counter(
            "jcache_engine_blocks_total",
            "Trace blocks walked by the one-pass engine");
        records.inc(source.records());
        blocks.inc(block_count);
    }
    return results;
}

std::vector<RunResult>
runTracePass(const trace::Trace& trace,
             const std::vector<LaneSpec>& lanes,
             std::size_t blockRecords)
{
    trace::TraceReplaySource source(trace);
    return runTracePass(static_cast<const trace::ReplaySource&>(source),
                        lanes, blockRecords);
}

} // namespace jcache::sim
