/**
 * @file
 * Canonical result keys for the memory cache and the persistent
 * store.
 *
 * A simulation result is pure: it is fully determined by the trace
 * replayed, the cell configuration, the end-of-run flush choice —
 * and by the code that produced it.  A result key therefore digests
 * all of them:
 *
 *   - the trace identity (`trace::traceIdentity()`: name, content
 *     digest, record count), so renaming or regenerating a workload
 *     differently can never alias;
 *   - the canonical configuration key
 *     (`service::canonicalConfigKey()`);
 *   - the KeyContext: engine semantic version
 *     (`util/version.hh kEngineVersion`) and API minor — so a result
 *     computed by an older engine or an older wire schema is a
 *     *miss*, never silently served.  The context text also carries
 *     a literal `onepass` segment, the replay strategy that every
 *     tool and the service run; keeping it keeps existing stores
 *     valid.
 *
 * Every tier keys by the same derivation: the in-memory ResultCache,
 * the on-disk ResultStore, the jcached request handlers and
 * `jcache-sweep --store-dir` all call these functions, which is
 * what lets a daemon restart or an offline sweep reuse each other's
 * work.
 */

#ifndef JCACHE_STORE_KEY_HH
#define JCACHE_STORE_KEY_HH

#include <string>
#include <vector>

#include "sim/trace_ref.hh"
#include "util/version.hh"

namespace jcache::store
{

/**
 * The code-identity half of a result key.  Defaults describe the
 * running binary; tests construct foreign contexts to prove that a
 * version bump misses.
 */
struct KeyContext
{
    /** Engine semantic version (util/version.hh kEngineVersion). */
    unsigned engineVersion = kEngineVersion;

    /** API minor of the wire result schema. */
    unsigned apiMinor = kApiVersionMinor;
};

/**
 * Canonical key text of one simulation cell (a single Request):
 * `cell|<ctx>|<trace identity>|<config key>|f0/f1`.  The digest of
 * this text addresses the result in both cache tiers.
 */
std::string cellKeyText(const KeyContext& ctx,
                        const std::string& trace_identity,
                        const std::string& config_key, bool flush);

/** digestKey() of cellKeyText(): the 16-hex cell result key. */
std::string cellKey(const KeyContext& ctx,
                    const std::string& trace_identity,
                    const std::string& config_key, bool flush);

/** cellKey() of a TraceRepository resolution (uses its identity). */
std::string cellKey(const KeyContext& ctx,
                    const sim::ResolvedTrace& resolved,
                    const std::string& config_key, bool flush);

/**
 * The 16-hex key of a whole-sweep response payload (one axis
 * expanded over one trace): digests the axis name alongside the
 * usual trace/config/context fields.
 */
std::string sweepKey(const KeyContext& ctx,
                     const std::string& trace_identity,
                     const std::string& axis,
                     const std::string& config_key);

/** sweepKey() of a TraceRepository resolution (uses its identity). */
std::string sweepKey(const KeyContext& ctx,
                     const sim::ResolvedTrace& resolved,
                     const std::string& axis,
                     const std::string& config_key);

/**
 * The 16-hex key of an uploaded-trace run.  Uploads are keyed before
 * the body is parsed (so a repeated upload hits without re-import):
 * the identity is the digest of the encoded body plus the
 * client-chosen display name, which participates because it appears
 * in the rendered payload.
 */
std::string uploadKey(const KeyContext& ctx,
                      const std::string& body_digest,
                      const std::string& name,
                      const std::string& config_key, bool flush);

/**
 * The 16-hex key of a `batch` response payload (an explicit list of
 * cells over one trace): digests every cell's canonical config key
 * in order, so the same cells in a different order are a different
 * batch.
 */
std::string batchKey(const KeyContext& ctx,
                     const std::string& trace_identity,
                     const std::vector<std::string>& config_keys,
                     bool flush);

} // namespace jcache::store

#endif // JCACHE_STORE_KEY_HH
