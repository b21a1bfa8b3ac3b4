/**
 * @file
 * Implementation of canonical result-key derivation.
 */

#include "store/key.hh"

#include "util/digest.hh"

namespace jcache::store
{

namespace
{

/**
 * The `onepass|ev<N>|api<major>.<minor>` context prefix.  `onepass`
 * names the replay strategy results are computed with; it is a
 * literal so keys stay byte-identical to stores written when the
 * strategy was selectable.
 */
std::string
contextText(const KeyContext& ctx)
{
    return "onepass|ev" +
           std::to_string(ctx.engineVersion) + "|api" +
           std::to_string(kApiVersionMajor) + "." +
           std::to_string(ctx.apiMinor);
}

} // namespace

std::string
cellKeyText(const KeyContext& ctx, const std::string& trace_identity,
            const std::string& config_key, bool flush)
{
    return "cell|" + contextText(ctx) + "|" + trace_identity + "|" +
           config_key + (flush ? "|f1" : "|f0");
}

std::string
cellKey(const KeyContext& ctx, const std::string& trace_identity,
        const std::string& config_key, bool flush)
{
    return util::fnv1aHex(
        cellKeyText(ctx, trace_identity, config_key, flush));
}

std::string
cellKey(const KeyContext& ctx, const sim::ResolvedTrace& resolved,
        const std::string& config_key, bool flush)
{
    return cellKey(ctx, resolved.identity, config_key, flush);
}

std::string
sweepKey(const KeyContext& ctx, const std::string& trace_identity,
         const std::string& axis, const std::string& config_key)
{
    return util::fnv1aHex("sweep|" + contextText(ctx) + "|" +
                          trace_identity + "|" + axis + "|" +
                          config_key);
}

std::string
sweepKey(const KeyContext& ctx, const sim::ResolvedTrace& resolved,
         const std::string& axis, const std::string& config_key)
{
    return sweepKey(ctx, resolved.identity, axis, config_key);
}

std::string
uploadKey(const KeyContext& ctx, const std::string& body_digest,
          const std::string& name, const std::string& config_key,
          bool flush)
{
    return util::fnv1aHex("upload|" + contextText(ctx) + "|" +
                          body_digest + "|" + name + "|" +
                          config_key + (flush ? "|f1" : "|f0"));
}

std::string
batchKey(const KeyContext& ctx, const std::string& trace_identity,
         const std::vector<std::string>& config_keys, bool flush)
{
    std::string text =
        "batch|" + contextText(ctx) + "|" + trace_identity;
    for (const std::string& key : config_keys)
        text += "|" + key;
    text += flush ? "|f1" : "|f0";
    return util::fnv1aHex(text);
}

} // namespace jcache::store
