/**
 * @file
 * Tests for the persistent content-addressed result store
 * (store/store.hh) and the canonical result keys (store/key.hh):
 * round trips, persistence across instances, torn blob tolerance,
 * LRU eviction seeded from mtimes, reuse of directories written by
 * older builds, the mid-put SIGKILL recovery property, key
 * versioning (an engine or API bump must miss, never alias), and a
 * concurrent get/put stress.
 */

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "service/result_cache.hh"
#include "store/key.hh"
#include "store/store.hh"
#include "util/fault.hh"

using namespace jcache;
using store::KeyContext;
using store::ResultStore;
using store::StoreConfig;

namespace
{

namespace fs = std::filesystem;

class StoreTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        dir_ = (fs::temp_directory_path() /
                ("jcache_store_test_" + std::to_string(::getpid())))
                   .string();
        fs::remove_all(dir_);
        config_.dir = dir_;
    }

    void TearDown() override
    {
        fault::reset();
        fs::remove_all(dir_);
    }

    /** Digest-shaped key: 16 hex chars, distinct per salt. */
    static std::string key(unsigned salt)
    {
        std::string digest = "00000000000000k0";
        digest[13] = static_cast<char>('a' + salt % 26);
        digest[15] = static_cast<char>('a' + (salt / 26) % 26);
        return digest;
    }

    std::string dir_;
    StoreConfig config_;
};

/** Count the *.jcr blobs currently on disk. */
std::size_t
blobsOnDisk(const std::string& dir)
{
    std::size_t count = 0;
    for (const auto& entry :
         fs::directory_iterator(fs::path(dir) / "objects")) {
        if (entry.path().extension() == ".jcr")
            ++count;
    }
    return count;
}

} // namespace

TEST_F(StoreTest, PutGetRoundTripsAndCounts)
{
    ResultStore store(config_);
    EXPECT_FALSE(store.get(key(1)).has_value());
    store.put(key(1), "payload-one");
    store.put(key(2), std::string(4096, 'x'));

    auto one = store.get(key(1));
    ASSERT_TRUE(one.has_value());
    EXPECT_EQ(*one, "payload-one");
    EXPECT_EQ(store.get(key(2)).value(), std::string(4096, 'x'));
    EXPECT_TRUE(store.contains(key(1)));
    EXPECT_FALSE(store.contains(key(3)));

    store::StoreStats stats = store.stats();
    EXPECT_EQ(stats.hits, 2u);
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.entries, 2u);
    EXPECT_GT(stats.occupancyBytes, 4096u);
    EXPECT_GT(stats.putBytes, 0u);
    EXPECT_DOUBLE_EQ(stats.hitRate(), 2.0 / 3.0);
}

TEST_F(StoreTest, RePutRefreshesInsteadOfDuplicating)
{
    ResultStore store(config_);
    store.put(key(1), "v1");
    std::uint64_t occupancy_v1 = store.stats().occupancyBytes;
    store.put(key(1), "version-two-longer");
    EXPECT_EQ(store.stats().entries, 1u);
    EXPECT_GT(store.stats().occupancyBytes, occupancy_v1);
    EXPECT_EQ(store.get(key(1)).value(), "version-two-longer");
    EXPECT_EQ(blobsOnDisk(dir_), 1u);
}

TEST_F(StoreTest, PersistsAcrossInstances)
{
    {
        ResultStore store(config_);
        store.put(key(1), "survives");
        store.put(key(2), "also survives");
    }
    ResultStore reopened(config_);
    EXPECT_EQ(reopened.stats().entries, 2u);
    EXPECT_EQ(reopened.get(key(1)).value(), "survives");
    EXPECT_EQ(reopened.get(key(2)).value(), "also survives");
    // A fresh open starts its session counters at zero.
    EXPECT_EQ(reopened.stats().hits, 2u);
    EXPECT_EQ(reopened.stats().misses, 0u);
}

TEST_F(StoreTest, TornBlobOnDiskIsDroppedAtOpen)
{
    {
        ResultStore store(config_);
        store.put(key(1), "good");
    }
    // A blob torn at the filesystem level: valid prefix, missing
    // tail — exactly what a crash between write and fsync leaves.
    std::ofstream(
        (fs::path(dir_) / "objects" / (key(9) + ".jcr")).string(),
        std::ios::binary)
        << "JCRO-this-is-not-a-valid-blob";

    ResultStore reopened(config_);
    store::StoreStats stats = reopened.stats();
    EXPECT_EQ(stats.entries, 1u);
    EXPECT_EQ(stats.tornBlobs, 1u);
    EXPECT_EQ(reopened.get(key(1)).value(), "good");
    // The corpse was deleted, not just skipped.
    EXPECT_EQ(blobsOnDisk(dir_), 1u);
}

TEST_F(StoreTest, TornWriteFaultSurfacesAsMissOnGet)
{
    ResultStore store(config_);
    store.put(key(1), "good");
    fault::configure("store.blob.torn=always");
    store.put(key(2), "will be torn on disk");
    fault::reset();

    // The torn blob passed put() accounting but fails validation on
    // read: dropped, deleted, reported as a miss — and the good
    // entry is untouched.
    EXPECT_FALSE(store.get(key(2)).has_value());
    EXPECT_GE(store.stats().tornBlobs, 1u);
    EXPECT_FALSE(store.contains(key(2)));
    EXPECT_EQ(store.get(key(1)).value(), "good");
    EXPECT_EQ(blobsOnDisk(dir_), 1u);
}

TEST_F(StoreTest, StaleTempFilesAreSweptAtOpen)
{
    {
        ResultStore store(config_);
        store.put(key(1), "kept");
    }
    std::string stale =
        (fs::path(dir_) / "objects" / (key(2) + ".jcr.tmp"))
            .string();
    std::ofstream(stale, std::ios::binary) << "half a blob";

    ResultStore reopened(config_);
    EXPECT_FALSE(fs::exists(stale));
    EXPECT_EQ(reopened.stats().entries, 1u);
}

TEST_F(StoreTest, LruEvictionStaysUnderCapAndDeletesFiles)
{
    std::string payload(1000, 'p');
    config_.capBytes = 3200; // fits ~3 framed 1000-byte blobs
    ResultStore store(config_);
    store.put(key(1), payload);
    store.put(key(2), payload);
    store.put(key(3), payload);
    // Refresh 1 so 2 is the least recently used, then overflow.
    EXPECT_TRUE(store.get(key(1)).has_value());
    store.put(key(4), payload);

    EXPECT_FALSE(store.contains(key(2)));
    EXPECT_TRUE(store.contains(key(1)));
    EXPECT_TRUE(store.contains(key(3)));
    EXPECT_TRUE(store.contains(key(4)));
    store::StoreStats stats = store.stats();
    EXPECT_EQ(stats.evictions, 1u);
    EXPECT_LE(stats.occupancyBytes, stats.capBytes);
    EXPECT_EQ(blobsOnDisk(dir_), 3u);
}

TEST_F(StoreTest, OversizedPayloadIsNotStored)
{
    config_.capBytes = 512;
    ResultStore store(config_);
    store.put(key(1), std::string(4096, 'x'));
    EXPECT_FALSE(store.contains(key(1)));
    EXPECT_EQ(store.stats().entries, 0u);
    EXPECT_EQ(store.stats().occupancyBytes, 0u);
}

TEST_F(StoreTest, MtimeSeedsRecencyAcrossReopen)
{
    {
        ResultStore store(config_);
        store.put(key(1), std::string(1000, 'a'));
        store.put(key(2), std::string(1000, 'b'));
        store.put(key(3), std::string(1000, 'c'));
    }
    // Reopen with a cap that forces one eviction on the next put;
    // the victim must be the oldest blob even though this instance
    // never saw the original access order.
    StoreConfig config = config_;
    config.capBytes = 3200;
    ResultStore reopened(config);
    EXPECT_TRUE(reopened.get(key(1)).has_value()); // refresh oldest
    reopened.put(key(4), std::string(1000, 'd'));
    EXPECT_TRUE(reopened.contains(key(1)));
    EXPECT_FALSE(reopened.contains(key(2)));
}

TEST_F(StoreTest, OlderIndexFileIsIgnoredAndMtimesSetRecency)
{
    // A directory as older builds left it: blobs plus an index.jci
    // of access counts.  The counts claim key 3 is the hottest entry;
    // the store must ignore them and rank by blob mtime alone.
    std::string payload(1000, 'p');
    {
        ResultStore store(config_);
        for (unsigned salt = 1; salt <= 3; ++salt)
            store.put(key(salt), payload);
    }
    std::string index = (fs::path(dir_) / "index.jci").string();
    {
        std::ofstream ofs(index, std::ios::trunc);
        ofs << "jcache-store-index 1\n"
            << key(1) << " 1032 1 1\n"
            << key(2) << " 1032 1 2\n"
            << key(3) << " 1032 500 3\n"
            << "end 3\n";
    }
    // Oldest to newest by mtime: key 3, key 1, key 2.
    auto now = fs::file_time_type::clock::now();
    auto age = [&](unsigned salt, int hours) {
        fs::last_write_time(fs::path(dir_) / "objects" /
                                (key(salt) + ".jcr"),
                            now - std::chrono::hours(hours));
    };
    age(3, 3);
    age(1, 2);
    age(2, 1);

    {
        ResultStore reopened(config_);
        store::StoreStats stats = reopened.stats();
        EXPECT_EQ(stats.entries, 3u);
        EXPECT_EQ(stats.tornBlobs, 0u);
        for (unsigned salt = 1; salt <= 3; ++salt)
            EXPECT_EQ(reopened.get(key(salt)).value(), payload);
        EXPECT_EQ(reopened.stats().hits, 3u);
    }

    // Lookups do not touch mtimes, so a fresh open sees the same
    // order: one put over a three-blob cap evicts key 3.
    StoreConfig config = config_;
    config.capBytes = 3200;
    ResultStore reopened(config);
    reopened.put(key(4), payload);
    EXPECT_FALSE(reopened.contains(key(3)));
    EXPECT_TRUE(reopened.contains(key(1)));
    EXPECT_TRUE(reopened.contains(key(2)));
    EXPECT_TRUE(reopened.contains(key(4)));
    EXPECT_EQ(reopened.stats().evictions, 1u);
    // The old index is left alone, neither read nor rewritten.
    EXPECT_TRUE(fs::exists(index));
}

TEST_F(StoreTest, CrashMidPutLeavesStoreOpenableWithSurvivors)
{
    {
        ResultStore store(config_);
        store.put(key(1), "survivor");
    }
    // The fault site dies by SIGKILL after writing half a temporary
    // — no unwind, no rename, exactly a mid-put power cut.
    EXPECT_EXIT(
        {
            fault::configure("store.put.crash=always");
            ResultStore store(config_);
            store.put(key(2), "never lands");
        },
        ::testing::KilledBySignal(SIGKILL), "");

    ResultStore reopened(config_);
    EXPECT_EQ(reopened.get(key(1)).value(), "survivor");
    EXPECT_FALSE(reopened.contains(key(2)));
    EXPECT_EQ(reopened.stats().entries, 1u);
    // The half-written temporary was swept at open.
    for (const auto& entry :
         fs::directory_iterator(fs::path(dir_) / "objects"))
        EXPECT_NE(entry.path().extension(), ".tmp");
}

TEST_F(StoreTest, ConcurrentGetPutEvictIsSafe)
{
    config_.capBytes = 64 * 1024;
    ResultStore store(config_);
    std::atomic<unsigned> failures{0};
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < 4; ++t) {
        threads.emplace_back([&, t] {
            std::string payload(512 + 97 * t, 'q');
            for (unsigned i = 0; i < 200; ++i) {
                unsigned salt = (t * 7 + i) % 32;
                if (i % 3 == 0) {
                    store.put(key(salt), payload);
                } else {
                    auto hit = store.get(key(salt));
                    if (hit && hit->empty())
                        failures.fetch_add(1);
                }
                if (i % 17 == 0)
                    store.contains(key(salt));
            }
        });
    }
    for (std::thread& thread : threads)
        thread.join();
    EXPECT_EQ(failures.load(), 0u);
    store::StoreStats stats = store.stats();
    EXPECT_LE(stats.occupancyBytes, stats.capBytes);
    EXPECT_EQ(stats.entries, blobsOnDisk(dir_));
}

// --- Canonical result keys -------------------------------------------

TEST(StoreKey, TextIsCanonicalAndVersioned)
{
    KeyContext ctx;
    std::string text = store::cellKeyText(
        ctx, "ccom#0011223344556677#1000", "8192|16|1|wt|fow|lru|1",
        false);
    // The text names every input: context, identity, config, flush.
    EXPECT_NE(text.find("cell|"), std::string::npos);
    EXPECT_NE(text.find("ev" + std::to_string(kEngineVersion)),
              std::string::npos);
    EXPECT_NE(text.find("ccom#0011223344556677#1000"),
              std::string::npos);
    EXPECT_NE(text.find("|f0"), std::string::npos);

    std::string digest = store::cellKey(
        ctx, "ccom#0011223344556677#1000", "8192|16|1|wt|fow|lru|1",
        false);
    EXPECT_EQ(digest.size(), 16u);
    EXPECT_EQ(digest.find_first_not_of("0123456789abcdef"),
              std::string::npos);
}

TEST(StoreKey, ContextTextIsStableAcrossReleases)
{
    // Stores written by earlier builds must keep hitting: the context
    // prefix, including its literal `onepass` replay-strategy segment,
    // is part of every key on disk.
    std::string text = store::cellKeyText(
        KeyContext{}, "ccom#0011223344556677#1000",
        "8192|16|1|wt|fow|lru|1", false);
    EXPECT_EQ(text, "cell|onepass|ev" + std::to_string(kEngineVersion) +
                        "|api" + std::to_string(kApiVersionMajor) +
                        "." + std::to_string(kApiVersionMinor) +
                        "|ccom#0011223344556677#1000"
                        "|8192|16|1|wt|fow|lru|1|f0");
}

TEST(StoreKey, EveryContextFieldChangesTheKey)
{
    KeyContext base;
    std::string identity = "ccom#0011223344556677#1000";
    std::string config_key = "8192|16|1|wt|fow|lru|1";
    std::string reference =
        store::cellKey(base, identity, config_key, false);

    KeyContext bumped_engine = base;
    bumped_engine.engineVersion = base.engineVersion + 1;
    EXPECT_NE(store::cellKey(bumped_engine, identity, config_key,
                             false),
              reference);

    KeyContext bumped_api = base;
    bumped_api.apiMinor = base.apiMinor + 1;
    EXPECT_NE(store::cellKey(bumped_api, identity, config_key, false),
              reference);

    EXPECT_NE(store::cellKey(base, identity, config_key, true),
              reference);
    EXPECT_NE(store::cellKey(base, "other#88#1", config_key, false),
              reference);
    EXPECT_NE(store::cellKey(base, identity, "4096|16|1|wt|fow|lru|1",
                             false),
              reference);
    // Same inputs, same key: the derivation is deterministic.
    EXPECT_EQ(store::cellKey(base, identity, config_key, false),
              reference);
}

TEST(StoreKey, EngineVersionBumpMissesInResultCache)
{
    // The satellite regression: a result cached by engine version N
    // must be a miss — not a stale hit — when the engine is bumped
    // to N+1, in both cache tiers (they share the key derivation).
    service::ResultCache cache(8);
    KeyContext v1;
    std::string identity = "ccom#0011223344556677#1000";
    std::string config_key = "8192|16|1|wt|fow|lru|1";
    cache.insert(store::cellKey(v1, identity, config_key, false),
                 "result from engine v" +
                     std::to_string(v1.engineVersion));

    KeyContext v2 = v1;
    v2.engineVersion = v1.engineVersion + 1;
    EXPECT_FALSE(
        cache.lookup(store::cellKey(v2, identity, config_key, false))
            .has_value());
    EXPECT_TRUE(
        cache.lookup(store::cellKey(v1, identity, config_key, false))
            .has_value());
}

TEST(StoreKey, SweepAndUploadKeysAreDistinctNamespaces)
{
    KeyContext ctx;
    std::string identity = "ccom#0011223344556677#1000";
    std::string config_key = "8192|16|1|wt|fow|lru|1";
    std::string cell =
        store::cellKey(ctx, identity, config_key, false);
    std::string sweep =
        store::sweepKey(ctx, identity, "size", config_key);
    std::string upload = store::uploadKey(ctx, "aabbccddeeff0011",
                                          "ccom", config_key, false);
    EXPECT_NE(cell, sweep);
    EXPECT_NE(cell, upload);
    EXPECT_NE(sweep, upload);
    EXPECT_NE(store::sweepKey(ctx, identity, "line", config_key),
              sweep);
}
