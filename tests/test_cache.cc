/**
 * @file
 * Unit and property tests for the set-associative cache tag model:
 * lookup/fill semantics, LRU replacement, dirty-victim reporting,
 * in-flight (MSHR-style) merging, and whole-cache invalidation.
 */

#include <gtest/gtest.h>

#include <set>

#include "common/rng.hh"
#include "common/units.hh"
#include "mem/cache.hh"

namespace mcmgpu {
namespace {

CacheGeometry
smallGeo(uint64_t size = 16 * KiB, uint32_t ways = 4)
{
    CacheGeometry g;
    g.size_bytes = size;
    g.line_bytes = 128;
    g.ways = ways;
    g.hit_latency = 10;
    return g;
}

TEST(Cache, ColdMiss)
{
    Cache c(smallGeo(), "t.cold", true);
    EXPECT_EQ(c.lookup(0x1000, false, 0).outcome, CacheOutcome::Miss);
    EXPECT_EQ(c.statsGroup().get("misses"), 1.0);
}

TEST(Cache, FillThenHit)
{
    Cache c(smallGeo(), "t.fill", true);
    c.fill(0x1000, false, 5);
    CacheLookup r = c.lookup(0x1000, false, 10);
    EXPECT_EQ(r.outcome, CacheOutcome::Hit);
    EXPECT_EQ(c.statsGroup().get("hits"), 1.0);
}

TEST(Cache, SameLineDifferentOffsets)
{
    Cache c(smallGeo(), "t.offsets", true);
    c.fill(0x1000, false, 0);
    EXPECT_EQ(c.lookup(0x1000 + 64, false, 1).outcome, CacheOutcome::Hit);
    EXPECT_EQ(c.lookup(0x1000 + 127, false, 2).outcome,
              CacheOutcome::Hit);
    EXPECT_EQ(c.lookup(0x1000 + 128, false, 3).outcome,
              CacheOutcome::Miss);
}

TEST(Cache, HitPendingWhileInFlight)
{
    Cache c(smallGeo(), "t.pending", true);
    c.fill(0x2000, false, 100);
    CacheLookup r = c.lookup(0x2000, false, 50);
    EXPECT_EQ(r.outcome, CacheOutcome::HitPending);
    EXPECT_EQ(r.ready, 100u);
    // After arrival it is a plain hit.
    EXPECT_EQ(c.lookup(0x2000, false, 150).outcome, CacheOutcome::Hit);
}

TEST(Cache, PendingEntryClearedAfterFirstPostArrivalHit)
{
    Cache c(smallGeo(), "t.pending2", true);
    c.fill(0x2000, false, 100);
    EXPECT_EQ(c.lookup(0x2000, false, 120).outcome, CacheOutcome::Hit);
    EXPECT_EQ(c.lookup(0x2000, false, 121).outcome, CacheOutcome::Hit);
    EXPECT_EQ(c.statsGroup().get("hits_pending"), 0.0);
}

TEST(Cache, StoreMarksDirtyOnlyWhenWriteBack)
{
    Cache wb(smallGeo(), "t.wb", true);
    wb.fill(0x3000, true, 0);
    // Evict everything in that set: fill ways+ more conflicting lines.
    // With 4 ways and hashed sets we evict by filling many lines.
    bool saw_dirty_victim = false;
    for (Addr a = 0x100000; a < 0x200000; a += 128) {
        CacheVictim v = wb.fill(a, false, 1);
        if (v.valid && v.dirty && v.line_addr == 0x3000)
            saw_dirty_victim = true;
    }
    EXPECT_TRUE(saw_dirty_victim);

    Cache wt(smallGeo(), "t.wt", false);
    wt.fill(0x3000, true, 0);
    for (Addr a = 0x100000; a < 0x200000; a += 128) {
        CacheVictim v = wt.fill(a, false, 1);
        EXPECT_FALSE(v.valid && v.dirty)
            << "write-through caches never hold dirty lines";
    }
}

TEST(Cache, StoreHitDirtiesLine)
{
    Cache c(smallGeo(), "t.dirty", true);
    c.fill(0x4000, false, 0);
    c.lookup(0x4000, true, 1); // store hit
    bool saw_dirty = false;
    for (Addr a = 0x200000; a < 0x300000; a += 128) {
        CacheVictim v = c.fill(a, false, 2);
        if (v.valid && v.line_addr == 0x4000) {
            saw_dirty = v.dirty;
            break;
        }
    }
    EXPECT_TRUE(saw_dirty);
}

TEST(Cache, WriteLookupStatsSplitHitsAndMisses)
{
    Cache c(smallGeo(), "t.wstats", false);
    EXPECT_EQ(c.lookup(0x1000, true, 0).outcome, CacheOutcome::Miss);
    EXPECT_EQ(c.statsGroup().get("write_misses"), 1.0);
    c.fill(0x1000, false, 5);
    EXPECT_EQ(c.lookup(0x1000, true, 10).outcome, CacheOutcome::Hit);
    EXPECT_EQ(c.statsGroup().get("write_hits"), 1.0);
    EXPECT_EQ(c.statsGroup().get("write_misses"), 1.0);

    // Disabled caches probe-miss every store too.
    CacheGeometry off = smallGeo(0);
    Cache d(off, "t.wstats.off", false);
    d.lookup(0x1000, true, 0);
    EXPECT_EQ(d.statsGroup().get("write_misses"), 1.0);
}

TEST(Cache, StoreToPendingLineNeitherBlocksNorCorruptsTheFill)
{
    // Write-through level (L1/L1.5): a load fill is in flight, a store
    // to the same line races it. The store must count as a write hit,
    // must not dirty the line, and must leave the in-flight record
    // intact so racing loads still observe the fill latency.
    Cache c(smallGeo(), "t.wpending", false);
    c.fill(0x2000, false, 100); // load fill, arrives at t=100

    CacheLookup st = c.lookup(0x2000, true, 50);
    EXPECT_EQ(st.outcome, CacheOutcome::HitPending);
    EXPECT_EQ(st.ready, 100u) << "posted store must not stretch the fill";
    EXPECT_EQ(c.statsGroup().get("write_hits"), 1.0);

    CacheLookup ld = c.lookup(0x2000, false, 60);
    EXPECT_EQ(ld.outcome, CacheOutcome::HitPending);
    EXPECT_EQ(ld.ready, 100u) << "fill arrival unchanged by the store";
    EXPECT_EQ(c.lookup(0x2000, false, 150).outcome, CacheOutcome::Hit);

    // Write-through means the racing store never left dirt behind.
    for (Addr a = 0x300000; a < 0x400000; a += 128) {
        CacheVictim v = c.fill(a, false, 200);
        EXPECT_FALSE(v.valid && v.dirty);
    }
}

TEST(Cache, LruEvictsLeastRecentlyUsed)
{
    // Single-set cache: 4 ways, 4 lines.
    CacheGeometry g;
    g.size_bytes = 4 * 128;
    g.line_bytes = 128;
    g.ways = 4;
    g.hit_latency = 1;
    Cache c(g, "t.lru", true);

    Addr lines[5] = {0x0, 0x80, 0x100, 0x180, 0x200};
    for (int i = 0; i < 4; ++i)
        c.fill(lines[i], false, 0);
    // Touch lines 1..3 so line 0 is LRU.
    for (int i = 1; i < 4; ++i)
        c.lookup(lines[i], false, 1);
    c.fill(lines[4], false, 2); // evicts lines[0]
    EXPECT_EQ(c.lookup(lines[0], false, 3).outcome, CacheOutcome::Miss);
    for (int i = 1; i < 5; ++i) {
        EXPECT_EQ(c.lookup(lines[i], false, 3).outcome, CacheOutcome::Hit)
            << "line " << i;
    }
}

TEST(Cache, RefillOfPresentLineDoesNotEvict)
{
    CacheGeometry g;
    g.size_bytes = 4 * 128;
    g.line_bytes = 128;
    g.ways = 4;
    Cache c(g, "t.refill", true);
    for (Addr a = 0; a < 4 * 128; a += 128)
        c.fill(a, false, 0);
    CacheVictim v = c.fill(0x80, false, 1); // already present
    EXPECT_FALSE(v.valid);
    EXPECT_EQ(c.validLines(), 4u);
}

TEST(Cache, InvalidateAllDropsEverything)
{
    Cache c(smallGeo(), "t.inval", true);
    for (Addr a = 0; a < 8 * KiB; a += 128)
        c.fill(a, false, 0);
    EXPECT_GT(c.validLines(), 0u);
    c.invalidateAll();
    EXPECT_EQ(c.validLines(), 0u);
    EXPECT_EQ(c.lookup(0, false, 1).outcome, CacheOutcome::Miss);
    EXPECT_EQ(c.statsGroup().get("invalidations"), 1.0);
}

TEST(Cache, RepeatedFlushReuseKeepsStateCoherent)
{
    // The flush is an epoch bump, not a tag sweep: lines filled before
    // a flush must stay dead however their stale way contents look, and
    // refills after the flush must behave like a cold cache — including
    // in-flight fill tracking and dirty-victim accounting.
    Cache c(smallGeo(), "t.epoch", true);
    for (int round = 0; round < 4; ++round) {
        for (Addr a = 0; a < 8 * KiB; a += 128)
            c.fill(a, true, 5); // dirty, in flight until cycle 5
        EXPECT_EQ(c.lookup(0, false, 2).outcome, CacheOutcome::HitPending);
        EXPECT_EQ(c.lookup(0, false, 9).outcome, CacheOutcome::Hit);
        c.invalidateAll();
        EXPECT_EQ(c.validLines(), 0u);
        // Dead lines: miss, and no stale pending record resurfaces.
        EXPECT_EQ(c.lookup(0, false, 9).outcome, CacheOutcome::Miss);
        // A post-flush refill of a previously-dirty line evicts nothing.
        CacheVictim v = c.fill(0, true, 12);
        EXPECT_FALSE(v.valid);
        EXPECT_EQ(c.lookup(0, false, 10).outcome,
                  CacheOutcome::HitPending);
        c.invalidateAll();
    }
    EXPECT_EQ(c.statsGroup().get("invalidations"), 8.0);
}

TEST(Cache, DisabledCacheAlwaysMisses)
{
    CacheGeometry g;
    g.size_bytes = 0;
    Cache c(g, "t.off", false);
    EXPECT_FALSE(c.enabled());
    EXPECT_EQ(c.lookup(0x1000, false, 0).outcome, CacheOutcome::Miss);
    CacheVictim v = c.fill(0x1000, false, 10);
    EXPECT_FALSE(v.valid);
    EXPECT_EQ(c.lookup(0x1000, false, 20).outcome, CacheOutcome::Miss);
}

TEST(Cache, HitRateAccounting)
{
    Cache c(smallGeo(), "t.rate", true);
    c.fill(0x0, false, 0);
    c.lookup(0x0, false, 1);  // hit
    c.lookup(0x80, false, 1); // miss
    EXPECT_DOUBLE_EQ(c.hitRate(), 0.5);
}

TEST(Cache, BadLineSizePanics)
{
    CacheGeometry g = smallGeo();
    g.line_bytes = 100; // not a power of two
    EXPECT_ANY_THROW(Cache(g, "t.bad", true));
}

TEST(Cache, CapacityBelowOneSetPanics)
{
    CacheGeometry g;
    g.size_bytes = 128; // one line, but 4 ways of 128B needed
    g.line_bytes = 128;
    g.ways = 4;
    EXPECT_ANY_THROW(Cache(g, "t.tiny", true));
}

/** Property: prefetch() is a host hint only. The same random sequence
 *  of lookups, fills and flushes, with prefetches mixed into one copy,
 *  gives identical outcomes, victims, stats and occupancy. */
class CachePrefetch : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(CachePrefetch, ChangesNoOutcome)
{
    const uint64_t seed = GetParam();
    const bool write_back = seed % 2 == 0;
    // 4 KiB, 4-way: 8 sets, so conflicts, evictions and in-flight
    // merges all happen within a few hundred operations.
    Cache plain(smallGeo(4 * KiB, 4), "t.pf", write_back);
    Cache hinted(smallGeo(4 * KiB, 4), "t.pf", write_back);

    Rng rng(seed);
    for (Cycle t = 0; t < 20000; ++t) {
        const Addr a = rng.below(64 * KiB);
        if (rng.chance(0.5))
            hinted.prefetch(rng.below(64 * KiB));
        const uint64_t op = rng.below(16);
        if (op < 9) {
            const bool is_store = rng.chance(0.3);
            const CacheLookup x = plain.lookup(a, is_store, t);
            const CacheLookup y = hinted.lookup(a, is_store, t);
            ASSERT_EQ(x.outcome, y.outcome) << "op " << t;
            ASSERT_EQ(x.ready, y.ready) << "op " << t;
        } else if (op < 15) {
            const bool is_store = rng.chance(0.3);
            const Cycle ready = t + rng.below(200);
            const CacheVictim x = plain.fill(a, is_store, ready);
            const CacheVictim y = hinted.fill(a, is_store, ready);
            ASSERT_EQ(x.valid, y.valid) << "op " << t;
            ASSERT_EQ(x.dirty, y.dirty) << "op " << t;
            ASSERT_EQ(x.line_addr, y.line_addr) << "op " << t;
        } else if (rng.chance(0.1)) {
            plain.invalidateAll();
            hinted.invalidateAll();
        }
        ASSERT_EQ(plain.validLines(), hinted.validLines()) << "op " << t;
    }

    const auto &ps = plain.statsGroup().scalars();
    const auto &hs = hinted.statsGroup().scalars();
    ASSERT_EQ(ps.size(), hs.size());
    for (size_t i = 0; i < ps.size(); ++i)
        EXPECT_EQ(ps[i].value(), hs[i].value()) << ps[i].name();
    EXPECT_GT(plain.statsGroup().get("hits"), 0.0);
    EXPECT_GT(plain.statsGroup().get("hits_pending"), 0.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CachePrefetch,
                         ::testing::Values(1u, 2u, 3u, 4u));

TEST(Cache, PrefetchOnDisabledCacheDoesNothing)
{
    CacheGeometry g;
    g.size_bytes = 0;
    Cache c(g, "t.off", true);
    for (Addr a = 0; a < 64 * KiB; a += 96)
        c.prefetch(a);
    EXPECT_EQ(c.validLines(), 0u);
    for (const auto &s : c.statsGroup().scalars())
        EXPECT_EQ(s.value(), 0.0) << s.name();
    EXPECT_EQ(c.lookup(0x1000, false, 0).outcome, CacheOutcome::Miss);
}

/** Property: occupancy never exceeds capacity, for many geometries. */
class CacheOccupancy
    : public ::testing::TestWithParam<std::tuple<uint64_t, uint32_t>>
{
};

TEST_P(CacheOccupancy, NeverExceedsCapacity)
{
    auto [size, ways] = GetParam();
    CacheGeometry g;
    g.size_bytes = size;
    g.line_bytes = 128;
    g.ways = ways;
    Cache c(g, "t.occ", true);
    const uint64_t capacity_lines = size / 128;

    Rng rng(size * 31 + ways);
    for (int i = 0; i < 20000; ++i) {
        Addr a = (rng.next() % (4 * MiB)) & ~127ull;
        if (c.lookup(a, rng.chance(0.3), i).outcome == CacheOutcome::Miss)
            c.fill(a, false, i);
        ASSERT_LE(c.validLines(), capacity_lines);
    }
    // A working set larger than the cache should fill it completely.
    EXPECT_EQ(c.validLines(), capacity_lines);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheOccupancy,
    ::testing::Combine(::testing::Values(8 * KiB, 64 * KiB, 256 * KiB),
                       ::testing::Values(1u, 2u, 4u, 16u)));

/** Property: after filling N distinct lines < capacity, all remain. */
class CacheRetention : public ::testing::TestWithParam<uint32_t>
{
};

TEST_P(CacheRetention, SmallWorkingSetFullyRetained)
{
    // 64 KiB, 8-way: 512 lines. Insert GetParam() << 512 lines and
    // verify every one of them still hits (no premature eviction).
    CacheGeometry g;
    g.size_bytes = 64 * KiB;
    g.line_bytes = 128;
    g.ways = 8;
    Cache c(g, "t.retain", true);

    const uint32_t n = GetParam();
    Rng rng(n);
    std::set<Addr> lines;
    while (lines.size() < n)
        lines.insert((rng.next() % (64 * MiB)) & ~127ull);
    for (Addr a : lines)
        c.fill(a, false, 0);
    // With random set indices a few conflict evictions are possible
    // only if some set receives > ways inserts; for n far below
    // capacity this is overwhelmingly unlikely with 64 sets — require
    // at least 95% retention and full tag-count consistency.
    uint32_t hits = 0;
    for (Addr a : lines) {
        if (c.lookup(a, false, 1).outcome == CacheOutcome::Hit)
            ++hits;
    }
    EXPECT_GE(hits, n * 95 / 100);
}

INSTANTIATE_TEST_SUITE_P(WorkingSets, CacheRetention,
                         ::testing::Values(8u, 32u, 64u, 128u));

} // namespace
} // namespace mcmgpu
