/**
 * @file
 * Tests for the set-associative cache model.
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "uarch/cache.h"
#include "uarch/core.h"

namespace mtperf::uarch {
namespace {

CacheConfig
tinyCache(std::uint32_t size, std::uint32_t assoc)
{
    CacheConfig c;
    c.name = "tiny";
    c.sizeBytes = size;
    c.associativity = assoc;
    c.lineBytes = 64;
    return c;
}

TEST(Cache, ColdMissThenHit)
{
    Cache cache(tinyCache(1024, 2));
    EXPECT_FALSE(cache.access(0x1000));
    EXPECT_TRUE(cache.access(0x1000));
    EXPECT_TRUE(cache.access(0x103F)); // same line
    EXPECT_EQ(cache.accesses(), 3u);
    EXPECT_EQ(cache.misses(), 1u);
}

TEST(Cache, DistinctLinesMissSeparately)
{
    Cache cache(tinyCache(1024, 2));
    EXPECT_FALSE(cache.access(0x0));
    EXPECT_FALSE(cache.access(0x40));
    EXPECT_TRUE(cache.access(0x0));
    EXPECT_TRUE(cache.access(0x40));
}

TEST(Cache, LruEvictionOrder)
{
    // Direct-mapped-like conflict: 1 set x 2 ways (128 B, 2-way).
    Cache cache(tinyCache(128, 2));
    // Three lines mapping to the same (only) set.
    cache.access(0x000);
    cache.access(0x040);
    cache.access(0x080); // evicts 0x000 (LRU)
    EXPECT_FALSE(cache.access(0x000));
    // Now 0x040 was LRU and got evicted by the re-fill of 0x000.
    EXPECT_FALSE(cache.access(0x040));
}

TEST(Cache, LruUpdatedOnHit)
{
    Cache cache(tinyCache(128, 2));
    cache.access(0x000);
    cache.access(0x040);
    cache.access(0x000); // refresh 0x000; 0x040 becomes LRU
    cache.access(0x080); // evicts 0x040
    EXPECT_TRUE(cache.probe(0x000));
    EXPECT_FALSE(cache.probe(0x040));
}

TEST(Cache, ProbeDoesNotDisturbState)
{
    Cache cache(tinyCache(128, 2));
    cache.access(0x000);
    cache.access(0x040);
    // Probing 0x000 must not refresh it.
    EXPECT_TRUE(cache.probe(0x000));
    cache.access(0x080); // still evicts 0x000 as LRU
    EXPECT_FALSE(cache.probe(0x000));
    EXPECT_EQ(cache.accesses(), 3u);
}

TEST(Cache, FillDoesNotCountDemand)
{
    Cache cache(tinyCache(1024, 2));
    cache.fill(0x1000);
    EXPECT_EQ(cache.accesses(), 0u);
    EXPECT_EQ(cache.misses(), 0u);
    EXPECT_TRUE(cache.access(0x1000));
}

TEST(Cache, NextLinePrefetchHidesSequentialMisses)
{
    CacheConfig c = tinyCache(4096, 4);
    c.nextLinePrefetch = true;
    c.prefetchDegree = 1;
    Cache cache(c);
    cache.access(0x0000);          // miss, prefetches 0x0040
    EXPECT_TRUE(cache.access(0x0040));
    EXPECT_EQ(cache.prefetchFills(), 1u);
}

TEST(Cache, PrefetchDegreeFetchesAhead)
{
    CacheConfig c = tinyCache(4096, 4);
    c.nextLinePrefetch = true;
    c.prefetchDegree = 3;
    Cache cache(c);
    cache.access(0x0000);
    EXPECT_TRUE(cache.probe(0x0040));
    EXPECT_TRUE(cache.probe(0x0080));
    EXPECT_TRUE(cache.probe(0x00C0));
    EXPECT_FALSE(cache.probe(0x0100));
}

TEST(Cache, StridedStreamMissRatioWithoutPrefetch)
{
    // Working set 4x the cache: every line eventually misses.
    Cache cache(tinyCache(4096, 4));
    for (int pass = 0; pass < 4; ++pass)
        for (Addr a = 0; a < 16384; a += 64)
            cache.access(a);
    EXPECT_DOUBLE_EQ(cache.missRatio(), 1.0);
}

TEST(Cache, FitsWorkingSetAfterWarmup)
{
    Cache cache(tinyCache(4096, 4));
    for (Addr a = 0; a < 4096; a += 64)
        cache.access(a); // warm
    const auto misses_before = cache.misses();
    for (int pass = 0; pass < 10; ++pass)
        for (Addr a = 0; a < 4096; a += 64)
            cache.access(a);
    EXPECT_EQ(cache.misses(), misses_before);
}

TEST(Cache, ResetClearsEverything)
{
    Cache cache(tinyCache(1024, 2));
    cache.access(0x0);
    cache.reset();
    EXPECT_EQ(cache.accesses(), 0u);
    EXPECT_EQ(cache.misses(), 0u);
    EXPECT_FALSE(cache.probe(0x0));
}

TEST(Cache, MissRatioZeroWithoutAccesses)
{
    Cache cache(tinyCache(1024, 2));
    EXPECT_DOUBLE_EQ(cache.missRatio(), 0.0);
}

TEST(Cache, GeometryValidation)
{
    CacheConfig bad_line = tinyCache(1024, 2);
    bad_line.lineBytes = 48;
    EXPECT_THROW(Cache{bad_line}, FatalError);

    CacheConfig bad_assoc = tinyCache(1024, 0);
    EXPECT_THROW(Cache{bad_assoc}, FatalError);

    CacheConfig bad_size = tinyCache(1024 + 64, 2);
    EXPECT_THROW(Cache{bad_size}, FatalError);
}

class CacheGeometryTest
    : public testing::TestWithParam<std::pair<std::uint32_t, std::uint32_t>>
{
};

TEST_P(CacheGeometryTest, CapacityBehaviour)
{
    const auto [size, assoc] = GetParam();
    Cache cache(tinyCache(size, assoc));
    const Addr lines = size / 64;
    // Fill exactly to capacity, then re-touch: all hits.
    for (Addr i = 0; i < lines; ++i)
        cache.access(i * 64);
    for (Addr i = 0; i < lines; ++i)
        EXPECT_TRUE(cache.access(i * 64));
    EXPECT_EQ(cache.misses(), lines);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, CacheGeometryTest,
    testing::Values(std::pair<std::uint32_t, std::uint32_t>{512, 1},
                    std::pair<std::uint32_t, std::uint32_t>{1024, 2},
                    std::pair<std::uint32_t, std::uint32_t>{4096, 4},
                    std::pair<std::uint32_t, std::uint32_t>{32768, 8},
                    std::pair<std::uint32_t, std::uint32_t>{4096, 16}));

/**
 * The cache as it stood before the shared tag array: an array of
 * {tag, lastUse, valid} structs with two true-LRU loops. Kept here as
 * the oracle the struct-of-arrays tags must agree with, slot for slot.
 */
class ReferenceCache
{
  public:
    explicit ReferenceCache(const CacheConfig &config)
        : config_(config),
          numSets_(static_cast<std::uint32_t>(
              config.sizeBytes / config.lineBytes / config.associativity)),
          lines_(config.sizeBytes / config.lineBytes)
    {
        while ((Addr{1} << lineShift_) < config.lineBytes)
            ++lineShift_;
    }

    bool access(Addr addr)
    {
        ++accesses;
        const bool hit = lookupTracked(addr, true).hit;
        if (!hit) {
            ++misses;
            if (config_.nextLinePrefetch) {
                for (std::uint32_t d = 1; d <= config_.prefetchDegree; ++d)
                    lookupTracked(addr + d * std::uint64_t(config_.lineBytes),
                                  false);
            }
        }
        return hit;
    }

    CacheAccessOutcome accessTracked(Addr addr)
    {
        ++accesses;
        CacheAccessOutcome out = lookupTracked(addr, true);
        misses += !out.hit;
        return out;
    }

    CacheAccessOutcome fillTracked(Addr addr)
    {
        return lookupTracked(addr, false);
    }

    bool probe(Addr addr) const
    {
        const Addr line_addr = addr >> lineShift_;
        const Line *base = setBase(line_addr);
        for (std::uint32_t w = 0; w < config_.associativity; ++w) {
            if (base[w].valid && base[w].tag == line_addr)
                return true;
        }
        return false;
    }

    void reset()
    {
        for (auto &line : lines_)
            line = Line{};
        useClock_ = 0;
        accesses = 0;
        misses = 0;
        prefetchFills = 0;
    }

    std::uint64_t accesses = 0;
    std::uint64_t misses = 0;
    std::uint64_t prefetchFills = 0;

  private:
    struct Line
    {
        Addr tag = ~0ULL;
        std::uint64_t lastUse = 0;
        bool valid = false;
    };

    const Line *setBase(Addr line_addr) const
    {
        return lines_.data() +
               static_cast<std::size_t>(line_addr & (numSets_ - 1)) *
                   config_.associativity;
    }

    CacheAccessOutcome lookupTracked(Addr addr, bool demand)
    {
        const Addr line_addr = addr >> lineShift_;
        Line *base = const_cast<Line *>(setBase(line_addr));
        ++useClock_;
        CacheAccessOutcome out;
        for (std::uint32_t w = 0; w < config_.associativity; ++w) {
            Line &line = base[w];
            if (line.valid && line.tag == line_addr) {
                line.lastUse = useClock_;
                out.hit = true;
                out.lineIndex =
                    static_cast<std::uint32_t>(&line - lines_.data());
                return out;
            }
        }
        Line *victim = base;
        for (std::uint32_t w = 1; w < config_.associativity; ++w) {
            if (!base[w].valid) {
                victim = &base[w];
                break;
            }
            if (base[w].lastUse < victim->lastUse)
                victim = &base[w];
        }
        if (victim->valid) {
            out.evictedValid = true;
            out.evictedLineAddr = victim->tag;
        }
        victim->valid = true;
        victim->tag = line_addr;
        victim->lastUse = useClock_;
        if (!demand)
            ++prefetchFills;
        out.lineIndex = static_cast<std::uint32_t>(victim - lines_.data());
        return out;
    }

    CacheConfig config_;
    std::uint32_t numSets_;
    std::uint32_t lineShift_ = 0;
    std::vector<Line> lines_;
    std::uint64_t useClock_ = 0;
};

void
expectSameOutcome(const CacheAccessOutcome &got,
                  const CacheAccessOutcome &want, int op)
{
    EXPECT_EQ(got.hit, want.hit) << "op " << op;
    EXPECT_EQ(got.lineIndex, want.lineIndex) << "op " << op;
    EXPECT_EQ(got.evictedValid, want.evictedValid) << "op " << op;
    EXPECT_EQ(got.evictedLineAddr, want.evictedLineAddr) << "op " << op;
}

/**
 * Drive a Cache and a ReferenceCache with one seeded stream of
 * access/fill/accessTracked/fillTracked/probe calls and an occasional
 * reset(), requiring the same answer from every call. Addresses fall
 * in eight hot sets with three times as many lines as ways, so every
 * set fills from empty, conflicts and evicts; one address in four is
 * anywhere in a region twice the cache, so the prefetcher's
 * neighbouring sets fill too. Every 10,000 ops both are reset,
 * starting at op 5,000.
 */
void
compareCacheStream(const CacheConfig &config, std::uint64_t seed, int ops)
{
    Cache cache(config);
    ReferenceCache ref(config);
    Rng rng(seed);
    const std::uint64_t sets = cache.numSets();
    const std::uint64_t lines = config.sizeBytes / config.lineBytes;
    std::uint64_t evictions = 0;
    auto same_counters = [&] {
        EXPECT_EQ(cache.accesses(), ref.accesses);
        EXPECT_EQ(cache.misses(), ref.misses);
        EXPECT_EQ(cache.prefetchFills(), ref.prefetchFills);
    };
    for (int i = 0; i < ops; ++i) {
        std::uint64_t line;
        if (rng.chance(0.25)) {
            line = rng.uniformInt(2 * lines);
        } else {
            // A hot set, and one of 3 * ways lines that map to it.
            const std::uint64_t set =
                rng.uniformInt(std::uint64_t{8}) * (sets / 8 + 1) % sets;
            const std::uint64_t ways = config.associativity;
            line = set + sets * rng.uniformInt(3 * ways);
        }
        const Addr addr = line * config.lineBytes +
                          rng.uniformInt(std::uint64_t{config.lineBytes});
        const std::uint64_t kind = rng.uniformInt(std::uint64_t{20});
        if (kind < 6) {
            EXPECT_EQ(cache.access(addr), ref.access(addr)) << "op " << i;
        } else if (kind < 11) {
            const CacheAccessOutcome want = ref.accessTracked(addr);
            expectSameOutcome(cache.accessTracked(addr), want, i);
            evictions += want.evictedValid;
        } else if (kind < 16) {
            const CacheAccessOutcome want = ref.fillTracked(addr);
            expectSameOutcome(cache.fillTracked(addr), want, i);
            evictions += want.evictedValid;
        } else if (kind < 18) {
            cache.fill(addr);
            ref.fillTracked(addr);
        } else {
            EXPECT_EQ(cache.probe(addr), ref.probe(addr)) << "op " << i;
        }
        if (i % 10000 == 4999) {
            same_counters();
            cache.reset();
            ref.reset();
        }
        if (testing::Test::HasFailure())
            return;
    }
    same_counters();
    EXPECT_GT(cache.misses(), 0u);
    EXPECT_LT(cache.misses(), cache.accesses());
    EXPECT_GT(evictions, 0u);
    if (config.nextLinePrefetch) {
        EXPECT_GT(cache.prefetchFills(), 0u);
    }
}

TEST(CacheReference, L1iMatchesReferenceLoops)
{
    for (std::uint64_t seed = 1; seed <= 3; ++seed)
        compareCacheStream(CoreConfig{}.l1i, seed, 40000);
}

TEST(CacheReference, L1dMatchesReferenceLoops)
{
    for (std::uint64_t seed = 1; seed <= 3; ++seed)
        compareCacheStream(CoreConfig{}.l1d, seed * 7, 40000);
}

TEST(CacheReference, L2WithPrefetchMatchesReferenceLoops)
{
    const CacheConfig l2 = CoreConfig{}.l2;
    ASSERT_TRUE(l2.nextLinePrefetch);
    ASSERT_EQ(l2.prefetchDegree, 6u);
    for (std::uint64_t seed = 1; seed <= 3; ++seed)
        compareCacheStream(l2, seed * 13, 40000);
}

TEST(CacheReference, SmallShapesMatchReferenceLoops)
{
    for (const auto &[size, assoc] :
         {std::pair<std::uint32_t, std::uint32_t>{512, 1},
          {1024, 2},
          {4096, 4},
          {4096, 64},
          {8192, 128}})
        compareCacheStream(tinyCache(size, assoc), size + assoc, 20000);
}

TEST(CacheReference, EmptySetFillsFromWayOneThenWayZero)
{
    // One 4-way set: the victim is the first invalid way scanning from
    // way 1, so cold fills land in ways 1, 2, 3 and only then way 0;
    // the fifth line evicts the least recent, the way-1 line.
    Cache cache(tinyCache(256, 4));
    const std::uint32_t expected[] = {1, 2, 3, 0, 1};
    for (Addr i = 0; i < 5; ++i) {
        const CacheAccessOutcome out = cache.fillTracked((i + 1) * 64);
        EXPECT_FALSE(out.hit);
        EXPECT_EQ(out.lineIndex, expected[i]) << "fill " << i;
        EXPECT_EQ(out.evictedValid, i == 4);
        EXPECT_EQ(out.evictedLineAddr, i == 4 ? 1u : 0u);
    }
    cache.reset();
    EXPECT_EQ(cache.fillTracked(0x40).lineIndex, 1u);
}

TEST(CacheReference, LineBytesBelowTwoRejected)
{
    CacheConfig one_byte = tinyCache(1024, 2);
    one_byte.lineBytes = 1;
    EXPECT_THROW(Cache{one_byte}, FatalError);
}

} // namespace
} // namespace mtperf::uarch
