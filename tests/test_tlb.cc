/**
 * @file
 * Tests for the TLB models.
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "uarch/core.h"
#include "uarch/tlb.h"

namespace mtperf::uarch {
namespace {

TlbConfig
tinyTlb(std::uint32_t entries, std::uint32_t assoc)
{
    TlbConfig c;
    c.entries = entries;
    c.associativity = assoc;
    c.pageBytes = 4096;
    return c;
}

TEST(Tlb, MissThenHitSamePage)
{
    Tlb tlb(tinyTlb(16, 4));
    EXPECT_FALSE(tlb.access(0x10000));
    EXPECT_TRUE(tlb.access(0x10000));
    EXPECT_TRUE(tlb.access(0x10FFF)); // same 4K page
    EXPECT_FALSE(tlb.access(0x11000)); // next page
    EXPECT_EQ(tlb.accesses(), 4u);
    EXPECT_EQ(tlb.misses(), 2u);
}

TEST(Tlb, CapacityEviction)
{
    // Fully-associative 4-entry TLB: a 5th page evicts the LRU.
    Tlb tlb(tinyTlb(4, 4));
    for (Addr p = 0; p < 5; ++p)
        tlb.access(p * 4096);
    EXPECT_FALSE(tlb.access(0)); // page 0 was LRU
}

TEST(Tlb, LruRefreshOnHit)
{
    Tlb tlb(tinyTlb(2, 2));
    tlb.access(0 * 4096);
    tlb.access(1 * 4096);
    tlb.access(0 * 4096);       // refresh page 0
    tlb.access(2 * 4096);       // evicts page 1
    EXPECT_TRUE(tlb.access(0 * 4096));
    EXPECT_FALSE(tlb.access(1 * 4096));
}

TEST(Tlb, WorkingSetWithinCapacityAllHitsAfterWarmup)
{
    Tlb tlb(tinyTlb(64, 4));
    for (Addr p = 0; p < 64; ++p)
        tlb.access(p * 4096);
    for (Addr p = 0; p < 64; ++p)
        EXPECT_TRUE(tlb.access(p * 4096));
}

TEST(Tlb, ResetClears)
{
    Tlb tlb(tinyTlb(16, 4));
    tlb.access(0x1000);
    tlb.reset();
    EXPECT_EQ(tlb.accesses(), 0u);
    EXPECT_FALSE(tlb.access(0x1000));
}

TEST(Tlb, GeometryValidation)
{
    TlbConfig bad_page = tinyTlb(16, 4);
    bad_page.pageBytes = 3000;
    EXPECT_THROW(Tlb{bad_page}, FatalError);

    TlbConfig bad_assoc = tinyTlb(15, 4);
    EXPECT_THROW(Tlb{bad_assoc}, FatalError);

    TlbConfig bad_sets = tinyTlb(24, 4); // 6 sets: not a power of two
    EXPECT_THROW(Tlb{bad_sets}, FatalError);
}

TEST(TwoLevelDtlb, L0HitPath)
{
    TwoLevelDtlb dtlb(tinyTlb(4, 4), tinyTlb(64, 4));
    auto first = dtlb.translateLoad(0x5000);
    EXPECT_FALSE(first.l0Hit);
    EXPECT_FALSE(first.mainHit);
    auto second = dtlb.translateLoad(0x5000);
    EXPECT_TRUE(second.l0Hit);
    EXPECT_TRUE(second.mainHit);
}

TEST(TwoLevelDtlb, L0MissMainHit)
{
    TwoLevelDtlb dtlb(tinyTlb(2, 2), tinyTlb(64, 4));
    // Touch 3 pages: page 0 falls out of the 2-entry L0 but stays in
    // the main DTLB.
    dtlb.translateLoad(0 * 4096);
    dtlb.translateLoad(1 * 4096);
    dtlb.translateLoad(2 * 4096);
    const auto result = dtlb.translateLoad(0 * 4096);
    EXPECT_FALSE(result.l0Hit);
    EXPECT_TRUE(result.mainHit);
}

TEST(TwoLevelDtlb, StoresBypassL0)
{
    TwoLevelDtlb dtlb(tinyTlb(4, 4), tinyTlb(64, 4));
    EXPECT_FALSE(dtlb.translateStore(0x9000));
    EXPECT_TRUE(dtlb.translateStore(0x9000));
    // The store warmed the main DTLB, not the L0.
    const auto load = dtlb.translateLoad(0x9000);
    EXPECT_FALSE(load.l0Hit);
    EXPECT_TRUE(load.mainHit);
}

TEST(TwoLevelDtlb, ResetClearsBothLevels)
{
    TwoLevelDtlb dtlb(tinyTlb(4, 4), tinyTlb(64, 4));
    dtlb.translateLoad(0x5000);
    dtlb.reset();
    const auto result = dtlb.translateLoad(0x5000);
    EXPECT_FALSE(result.l0Hit);
    EXPECT_FALSE(result.mainHit);
}

/**
 * The TLB as it stood before the shared tag array: {vpn, lastUse,
 * valid} structs with two true-LRU loops, kept as the oracle.
 */
class ReferenceTlb
{
  public:
    explicit ReferenceTlb(const TlbConfig &config)
        : config_(config), numSets_(config.entries / config.associativity),
          entries_(config.entries)
    {
        while ((Addr{1} << pageShift_) < config.pageBytes)
            ++pageShift_;
    }

    bool access(Addr addr)
    {
        ++accesses;
        ++useClock_;
        const Addr vpn = addr >> pageShift_;
        Entry *base = entries_.data() +
                      static_cast<std::size_t>(vpn & (numSets_ - 1)) *
                          config_.associativity;
        for (std::uint32_t w = 0; w < config_.associativity; ++w) {
            if (base[w].valid && base[w].vpn == vpn) {
                base[w].lastUse = useClock_;
                return true;
            }
        }
        ++misses;
        Entry *victim = base;
        for (std::uint32_t w = 1; w < config_.associativity; ++w) {
            if (!base[w].valid) {
                victim = &base[w];
                break;
            }
            if (base[w].lastUse < victim->lastUse)
                victim = &base[w];
        }
        victim->valid = true;
        victim->vpn = vpn;
        victim->lastUse = useClock_;
        return false;
    }

    void reset()
    {
        for (auto &e : entries_)
            e = Entry{};
        useClock_ = 0;
        accesses = 0;
        misses = 0;
    }

    std::uint64_t accesses = 0;
    std::uint64_t misses = 0;

  private:
    struct Entry
    {
        Addr vpn = ~0ULL;
        std::uint64_t lastUse = 0;
        bool valid = false;
    };

    TlbConfig config_;
    std::uint32_t numSets_;
    std::uint32_t pageShift_ = 0;
    std::vector<Entry> entries_;
    std::uint64_t useClock_ = 0;
};

/**
 * Drive a Tlb and a ReferenceTlb with one seeded access stream over
 * four hot sets holding three times as many pages as ways, plus one
 * access in four anywhere in twice the reach; both reset every 10,000
 * accesses from the 5,000th. Every hit/miss and both counters must
 * agree.
 */
void
compareTlbStream(const TlbConfig &config, std::uint64_t seed, int ops)
{
    Tlb tlb(config);
    ReferenceTlb ref(config);
    Rng rng(seed);
    const std::uint64_t sets = config.entries / config.associativity;
    auto same_counters = [&] {
        EXPECT_EQ(tlb.accesses(), ref.accesses);
        EXPECT_EQ(tlb.misses(), ref.misses);
    };
    for (int i = 0; i < ops; ++i) {
        std::uint64_t page;
        if (rng.chance(0.25)) {
            page = rng.uniformInt(2 * std::uint64_t{config.entries});
        } else {
            // A hot set, and one of 3 * ways pages that map to it.
            const std::uint64_t set =
                rng.uniformInt(std::uint64_t{4}) * (sets / 4 + 1) % sets;
            const std::uint64_t ways = config.associativity;
            page = set + sets * rng.uniformInt(3 * ways);
        }
        const Addr addr = page * config.pageBytes +
                          rng.uniformInt(std::uint64_t{config.pageBytes});
        EXPECT_EQ(tlb.access(addr), ref.access(addr)) << "access " << i;
        if (testing::Test::HasFailure())
            return;
        if (i % 10000 == 4999) {
            same_counters();
            tlb.reset();
            ref.reset();
        }
    }
    same_counters();
    EXPECT_GT(tlb.misses(), 0u);
    EXPECT_LT(tlb.misses(), tlb.accesses());
}

TEST(TlbReference, CoreConfigsMatchReferenceLoops)
{
    const CoreConfig core;
    for (const TlbConfig &config :
         {core.itlb, core.dtlbL0, core.dtlbMain}) {
        for (std::uint64_t seed = 1; seed <= 3; ++seed)
            compareTlbStream(config, seed * config.entries, 30000);
    }
}

TEST(TlbReference, SmallShapesMatchReferenceLoops)
{
    for (const TlbConfig &config :
         {tinyTlb(1, 1), tinyTlb(2, 2), tinyTlb(16, 1), tinyTlb(128, 128)})
        compareTlbStream(config, 5 + config.entries, 20000);
}

TEST(TlbReference, PageBytesBelowTwoRejected)
{
    TlbConfig one_byte = tinyTlb(16, 4);
    one_byte.pageBytes = 1;
    EXPECT_THROW(Tlb{one_byte}, FatalError);

    TlbConfig no_sets = tinyTlb(0, 4);
    EXPECT_THROW(Tlb{no_sets}, FatalError);
}

} // namespace
} // namespace mtperf::uarch
