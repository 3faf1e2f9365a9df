/**
 * @file
 * Tests for the load/store queue block classifier.
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "uarch/lsq.h"

namespace mtperf::uarch {
namespace {

LsqConfig
defaultConfig()
{
    return LsqConfig{};
}

TEST(Lsq, IndependentLoadIsFree)
{
    LoadStoreQueue lsq(defaultConfig());
    lsq.recordStore(0x1000, 4, false, 1);
    const auto result = lsq.checkLoad(0x2000, 4, 2);
    EXPECT_EQ(result.penalty, 0u);
    EXPECT_FALSE(result.sta);
    EXPECT_FALSE(result.std);
    EXPECT_FALSE(result.overlap);
}

TEST(Lsq, SlowAddressStoreBlocksYoungLoad)
{
    LoadStoreQueue lsq(defaultConfig());
    lsq.recordStore(0x1000, 4, /*addr_slow=*/true, 10);
    const auto result = lsq.checkLoad(0x9999, 4, 12); // unrelated addr!
    EXPECT_TRUE(result.sta);
    EXPECT_GT(result.penalty, 0u);
    EXPECT_EQ(lsq.staBlocks(), 1u);
}

TEST(Lsq, SlowAddressResolvesOutsideWindow)
{
    LsqConfig config;
    config.staWindowOps = 4;
    LoadStoreQueue lsq(config);
    lsq.recordStore(0x1000, 4, true, 10);
    const auto result = lsq.checkLoad(0x9999, 4, 20); // age 10 > window
    EXPECT_FALSE(result.sta);
    EXPECT_EQ(result.penalty, 0u);
}

TEST(Lsq, FullCoverRecentStoreIsStdBlock)
{
    LsqConfig config;
    config.stdWindowOps = 2;
    LoadStoreQueue lsq(config);
    lsq.recordStore(0x1000, 8, false, 10);
    const auto result = lsq.checkLoad(0x1000, 4, 11); // covered, age 1
    EXPECT_TRUE(result.std);
    EXPECT_FALSE(result.overlap);
    EXPECT_EQ(lsq.stdBlocks(), 1u);
}

TEST(Lsq, FullCoverAgedStoreForwardsForFree)
{
    LsqConfig config;
    config.stdWindowOps = 2;
    LoadStoreQueue lsq(config);
    lsq.recordStore(0x1000, 8, false, 10);
    const auto result = lsq.checkLoad(0x1000, 8, 15); // age 5
    EXPECT_EQ(result.penalty, 0u);
    EXPECT_FALSE(result.std);
}

TEST(Lsq, PartialOverlapBlocks)
{
    LoadStoreQueue lsq(defaultConfig());
    lsq.recordStore(0x1000, 4, false, 10);
    // 8-byte load starting inside the 4-byte store: cannot forward.
    const auto result = lsq.checkLoad(0x1002, 8, 20);
    EXPECT_TRUE(result.overlap);
    EXPECT_EQ(lsq.overlapBlocks(), 1u);
}

TEST(Lsq, StoreCoveringLoadStartingEarlierIsOverlap)
{
    LoadStoreQueue lsq(defaultConfig());
    lsq.recordStore(0x1004, 4, false, 10);
    // Load covers [0x1000, 0x1008): store only covers the upper half.
    const auto result = lsq.checkLoad(0x1000, 8, 20);
    EXPECT_TRUE(result.overlap);
}

TEST(Lsq, YoungestMatchingStoreWins)
{
    LsqConfig config;
    config.stdWindowOps = 2;
    LoadStoreQueue lsq(config);
    lsq.recordStore(0x1000, 4, false, 1);  // old, partial-overlap risk
    lsq.recordStore(0x1000, 8, false, 99); // young, full cover
    const auto result = lsq.checkLoad(0x1000, 4, 100);
    // The young store fully covers but its data is fresh -> STD.
    EXPECT_TRUE(result.std);
    EXPECT_FALSE(result.overlap);
}

TEST(Lsq, RingEvictsOldestStores)
{
    LsqConfig config;
    config.storeBufferEntries = 2;
    LoadStoreQueue lsq(config);
    lsq.recordStore(0x1000, 4, false, 1);
    lsq.recordStore(0x2000, 4, false, 2);
    lsq.recordStore(0x3000, 4, false, 3); // evicts the 0x1000 store
    const auto result = lsq.checkLoad(0x1002, 8, 10);
    EXPECT_FALSE(result.overlap);
}

TEST(Lsq, OlderLoadIgnoresYoungerStore)
{
    LoadStoreQueue lsq(defaultConfig());
    lsq.recordStore(0x1000, 4, false, 50);
    const auto result = lsq.checkLoad(0x1000, 4, 10); // load is older
    EXPECT_EQ(result.penalty, 0u);
}

TEST(Lsq, ResetClearsBufferAndStats)
{
    LoadStoreQueue lsq(defaultConfig());
    lsq.recordStore(0x1000, 4, true, 1);
    lsq.checkLoad(0x1000, 4, 2);
    lsq.reset();
    EXPECT_EQ(lsq.staBlocks(), 0u);
    EXPECT_EQ(lsq.stdBlocks(), 0u);
    EXPECT_EQ(lsq.overlapBlocks(), 0u);
    const auto result = lsq.checkLoad(0x1000, 4, 3);
    EXPECT_EQ(result.penalty, 0u);
}

TEST(Lsq, ZeroEntriesRejected)
{
    LsqConfig config;
    config.storeBufferEntries = 0;
    EXPECT_THROW(LoadStoreQueue{config}, FatalError);
}

/**
 * The store-buffer scan as it stood before the bitmask rewrite: an
 * array of structs walked from the youngest store back, with a
 * short-circuit test per entry. Kept here as the oracle the
 * branch-free LoadStoreQueue::checkLoad must agree with.
 */
class ReferenceLsq
{
  public:
    explicit ReferenceLsq(const LsqConfig &config)
        : config_(config), buffer_(config.storeBufferEntries)
    {
    }

    void recordStore(Addr addr, std::uint8_t size, bool addr_slow,
                     std::uint64_t seq)
    {
        buffer_[head_] = {addr, size, addr_slow, seq, true};
        if (++head_ == buffer_.size())
            head_ = 0;
    }

    LoadBlockResult checkLoad(Addr addr, std::uint8_t size,
                              std::uint64_t seq)
    {
        LoadBlockResult result;
        const Addr load_begin = addr;
        const Addr load_end = addr + size;
        const std::size_t entries = buffer_.size();
        std::size_t slot = head_;
        for (std::size_t i = 0; i < entries; ++i) {
            slot = (slot == 0 ? entries : slot) - 1;
            const StoreEntry &store = buffer_[slot];
            if (!store.valid || store.seq >= seq)
                continue;
            const std::uint64_t age = seq - store.seq;
            if (store.addrSlow && age <= config_.staWindowOps) {
                result.sta = true;
                result.penalty += config_.staBlockCycles;
                ++staBlocks;
                break;
            }
            const Addr store_begin = store.addr;
            const Addr store_end = store.addr + store.size;
            if (load_end <= store_begin || store_end <= load_begin)
                continue;
            const bool covers = store_begin <= load_begin &&
                                store_end >= load_end;
            if (!covers) {
                result.overlap = true;
                result.penalty += config_.overlapBlockCycles;
                ++overlapBlocks;
            } else if (age <= config_.stdWindowOps) {
                result.std = true;
                result.penalty += config_.stdBlockCycles;
                ++stdBlocks;
            }
            break;
        }
        return result;
    }

    std::uint64_t staBlocks = 0;
    std::uint64_t stdBlocks = 0;
    std::uint64_t overlapBlocks = 0;

  private:
    struct StoreEntry
    {
        Addr addr = 0;
        std::uint8_t size = 0;
        bool addrSlow = false;
        std::uint64_t seq = 0;
        bool valid = false;
    };

    LsqConfig config_;
    std::vector<StoreEntry> buffer_;
    std::size_t head_ = 0;
};

/** Block tallies of one random load/store stream. */
struct StreamTally
{
    std::uint64_t loads = 0;
    std::uint64_t sta = 0;
    std::uint64_t std = 0;
    std::uint64_t overlap = 0;
    std::uint64_t futureStores = 0; //!< stores with seq >= a later load's
};

/**
 * Drive @p lsq and a ReferenceLsq with the same seeded stream and
 * require identical results on every load. Addresses cluster in a
 * 96-byte window with sizes 1-16, so full, partial and no overlap all
 * occur; sequence numbers advance by 0-2 per op so slow stores land
 * both just inside and just outside the STA window, and one store in
 * eight is recorded up to 6 ops in the future (seq >= the load's).
 */
StreamTally
compareStream(const LsqConfig &config, std::uint64_t seed, int ops)
{
    LoadStoreQueue lsq(config);
    ReferenceLsq ref(config);
    Rng rng(seed);
    static constexpr std::uint8_t kSizes[] = {1, 2, 4, 8, 16};
    StreamTally tally;
    std::uint64_t seq = 1;
    for (int i = 0; i < ops; ++i) {
        seq += rng.uniformInt(std::uint64_t{3});
        const Addr addr = 0x1000 + rng.uniformInt(std::uint64_t{96});
        const std::uint8_t size = kSizes[rng.uniformInt(std::uint64_t{5})];
        if (rng.chance(0.45)) {
            const bool future = rng.chance(0.125);
            const std::uint64_t store_seq =
                future ? seq + rng.uniformInt(std::uint64_t{7}) : seq;
            tally.futureStores += future;
            const bool slow = rng.chance(0.3);
            lsq.recordStore(addr, size, slow, store_seq);
            ref.recordStore(addr, size, slow, store_seq);
            continue;
        }
        const LoadBlockResult got = lsq.checkLoad(addr, size, seq);
        const LoadBlockResult want = ref.checkLoad(addr, size, seq);
        ++tally.loads;
        EXPECT_EQ(got.penalty, want.penalty) << "op " << i;
        EXPECT_EQ(got.sta, want.sta) << "op " << i;
        EXPECT_EQ(got.std, want.std) << "op " << i;
        EXPECT_EQ(got.overlap, want.overlap) << "op " << i;
        if (testing::Test::HasFailure())
            return tally;
    }
    EXPECT_EQ(lsq.staBlocks(), ref.staBlocks);
    EXPECT_EQ(lsq.stdBlocks(), ref.stdBlocks);
    EXPECT_EQ(lsq.overlapBlocks(), ref.overlapBlocks);
    tally.sta = ref.staBlocks;
    tally.std = ref.stdBlocks;
    tally.overlap = ref.overlapBlocks;
    return tally;
}

class LsqReferenceTest : public testing::TestWithParam<std::uint32_t>
{
};

TEST_P(LsqReferenceTest, MatchesReferenceScanOnRandomStreams)
{
    LsqConfig config;
    config.storeBufferEntries = GetParam();
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        const StreamTally tally =
            compareStream(config, seed * 0x9e3779b97f4a7c15ULL, 6000);
        ASSERT_FALSE(HasFailure()) << "seed " << seed;
        // The stream reaches every outcome the comparison covers.
        EXPECT_GT(tally.sta, 0u);
        EXPECT_GT(tally.overlap, 0u);
        EXPECT_GT(tally.std, 0u);
        EXPECT_GT(tally.futureStores, 0u);
    }
}

TEST_P(LsqReferenceTest, MatchesReferenceAfterReset)
{
    LsqConfig config;
    config.storeBufferEntries = GetParam();
    LoadStoreQueue lsq(config);
    for (std::uint64_t seq = 1; seq <= 3 * GetParam(); ++seq)
        lsq.recordStore(0x1000, 8, seq % 3 == 0, seq);
    lsq.checkLoad(0x1000, 4, 3 * GetParam() + 1);
    ASSERT_GT(lsq.staBlocks() + lsq.stdBlocks(), 0u);
    lsq.reset();
    ReferenceLsq ref(config);
    EXPECT_EQ(lsq.staBlocks() + lsq.stdBlocks() + lsq.overlapBlocks(), 0u);
    // Slot contents from before the reset must not leak into a scan.
    const LoadBlockResult got = lsq.checkLoad(0x1000, 4, 1000);
    const LoadBlockResult want = ref.checkLoad(0x1000, 4, 1000);
    EXPECT_EQ(got.penalty, want.penalty);
    EXPECT_FALSE(got.sta || got.std || got.overlap);
}

// 1 and 2 are the degenerate rings, 20 the Core 2 default, 64 a full
// bitmask word and 65 the first size that needs a second word.
INSTANTIATE_TEST_SUITE_P(BufferSizes, LsqReferenceTest,
                         testing::Values(1u, 2u, 20u, 64u, 65u, 130u));

TEST(Lsq, SlowStoreWindowEdges)
{
    // A slow store of age staWindowOps still blocks; one op older it
    // has resolved, and an unrelated load passes.
    LsqConfig config;
    config.staWindowOps = 4;
    for (const std::uint64_t age : {std::uint64_t{4}, std::uint64_t{5}}) {
        LoadStoreQueue lsq(config);
        ReferenceLsq ref(config);
        lsq.recordStore(0x1000, 4, true, 10);
        ref.recordStore(0x1000, 4, true, 10);
        const LoadBlockResult got = lsq.checkLoad(0x8000, 4, 10 + age);
        const LoadBlockResult want = ref.checkLoad(0x8000, 4, 10 + age);
        EXPECT_EQ(got.sta, age <= config.staWindowOps);
        EXPECT_EQ(got.sta, want.sta);
        EXPECT_EQ(got.penalty, want.penalty);
    }
}

TEST(Lsq, SlowStoreWindowSaturatesAtTheTopOfTheSeqRange)
{
    // seq + staWindowOps overflows for a store this close to the top
    // of the range; the store must still block the next load.
    const std::uint64_t top = ~std::uint64_t{0};
    LoadStoreQueue lsq;
    ReferenceLsq ref{LsqConfig{}};
    lsq.recordStore(0x1000, 4, true, top - 2);
    ref.recordStore(0x1000, 4, true, top - 2);
    const LoadBlockResult got = lsq.checkLoad(0x8000, 4, top - 1);
    EXPECT_TRUE(got.sta);
    EXPECT_EQ(got.sta, ref.checkLoad(0x8000, 4, top - 1).sta);
}

TEST(Lsq, RingWrapPicksYoungestAcrossTheSeam)
{
    // Five stores through a 4-entry ring put the youngest in slot 0
    // and the next youngest in slot 3: the scan must cross the seam.
    LsqConfig config;
    config.storeBufferEntries = 4;
    config.stdWindowOps = 2;
    LoadStoreQueue lsq(config);
    ReferenceLsq ref(config);
    for (std::uint64_t seq = 1; seq <= 4; ++seq) {
        lsq.recordStore(0x1000, 4, false, seq); // partial for 8 B loads
        ref.recordStore(0x1000, 4, false, seq);
    }
    lsq.recordStore(0x1000, 8, false, 5); // young full cover: STD
    ref.recordStore(0x1000, 8, false, 5);
    const LoadBlockResult got = lsq.checkLoad(0x1000, 8, 6);
    const LoadBlockResult want = ref.checkLoad(0x1000, 8, 6);
    EXPECT_TRUE(got.std);
    EXPECT_EQ(got.std, want.std);
    EXPECT_EQ(got.overlap, want.overlap);
}

} // namespace
} // namespace mtperf::uarch
