/**
 * @file
 * Behavioural tests for the out-of-order timing core.
 *
 * These check the *mechanisms* the dataset generation relies on:
 * width-limited throughput, dependency serialization, miss-latency
 * exposure and overlap (MLP), front-end penalties and the reorder
 * window limit. The split tests check that running front() ahead of
 * time() is exactly execute().
 */

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "common/rng.h"
#include "multicore/system.h"
#include "uarch/core.h"
#include "workload/spec_suite.h"
#include "workload/stream_gen.h"

namespace mtperf::uarch {
namespace {

MicroOp
aluOp(Addr pc)
{
    MicroOp op;
    op.cls = OpClass::IntAlu;
    op.pc = pc;
    return op;
}

/** Run n ALU ops with sequential PCs in a tiny loop footprint. */
void
runAlu(Core &core, std::size_t n, std::uint16_t dep_dist = 0)
{
    for (std::size_t i = 0; i < n; ++i) {
        MicroOp op = aluOp(0x1000 + (i % 64) * 4);
        op.depDist = dep_dist;
        core.execute(op);
    }
}

double
cpiOfRun(const Core &core)
{
    return static_cast<double>(core.counters().cycles) /
           static_cast<double>(core.counters().instRetired);
}

TEST(Core, IndependentAluStreamReachesFullWidth)
{
    Core core;
    runAlu(core, 40000);
    // 4-wide machine: CPI -> 0.25.
    EXPECT_NEAR(cpiOfRun(core), 0.25, 0.02);
}

TEST(Core, SerialDependencyChainRunsAtUnitLatency)
{
    Core core;
    runAlu(core, 20000, /*dep_dist=*/1);
    // Every op waits for its predecessor: CPI -> 1.0.
    EXPECT_NEAR(cpiOfRun(core), 1.0, 0.05);
}

TEST(Core, TwoIndependentChainsDoubleThroughput)
{
    Core core;
    for (std::size_t i = 0; i < 20000; ++i) {
        MicroOp op = aluOp(0x1000 + (i % 64) * 4);
        op.depDist = 2; // two interleaved serial chains
        core.execute(op);
    }
    EXPECT_NEAR(cpiOfRun(core), 0.5, 0.05);
}

TEST(Core, FpDivLatencyExposedOnSerialChain)
{
    Core core;
    for (std::size_t i = 0; i < 3000; ++i) {
        MicroOp op = aluOp(0x1000 + (i % 16) * 4);
        op.cls = OpClass::FpDiv;
        op.depDist = 1;
        core.execute(op);
    }
    EXPECT_NEAR(cpiOfRun(core), static_cast<double>(
                                    core.config().fpDivLatency),
                1.5);
}

TEST(Core, CacheResidentLoadsAreCheap)
{
    Core core;
    for (std::size_t i = 0; i < 30000; ++i) {
        MicroOp op = aluOp(0x1000 + (i % 64) * 4);
        op.cls = OpClass::Load;
        op.addr = 0x100000 + (i % 256) * 8; // 2 KB working set
        op.size = 8;
        core.execute(op);
    }
    EXPECT_LT(cpiOfRun(core), 0.35);
    EXPECT_LT(core.l1d().missRatio(), 0.01);
}

TEST(Core, SerializedMissChainExposesFullMemoryLatency)
{
    // Dependent loads, each to a fresh line far beyond any cache:
    // the chain serializes at ~memLatency per load.
    CoreConfig config;
    config.l2.nextLinePrefetch = false;
    Core core(config);
    const std::size_t n = 2000;
    for (std::size_t i = 0; i < n; ++i) {
        MicroOp op = aluOp(0x1000 + (i % 16) * 4);
        op.cls = OpClass::Load;
        // Large stride defeats caches and the line-based DTLB reuse
        // is also minimal (one page per 64 lines stride... use pages).
        op.addr = 0x10000000ULL + i * 4096ULL;
        op.size = 8;
        op.depDist = 1;
        core.execute(op);
    }
    const double cpi = cpiOfRun(core);
    EXPECT_GT(cpi, static_cast<double>(core.config().memLatency) * 0.9);
}

TEST(Core, IndependentMissesOverlap)
{
    // Same miss stream but independent: memory-level parallelism in
    // the 96-entry window must hide most of the latency.
    CoreConfig config;
    config.l2.nextLinePrefetch = false;
    Core serial_cfg_core(config), parallel_core(config);

    const std::size_t n = 2000;
    for (std::size_t i = 0; i < n; ++i) {
        MicroOp op = aluOp(0x1000 + (i % 16) * 4);
        op.cls = OpClass::Load;
        op.addr = 0x10000000ULL + i * 4096ULL;
        op.size = 8;
        op.depDist = 0;
        parallel_core.execute(op);
    }
    const double parallel_cpi =
        static_cast<double>(parallel_core.counters().cycles) /
        static_cast<double>(n);
    // At least 10x cheaper than the serialized case.
    EXPECT_LT(parallel_cpi,
              static_cast<double>(config.memLatency) / 10.0);
    // But the misses still cost more than cache-resident loads.
    EXPECT_GT(parallel_cpi, 1.0);
}

TEST(Core, MispredictsAddResteerPenalty)
{
    Core clean, noisy;
    const std::size_t n = 40000;
    for (std::size_t i = 0; i < n; ++i) {
        MicroOp op = aluOp(0x1000 + (i % 64) * 4);
        if (i % 8 == 0) {
            op.cls = OpClass::Branch;
            op.taken = false;
        }
        clean.execute(op);
    }
    Rng rng(7);
    for (std::size_t i = 0; i < n; ++i) {
        MicroOp op = aluOp(0x1000 + (i % 64) * 4);
        if (i % 8 == 0) {
            op.cls = OpClass::Branch;
            // Random outcome the predictor cannot learn.
            op.taken = rng.chance(0.5);
        }
        noisy.execute(op);
    }
    EXPECT_LT(clean.counters().brMispredicted * 20,
              noisy.counters().brMispredicted);
    EXPECT_GT(cpiOfRun(noisy), cpiOfRun(clean) + 0.3);
}

TEST(Core, LcpStallsSlowTheFrontEnd)
{
    Core plain, lcp;
    for (std::size_t i = 0; i < 20000; ++i) {
        MicroOp op = aluOp(0x1000 + (i % 64) * 4);
        plain.execute(op);
        op.hasLcp = (i % 4 == 0);
        lcp.execute(op);
    }
    EXPECT_EQ(lcp.counters().lcpStalls, 5000u);
    // A quarter of ops paying a 6-cycle bubble dominates a 0.25-CPI
    // baseline.
    EXPECT_GT(cpiOfRun(lcp), cpiOfRun(plain) + 1.0);
}

TEST(Core, LargeCodeFootprintCausesL1iMisses)
{
    Core core;
    // March the PC through 256 KB of code repeatedly; only 32 KB fits.
    const std::size_t code_lines = 256 * 1024 / 64;
    std::size_t line = 0;
    for (std::size_t i = 0; i < 100000; ++i) {
        MicroOp op = aluOp(0x400000 + (line * 64) + (i % 16) * 4);
        if (i % 16 == 15)
            line = (line + 1) % code_lines;
        core.execute(op);
    }
    EXPECT_GT(core.counters().l1iMiss, 1000u);
}

TEST(Core, ItlbMissesOnHugeCodeFootprint)
{
    Core core;
    // Jump across pages: 1024 code pages >> 128-entry ITLB.
    for (std::size_t i = 0; i < 50000; ++i) {
        const Addr page = (i * 769) % 1024;
        MicroOp op = aluOp(0x400000 + page * 4096);
        core.execute(op);
    }
    EXPECT_GT(core.counters().itlbMiss, 10000u);
}

TEST(Core, DtlbCountersFollowLoadPageBehaviour)
{
    Core core;
    // 4096 pages of data touched round-robin: misses in both levels.
    for (std::size_t i = 0; i < 50000; ++i) {
        MicroOp op = aluOp(0x1000 + (i % 16) * 4);
        op.cls = OpClass::Load;
        op.addr = 0x10000000ULL + (i % 4096) * 4096ULL;
        op.size = 8;
        core.execute(op);
    }
    EXPECT_GT(core.counters().dtlbLdMiss, 10000u);
    EXPECT_GE(core.counters().dtlbL0LdMiss, core.counters().dtlbLdMiss);
    EXPECT_EQ(core.counters().dtlbLdMiss,
              core.counters().dtlbLdRetiredMiss);
    EXPECT_GE(core.counters().dtlbAnyMiss, core.counters().dtlbLdMiss);
}

TEST(Core, MisalignedAndSplitCountersFire)
{
    Core core;
    for (std::size_t i = 0; i < 1000; ++i) {
        MicroOp op = aluOp(0x1000 + (i % 16) * 4);
        op.cls = OpClass::Load;
        op.size = 8;
        op.addr = 0x100000 + i * 64 + 61; // misaligned and line-split
        core.execute(op);
    }
    EXPECT_EQ(core.counters().misalignedMemRef, 1000u);
    EXPECT_EQ(core.counters().l1dSplitLoads, 1000u);
}

TEST(Core, StoreSplitCounterSeparateFromLoads)
{
    Core core;
    MicroOp op = aluOp(0x1000);
    op.cls = OpClass::Store;
    op.size = 8;
    op.addr = 0x100000 + 61;
    core.execute(op);
    EXPECT_EQ(core.counters().l1dSplitStores, 1u);
    EXPECT_EQ(core.counters().l1dSplitLoads, 0u);
    EXPECT_EQ(core.counters().misalignedMemRef, 1u);
}

TEST(Core, LoadMissCountersAreLoadOnly)
{
    CoreConfig config;
    config.l2.nextLinePrefetch = false;
    Core core(config);
    // Store misses should not bump the MEM_LOAD_RETIRED counters.
    for (std::size_t i = 0; i < 1000; ++i) {
        MicroOp op = aluOp(0x1000 + (i % 16) * 4);
        op.cls = OpClass::Store;
        op.addr = 0x10000000ULL + i * 4096ULL;
        op.size = 8;
        core.execute(op);
    }
    EXPECT_EQ(core.counters().l1dLineMiss, 0u);
    EXPECT_EQ(core.counters().l2LineMiss, 0u);
    EXPECT_EQ(core.counters().instStores, 1000u);
}

TEST(Core, InstructionMixCountersAdd)
{
    Core core;
    for (std::size_t i = 0; i < 900; ++i) {
        MicroOp op = aluOp(0x1000 + (i % 64) * 4);
        if (i % 3 == 0) {
            op.cls = OpClass::Load;
            op.addr = 0x100000 + (i % 128) * 8;
        } else if (i % 3 == 1) {
            op.cls = OpClass::Store;
            op.addr = 0x100000 + (i % 128) * 8;
        } else {
            op.cls = OpClass::Branch;
            op.taken = false;
        }
        core.execute(op);
    }
    EXPECT_EQ(core.counters().instRetired, 900u);
    EXPECT_EQ(core.counters().instLoads, 300u);
    EXPECT_EQ(core.counters().instStores, 300u);
    EXPECT_EQ(core.counters().brRetired, 300u);
}

TEST(Core, CountersDeltaIsolatesSections)
{
    Core core;
    runAlu(core, 1000);
    const EventCounters snapshot = core.counters();
    runAlu(core, 1000);
    const EventCounters delta = core.counters().delta(snapshot);
    EXPECT_EQ(delta.instRetired, 1000u);
    EXPECT_GT(delta.cycles, 0u);
    EXPECT_LT(delta.cycles, 1000u);
}

TEST(Core, ResetRestoresColdState)
{
    Core core;
    runAlu(core, 5000);
    core.reset();
    EXPECT_EQ(core.counters().instRetired, 0u);
    EXPECT_EQ(core.currentCycle(), 0u);
    runAlu(core, 5000);
    EXPECT_NEAR(cpiOfRun(core), 0.25, 0.05);
}

TEST(Core, ConfigValidation)
{
    CoreConfig bad_width;
    bad_width.width = 0;
    EXPECT_THROW(Core{bad_width}, FatalError);

    CoreConfig bad_rob;
    bad_rob.robSize = 0;
    EXPECT_THROW(Core{bad_rob}, FatalError);
}

TEST(Core, NarrowMachineIsSlower)
{
    CoreConfig narrow;
    narrow.width = 1;
    Core one(narrow), four;
    runAlu(one, 20000);
    runAlu(four, 20000);
    EXPECT_NEAR(cpiOfRun(one), 1.0, 0.05);
    EXPECT_LT(cpiOfRun(four), 0.3);
}

TEST(Core, SmallRobLimitsMlp)
{
    // With a 4-entry window, independent misses can barely overlap.
    CoreConfig small;
    small.robSize = 4;
    small.l2.nextLinePrefetch = false;
    CoreConfig big;
    big.robSize = 256;
    big.l2.nextLinePrefetch = false;

    auto run_misses = [](Core &core) {
        for (std::size_t i = 0; i < 2000; ++i) {
            MicroOp op;
            op.cls = OpClass::Load;
            op.pc = 0x1000 + (i % 16) * 4;
            op.addr = 0x10000000ULL + i * 4096ULL;
            op.size = 8;
            core.execute(op);
        }
    };
    Core small_core(small), big_core(big);
    run_misses(small_core);
    run_misses(big_core);
    EXPECT_GT(cpiOfRun(small_core), 2.0 * cpiOfRun(big_core));
}

// ---------------------------------------------------------------
// The front/time split: front() ahead of time() is execute()
// ---------------------------------------------------------------

const workload::PhaseParams &
suitePhase(const std::string &name)
{
    static const std::vector<workload::WorkloadSpec> suite =
        workload::specLikeSuite();
    for (const workload::WorkloadSpec &spec : suite) {
        if (spec.name == name)
            return spec.phases.front().params;
    }
    ADD_FAILURE() << "no suite workload named " << name;
    return suite.front().phases.front().params;
}

void
expectSameTiming(const Core &a, const EventCounters &ca, const Core &b,
                 const EventCounters &cb, const std::string &where)
{
    for (const auto &field : counterFields())
        EXPECT_EQ(ca.*(field.member), cb.*(field.member))
            << where << ": " << field.name;
    const CpiStack &sa = a.cpiStack();
    const CpiStack &sb = b.cpiStack();
    EXPECT_EQ(sa.base, sb.base) << where;
    EXPECT_EQ(sa.frontend, sb.frontend) << where;
    EXPECT_EQ(sa.resteer, sb.resteer) << where;
    EXPECT_EQ(sa.memL2, sb.memL2) << where;
    EXPECT_EQ(sa.memL1d, sb.memL1d) << where;
    EXPECT_EQ(sa.dtlb, sb.dtlb) << where;
    EXPECT_EQ(sa.storeForward, sb.storeForward) << where;
    EXPECT_EQ(sa.memOther, sb.memOther) << where;
    EXPECT_EQ(sa.longLatency, sb.longLatency) << where;
    EXPECT_EQ(sa.window, sb.window) << where;
    EXPECT_EQ(a.currentCycle(), b.currentCycle()) << where;
}

constexpr std::size_t kSplitSection = 2000;
const char *const kSplitWorkloads[] = {"mcf_like", "gcc_like",
                                       "libquantum_like", "lbm_like"};

TEST(CoreSplit, FrontAheadOfTimeMatchesExecute)
{
    CoreConfig ports;
    ports.modelPortContention = true;
    for (const CoreConfig &config : {CoreConfig::core2Like(), ports}) {
        for (const char *name : kSplitWorkloads) {
            const workload::PhaseParams &params = suitePhase(name);
            Core fused(config), split(config);
            workload::StreamGenerator gen_fused(params, 7);
            workload::StreamGenerator gen_split(params, 7);
            std::vector<FrontRecord> ahead;
            for (int section = 0; section < 6; ++section) {
                for (std::size_t i = 0; i < kSplitSection; ++i)
                    fused.execute(gen_fused.next());
                // A whole section of front records first, then time.
                ahead.clear();
                for (std::size_t i = 0; i < kSplitSection; ++i)
                    ahead.push_back(split.front(gen_split.next()));
                for (const FrontRecord &rec : ahead)
                    split.time(rec);
                expectSameTiming(fused, fused.counters(), split,
                                 split.counters(),
                                 std::string(name) + " section " +
                                     std::to_string(section));
            }
        }
    }
}

TEST(CoreSplit, MulticoreFrontAheadOfTimeMatchesExecute)
{
    // Two cores over the shared L2 under the stepping contract: one
    // system executes each op, the other prepares each core's front
    // records a section ahead and only times them in the lockstep.
    const CoreConfig config = CoreConfig::core2Like();
    multicore::MulticoreSystem fused(config, 2);
    multicore::MulticoreSystem split(config, 2);
    const char *const lanes[] = {"mcf_like", "gcc_like"};
    std::vector<workload::StreamGenerator> gen_fused, gen_split;
    for (std::uint64_t c = 0; c < 2; ++c) {
        gen_fused.emplace_back(suitePhase(lanes[c]), 11 + c);
        gen_split.emplace_back(suitePhase(lanes[c]), 11 + c);
    }
    std::vector<FrontRecord> ahead[2];
    std::size_t next[2] = {0, 0};
    std::size_t executed[2] = {0, 0};
    const std::size_t per_core = 6 * kSplitSection;
    std::vector<std::uint8_t> runnable(2, 1);
    while (runnable[0] || runnable[1]) {
        const std::uint32_t c = fused.nextCore(runnable);
        ASSERT_EQ(split.nextCore(runnable), c);
        fused.core(c).execute(gen_fused[c].next());
        if (next[c] == ahead[c].size()) {
            ahead[c].clear();
            next[c] = 0;
            for (std::size_t i = 0; i < kSplitSection; ++i)
                ahead[c].push_back(split.core(c).front(gen_split[c].next()));
        }
        split.core(c).time(ahead[c][next[c]++]);
        if (++executed[c] % kSplitSection == 0) {
            expectSameTiming(fused.core(c), fused.counters(c),
                             split.core(c), split.counters(c),
                             std::string(lanes[c]) + " at " +
                                 std::to_string(executed[c]));
        }
        if (executed[c] == per_core)
            runnable[c] = false;
    }
}

} // namespace
} // namespace mtperf::uarch
