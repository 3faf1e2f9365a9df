/**
 * @file
 * The decoder feeds the process-wide decode.cache_* obs counters in
 * batches rather than once per simulated instruction. These tests pin
 * that every lookup still reaches the counters exactly once: after a
 * parallel suite run, at destruction, at reset, and across copies and
 * moves. They live with the parallel tests so the sanitizer job that
 * runs those also sweeps the cross-thread publication.
 */

#include <cstdint>
#include <utility>

#include <gtest/gtest.h>

#include "common/parallel.h"
#include "obs/metrics.h"
#include "perf/section_collector.h"
#include "uarch/decoder.h"
#include "workload/runner.h"

namespace mtperf {
namespace {

using uarch::Decoder;
using uarch::MicroOp;

/** Snapshot of the three decode-cache counters. */
struct DecodeTotals
{
    std::uint64_t lookups;
    std::uint64_t hits;
    std::uint64_t misses;

    static DecodeTotals
    now()
    {
        return {obs::counter("decode.cache_lookups").value(),
                obs::counter("decode.cache_hits").value(),
                obs::counter("decode.cache_misses").value()};
    }

    DecodeTotals
    since(const DecodeTotals &before) const
    {
        return {lookups - before.lookups, hits - before.hits,
                misses - before.misses};
    }
};

/** Decode @p count ops over a small loop of pcs (hits and misses). */
void
decodeOps(Decoder &decoder, std::uint64_t count)
{
    MicroOp op;
    for (std::uint64_t i = 0; i < count; ++i) {
        op.pc = 0x400000 + 4 * (i % 300);
        op.hasLcp = i % 7 == 0;
        decoder.decode(op);
    }
}

TEST(DecodePublish, ParallelSuiteRunPublishesEveryLookup)
{
    setGlobalThreadCount(4);
    workload::RunnerOptions options;
    options.sectionScale = 0.03;
    options.instructionsPerSection = 2000;
    const DecodeTotals before = DecodeTotals::now();
    const std::uint64_t executed_before =
        obs::counter("sim.instructions_executed").value();

    const Dataset data = perf::collectSuiteDataset(options);
    setGlobalThreadCount(0);

    const DecodeTotals delta = DecodeTotals::now().since(before);
    const std::uint64_t simulated =
        data.size() * options.instructionsPerSection;
    ASSERT_GT(simulated, 0u);
    EXPECT_EQ(delta.lookups, simulated);
    EXPECT_EQ(delta.lookups,
              obs::counter("sim.instructions_executed").value() -
                  executed_before);
    EXPECT_EQ(delta.hits + delta.misses, delta.lookups);
    EXPECT_GT(delta.hits, 0u);
}

TEST(DecodePublish, DestructionPublishesThePartialBatch)
{
    const std::uint64_t count = 2 * Decoder::kPublishBatch + 123;
    const DecodeTotals before = DecodeTotals::now();
    std::uint64_t hits = 0;
    {
        Decoder decoder;
        decodeOps(decoder, count);
        hits = decoder.cacheHits();
        // Two full batches are out; the remainder waits.
        EXPECT_EQ(DecodeTotals::now().since(before).lookups,
                  2 * Decoder::kPublishBatch);
    }
    const DecodeTotals delta = DecodeTotals::now().since(before);
    EXPECT_EQ(delta.lookups, count);
    EXPECT_EQ(delta.hits, hits);
    EXPECT_EQ(delta.hits + delta.misses, count);
}

TEST(DecodePublish, ResetPublishesBeforeZeroing)
{
    Decoder decoder;
    const DecodeTotals before = DecodeTotals::now();
    decodeOps(decoder, 10);
    EXPECT_EQ(DecodeTotals::now().since(before).lookups, 0u);
    decoder.reset();
    EXPECT_EQ(DecodeTotals::now().since(before).lookups, 10u);
    EXPECT_EQ(decoder.cacheLookups(), 0u);

    // Counts after the reset start a fresh batch and are not re-sent.
    decodeOps(decoder, 5);
    decoder.reset();
    EXPECT_EQ(DecodeTotals::now().since(before).lookups, 15u);
}

TEST(DecodePublish, CopiesAndMovesPublishEachLookupOnce)
{
    const DecodeTotals before = DecodeTotals::now();
    {
        Decoder original;
        decodeOps(original, 100);
        Decoder copy(original);        // owns none of the 100
        decodeOps(copy, 7);
        Decoder moved(std::move(copy)); // takes over the copy's 7
        decodeOps(moved, 3);
        Decoder assigned;
        decodeOps(assigned, 11);        // published when overwritten
        assigned = original;
        Decoder move_assigned;
        move_assigned = std::move(assigned);
        decodeOps(move_assigned, 2);
    }
    const DecodeTotals delta = DecodeTotals::now().since(before);
    EXPECT_EQ(delta.lookups, 100u + 7u + 3u + 11u + 2u);
    EXPECT_EQ(delta.hits + delta.misses, delta.lookups);
}

} // namespace
} // namespace mtperf
