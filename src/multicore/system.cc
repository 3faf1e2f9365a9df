#include "multicore/system.h"

#include "common/logging.h"

namespace mtperf::multicore {

namespace {
constexpr std::uint32_t kInvalidCore = ~0U;
} // namespace

MulticoreSystem::MulticoreSystem(const uarch::CoreConfig &config,
                                 std::uint32_t num_cores)
    : sharedL2_(config.l2, num_cores)
{
    if (num_cores == 0)
        mtperf_fatal("multicore system needs at least one core");
    cores_.reserve(num_cores);
    for (std::uint32_t i = 0; i < num_cores; ++i)
        cores_.push_back(
            std::make_unique<uarch::Core>(config, &sharedL2_, i));
}

std::uint32_t
MulticoreSystem::nextCore(std::span<const std::uint8_t> runnable) const
{
    std::uint32_t best = kInvalidCore;
    for (std::uint32_t i = 0; i < numCores(); ++i) {
        if (!runnable[i])
            continue;
        if (best == kInvalidCore ||
            cores_[i]->currentCycle() < cores_[best]->currentCycle())
            best = i;
    }
    mtperf_assert(best != kInvalidCore,
                  "nextCore() needs a runnable core");
    return best;
}

uarch::EventCounters
MulticoreSystem::counters(std::uint32_t i) const
{
    uarch::EventCounters merged = cores_[i]->counters();
    const SharedL2Stats &stats = sharedL2_.stats(i);
    merged.l2SharedMisses = stats.l2SharedMisses;
    merged.l2OccupancyEvictedByOther = stats.l2OccupancyEvictedByOther;
    merged.prefetchCancellations = stats.prefetchCancellations;
    return merged;
}

void
MulticoreSystem::reset()
{
    sharedL2_.reset();
    for (auto &core : cores_)
        core->reset();
}

} // namespace mtperf::multicore
