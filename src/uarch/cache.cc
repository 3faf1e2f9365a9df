#include "uarch/cache.h"

#include <bit>

#include "common/logging.h"

namespace mtperf::uarch {

namespace {

/** Validate @p config's geometry and return its set count. */
std::uint32_t
checkedSets(const CacheConfig &config)
{
    // A line holds at least two bytes, so no line address reaches the
    // tag array's all-ones empty marker.
    if (config.lineBytes < 2 ||
        (config.lineBytes & (config.lineBytes - 1)) != 0) {
        mtperf_fatal("cache '", config.name,
                     "': line size must be a power of two of at least 2");
    }
    if (config.associativity == 0)
        mtperf_fatal("cache '", config.name, "': zero associativity");
    const std::uint64_t num_lines = config.sizeBytes / config.lineBytes;
    if (num_lines == 0 || num_lines % config.associativity != 0) {
        mtperf_fatal("cache '", config.name,
                     "': size must be a multiple of assoc * line size");
    }
    const auto sets =
        static_cast<std::uint32_t>(num_lines / config.associativity);
    if ((sets & (sets - 1)) != 0)
        mtperf_fatal("cache '", config.name,
                     "': set count must be a power of two");
    return sets;
}

} // namespace

Cache::Cache(const CacheConfig &config)
    : config_(config), numSets_(checkedSets(config_)),
      lineShift_(static_cast<std::uint32_t>(std::countr_zero(
          static_cast<std::uint64_t>(config_.lineBytes)))),
      tags_(numSets_, config_.associativity)
{
}

CacheAccessOutcome
Cache::lookupTracked(Addr addr, bool demand)
{
    const TagTouch touch = tags_.touch(addr >> lineShift_);
    CacheAccessOutcome out;
    out.hit = touch.hit;
    out.lineIndex = touch.index;
    out.evictedValid = touch.evicted != kInvalidTag;
    out.evictedLineAddr = out.evictedValid ? touch.evicted : 0;
    prefetchFills_ += !demand && !touch.hit;
    return out;
}

bool
Cache::access(Addr addr)
{
    ++accesses_;
    const bool hit = lookupTracked(addr, true).hit;
    if (!hit) {
        ++misses_;
        if (config_.nextLinePrefetch) {
            for (std::uint32_t d = 1; d <= config_.prefetchDegree; ++d)
                fill(addr + d * std::uint64_t(config_.lineBytes));
        }
    }
    return hit;
}

CacheAccessOutcome
Cache::accessTracked(Addr addr)
{
    ++accesses_;
    CacheAccessOutcome out = lookupTracked(addr, true);
    if (!out.hit)
        ++misses_;
    return out;
}

bool
Cache::probe(Addr addr) const
{
    return tags_.contains(addr >> lineShift_);
}

void
Cache::fill(Addr addr)
{
    lookupTracked(addr, false);
}

CacheAccessOutcome
Cache::fillTracked(Addr addr)
{
    return lookupTracked(addr, false);
}

void
Cache::reset()
{
    tags_.reset();
    accesses_ = 0;
    misses_ = 0;
    prefetchFills_ = 0;
}

double
Cache::missRatio() const
{
    if (accesses_ == 0)
        return 0.0;
    return static_cast<double>(misses_) / static_cast<double>(accesses_);
}

} // namespace mtperf::uarch
