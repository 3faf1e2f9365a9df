#include "uarch/tlb.h"

#include <bit>

#include "common/logging.h"

namespace mtperf::uarch {

namespace {

/** Validate @p config's geometry and return its set count. */
std::uint32_t
checkedSets(const TlbConfig &config)
{
    // A page holds at least two bytes, so no page number reaches the
    // tag array's all-ones empty marker.
    if (config.pageBytes < 2 ||
        (config.pageBytes & (config.pageBytes - 1)) != 0) {
        mtperf_fatal("TLB: page size must be a power of two of at least 2");
    }
    if (config.associativity == 0 ||
        config.entries % config.associativity != 0) {
        mtperf_fatal("TLB: entries must be a multiple of associativity");
    }
    const std::uint32_t sets = config.entries / config.associativity;
    if (sets == 0 || (sets & (sets - 1)) != 0)
        mtperf_fatal("TLB: set count must be a power of two");
    return sets;
}

} // namespace

Tlb::Tlb(const TlbConfig &config)
    : pageShift_(static_cast<std::uint32_t>(std::countr_zero(
          static_cast<std::uint64_t>(config.pageBytes)))),
      tags_(checkedSets(config), config.associativity)
{
}

bool
Tlb::access(Addr addr)
{
    ++accesses_;
    const bool hit = tags_.touch(addr >> pageShift_).hit;
    misses_ += !hit;
    return hit;
}

void
Tlb::reset()
{
    tags_.reset();
    accesses_ = 0;
    misses_ = 0;
}

TwoLevelDtlb::TwoLevelDtlb(const TlbConfig &l0, const TlbConfig &main)
    : l0_(l0), main_(main)
{
}

DtlbLoadResult
TwoLevelDtlb::translateLoad(Addr addr)
{
    DtlbLoadResult result;
    result.l0Hit = l0_.access(addr);
    if (result.l0Hit) {
        result.mainHit = true; // inclusive: L0 content is in main
        return result;
    }
    result.mainHit = main_.access(addr);
    return result;
}

bool
TwoLevelDtlb::translateStore(Addr addr)
{
    return main_.access(addr);
}

void
TwoLevelDtlb::reset()
{
    l0_.reset();
    main_.reset();
}

} // namespace mtperf::uarch
