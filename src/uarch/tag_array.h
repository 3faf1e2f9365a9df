/**
 * @file
 * The set-associative, true-LRU tag store behind every cache and TLB.
 *
 * Tags and recency live in two parallel arrays (struct-of-arrays), set
 * after set, so a set's search reads one contiguous run of tags and a
 * victim choice one contiguous run of stamps. An invalid way holds the
 * tag kInvalidTag; recency is a per-array use clock, stamped on every
 * hit and fill. Both searches are branch-free over the ways: the hit
 * search builds a bitmask of matching ways, the victim choice is a
 * conditional-move argmin.
 */

#ifndef MTPERF_UARCH_TAG_ARRAY_H_
#define MTPERF_UARCH_TAG_ARRAY_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "uarch/types.h"

namespace mtperf::uarch {

/** Tag of an empty way; never a real (shifted) address. */
inline constexpr Addr kInvalidTag = ~Addr{0};

/** Outcome of SetAssocTags::touch(). */
struct TagTouch
{
    bool hit = false;
    std::uint32_t index = 0;     //!< set * ways + way of the touched slot
    Addr evicted = kInvalidTag;  //!< displaced tag, if a miss displaced one
};

/** Tag-only set-associative array with true-LRU replacement. */
class SetAssocTags
{
  public:
    /** @p sets must be a power of two, @p ways at least one. */
    SetAssocTags(std::uint32_t sets, std::uint32_t ways)
        : setMask_(sets - 1), ways_(ways),
          tags_(static_cast<std::size_t>(sets) * ways, kInvalidTag),
          stamps_(tags_.size(), 0)
    {
    }

    /**
     * Look up @p tag in its set, refreshing it on a hit. On a miss it
     * replaces the victim: the first invalid way scanning from way 1,
     * else the least recently used way, ties to the lowest way.
     */
    TagTouch touch(Addr tag)
    {
        const std::size_t base = setBase(tag);
        const std::uint64_t now = ++clock_;
        TagTouch out;
        const std::uint32_t way = findWay(base, tag);
        if (way < ways_) {
            stamps_[base + way] = now;
            out.hit = true;
            out.index = static_cast<std::uint32_t>(base + way);
            return out;
        }
        const std::size_t slot = base + victimWay(base);
        out.index = static_cast<std::uint32_t>(slot);
        out.evicted = tags_[slot];
        tags_[slot] = tag;
        stamps_[slot] = now;
        return out;
    }

    /** True if @p tag is resident; no recency update. */
    bool contains(Addr tag) const
    {
        return findWay(setBase(tag), tag) < ways_;
    }

    /** Invalidate every way and restart the use clock. */
    void reset()
    {
        std::fill(tags_.begin(), tags_.end(), kInvalidTag);
        std::fill(stamps_.begin(), stamps_.end(), 0);
        clock_ = 0;
    }

  private:
    std::size_t setBase(Addr tag) const
    {
        return static_cast<std::size_t>(tag & setMask_) * ways_;
    }

    /** The way holding @p tag, or ways_ when absent. A tag sits in at
     *  most one way: it is only ever filled after a miss. */
    std::uint32_t findWay(std::size_t base, Addr tag) const
    {
        const Addr *tags = tags_.data() + base;
        for (std::uint32_t w0 = 0; w0 < ways_; w0 += 64) {
            // Bit w of match is way w0 + w; filled from the top way
            // down so each step is a shift by one, not by w.
            std::uint32_t w = std::min<std::uint32_t>(ways_, w0 + 64);
            std::uint64_t match = 0;
            while (w-- > w0)
                match = 2 * match + (tags[w] == tag);
            if (match != 0)
                return w0 + static_cast<std::uint32_t>(
                                std::countr_zero(match));
        }
        return ways_;
    }

    /**
     * The replacement rule as one argmin over keys: 2 * stamp for ways
     * 1.., and for way 0 also + 1 when it is empty. Empty ways carry
     * stamp 0 and live ones stamps >= 1, so an empty way past way 0
     * (key 0) beats an empty way 0 (key 1), which beats every live
     * way, and among live ways the least recent wins; the strict `<`
     * keeps the lowest way on a tie.
     */
    std::uint32_t victimWay(std::size_t base) const
    {
        const std::uint64_t *stamps = stamps_.data() + base;
        std::uint64_t best = 2 * stamps[0] + (stamps[0] == 0);
        std::uint32_t victim = 0;
        for (std::uint32_t w = 1; w < ways_; ++w) {
            const std::uint64_t key = 2 * stamps[w];
            const bool older = key < best;
            best = older ? key : best;
            victim = older ? w : victim;
        }
        return victim;
    }

    Addr setMask_;
    std::uint32_t ways_;
    std::vector<Addr> tags_;            //!< sets * ways, set-major
    std::vector<std::uint64_t> stamps_; //!< last use, 0 = never filled
    std::uint64_t clock_ = 0;
};

} // namespace mtperf::uarch

#endif // MTPERF_UARCH_TAG_ARRAY_H_
