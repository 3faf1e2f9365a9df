/**
 * @file
 * Instruction-length decoder model (LCP stalls).
 *
 * On Core 2, an operand-size-changing prefix (a "length changing
 * prefix", e.g. 66h before an instruction with an immediate) defeats
 * the pre-decoder's length speculation and costs a multi-cycle stall
 * (ILD_STALL). Workloads compiled with 16-bit immediates — the paper
 * calls out 403.gcc — hit this repeatedly. The model charges a fixed
 * pre-decode bubble per LCP-marked instruction.
 *
 * Decode results are memoized in a small direct-mapped cache keyed by
 * instruction identity (pc): re-decoding a hot loop body reduces to a
 * tag compare instead of re-deriving the bubble. The cached entry is
 * validated against the op's hasLcp flag, so a pc whose encoding
 * changes (self-modifying workloads, aliased synthetic pcs) never
 * serves a stale bubble — results are bit-identical with the cache on,
 * off, or any size. Statistics (lcpStalls) are charged per dynamic
 * instruction either way.
 *
 * The process-wide decode.cache_* obs counters are fed from the local
 * counts in batches of kPublishBatch lookups, and on reset() and
 * destruction, so no simulated instruction does an atomic
 * read-modify-write on a cache line shared by every pool thread.
 * Totals read after a simulation returns are exact; a sampler reading
 * mid-run lags by at most kPublishBatch - 1 lookups per live decoder.
 */

#ifndef MTPERF_UARCH_DECODER_H_
#define MTPERF_UARCH_DECODER_H_

#include <cstdint>
#include <vector>

#include "uarch/types.h"

namespace mtperf::uarch {

/** Decoder timing parameters. */
struct DecoderConfig
{
    /** Pre-decode bubble per length-changing prefix, in cycles. */
    Cycle lcpStallCycles = 6;

    /**
     * Decoded-op cache capacity (entries, rounded up to a power of
     * two). 0 disables memoization; hit/miss accounting then reports
     * every decode as a miss.
     */
    std::size_t decodeCacheEntries = 2048;
};

/** Front-end length-decoder model: counts and charges LCP stalls. */
class Decoder
{
  public:
    explicit Decoder(const DecoderConfig &config = {});

    /**
     * A copy publishes only what it decodes itself; a move takes over
     * the source's unpublished counts. Either way every lookup reaches
     * the obs counters exactly once.
     */
    Decoder(const Decoder &other);
    Decoder(Decoder &&other) noexcept;
    Decoder &operator=(const Decoder &other);
    Decoder &operator=(Decoder &&other) noexcept;

    /** Publishes the counts not yet published. */
    ~Decoder();

    /** Lookups between two publications to the obs counters. */
    static constexpr std::uint64_t kPublishBatch = 4096;

    /**
     * Account for one fetched instruction.
     * @return the decode bubble in cycles (0 for ordinary encodings).
     */
    Cycle decode(const MicroOp &op);

    /** Publish, then clear statistics and the decoded-op cache. */
    void reset();

    std::uint64_t lcpStalls() const { return lcpStalls_; }

    /** @name Decode-cache accounting (hits + misses == lookups). */
    ///@{
    std::uint64_t cacheLookups() const { return counts_.lookups; }
    std::uint64_t cacheHits() const { return counts_.hits; }
    std::uint64_t cacheMisses() const { return counts_.misses; }
    ///@}

  private:
    struct CacheCounts
    {
        std::uint64_t lookups = 0;
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
    };

    /** Add the counts since the last publication to the obs counters. */
    void publish();

    /** One memoized decode; pc == kEmptyTag means never filled. */
    struct CacheEntry
    {
        Addr pc = kEmptyTag;
        bool hasLcp = false;
        Cycle bubble = 0;
    };

    static constexpr Addr kEmptyTag = ~Addr{0};

    DecoderConfig config_;
    std::uint64_t lcpStalls_ = 0;
    CacheCounts counts_;
    CacheCounts published_; //!< part of counts_ already published
    std::vector<CacheEntry> cache_; //!< direct-mapped, power-of-two
    std::size_t indexMask_ = 0;
};

} // namespace mtperf::uarch

#endif // MTPERF_UARCH_DECODER_H_
