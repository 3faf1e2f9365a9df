/**
 * @file
 * Load/store queue model for store-forwarding hazards.
 *
 * Core 2 loads that interact badly with in-flight stores stall and
 * re-issue; the PMU distinguishes three cases the paper uses as
 * predictors: LOAD_BLOCK.STA (an older store's address is unknown),
 * LOAD_BLOCK.STD (the matching store's data is not ready to forward)
 * and LOAD_BLOCK.OVERLAP_STORE (a partial overlap that cannot forward
 * at all and must wait for the store to drain). The model keeps a
 * small buffer of recent stores and classifies each load against it.
 */

#ifndef MTPERF_UARCH_LSQ_H_
#define MTPERF_UARCH_LSQ_H_

#include <cstdint>
#include <vector>

#include "uarch/types.h"

namespace mtperf::uarch {

/** Load/store queue timing parameters. */
struct LsqConfig
{
    std::uint32_t storeBufferEntries = 20; //!< tracked in-flight stores
    std::uint32_t staWindowOps = 4;  //!< ops until a slow address resolves
    std::uint32_t stdWindowOps = 2;  //!< ops until store data can forward
    Cycle staBlockCycles = 5;
    Cycle stdBlockCycles = 6;
    Cycle overlapBlockCycles = 5;
};

/** Outcome of checking one load against the store buffer. */
struct LoadBlockResult
{
    Cycle penalty = 0;
    bool sta = false;
    bool std = false;
    bool overlap = false;
};

/** Store buffer + load-block classifier. */
class LoadStoreQueue
{
  public:
    explicit LoadStoreQueue(const LsqConfig &config = {});

    /**
     * Record a store entering the buffer.
     * @param seq the dynamic instruction sequence number.
     */
    void recordStore(Addr addr, std::uint8_t size, bool addr_slow,
                     std::uint64_t seq);

    /** Classify a load against buffered older stores. */
    LoadBlockResult checkLoad(Addr addr, std::uint8_t size,
                              std::uint64_t seq);

    /** Drop all buffered stores and clear statistics. */
    void reset();

    std::uint64_t staBlocks() const { return staBlocks_; }
    std::uint64_t stdBlocks() const { return stdBlocks_; }
    std::uint64_t overlapBlocks() const { return overlapBlocks_; }

  private:
    /** Highest slot below @p limit marked in interacting_, or
     *  kNoSlot. */
    std::size_t youngestBelow(std::size_t limit) const;

    static constexpr std::size_t kNoSlot = ~std::size_t{0};

    LsqConfig config_;
    // The ring of recent stores as parallel arrays, one slot per entry.
    // An empty slot has seq ~0, which no load is younger than.
    std::vector<Addr> begins_;
    std::vector<Addr> ends_; //!< begin + size
    std::vector<std::uint64_t> seqs_;
    /** The slow-address flag with its window folded in: the last load
     *  seq the unresolved address blocks, seq + staWindowOps
     *  (saturating) for a slow store and 0 for a ready one. Only
     *  loads younger than the store consult it, and those have seq
     *  >= 1, so 0 never blocks. */
    std::vector<std::uint64_t> staUntil_;
    std::vector<std::uint64_t> interacting_; //!< checkLoad's slot bitmask
    std::size_t head_ = 0;
    std::uint64_t staBlocks_ = 0;
    std::uint64_t stdBlocks_ = 0;
    std::uint64_t overlapBlocks_ = 0;
};

} // namespace mtperf::uarch

#endif // MTPERF_UARCH_LSQ_H_
